"""Command-line surface: compute, visualize, bench, oracle-check.

Exit codes: 0 success, 1 data error, 2 configuration error. Everything is
flag-driven; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args

from .advantage import compute_advantages, token_stats
from .core import MAX_EXACT_N, ConfigError, InvalidGroup, KtaeConfig, KtaeError
from .records import (
    RecordError,
    advantage_record_line,
    load_flat_mapping,
    parse_advantage_record,
    parse_group_record,
)

# Each command imports what only it runs (the process pool, the heatmap, the
# synthetic benchmark, the oracle) inside its own function, so a serial
# `ktae compute` loads just parse, compute and serialize.

ORACLE_TOLERANCE = 1e-9

# `compute --parallel` hands each batch to the pool in at least this many
# chunks per worker: 128 short lines go 16 to a task, while an 8-line pass of
# large groups on 2 workers still sends one line per task (two per task cost
# those passes 12-17%).
CHUNKS_PER_WORKER = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktae",
        description="Token-level advantage estimation over reward-labeled rollout groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute advantage records for a batch of groups")
    p_compute.add_argument("--input", required=True, help="line-delimited group records")
    p_compute.add_argument("--output", required=True, help="where to write advantage records")
    p_compute.add_argument("--config", help="flat JSON config file")
    p_compute.add_argument("--stats", action="store_true", help="embed per-token diagnostics")
    p_compute.add_argument("--parallel", type=int, default=1, metavar="N",
                           help="worker processes, capped at the CPU count")
    p_compute.add_argument("--skip-bad", action="store_true", help="skip malformed records instead of stopping")
    _add_config_flags(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_vis = sub.add_parser("visualize", help="render one group's token heatmap to HTML")
    p_vis.add_argument("--input", required=True, help="line-delimited group records")
    p_vis.add_argument("--advantages", required=True, help="line-delimited advantage records")
    p_vis.add_argument("--group", required=True, help="group id to render")
    p_vis.add_argument("--output", required=True, help="output HTML path")
    p_vis.set_defaults(func=cmd_visualize)

    p_bench = sub.add_parser("bench", help="run the planted-token recovery benchmark")
    p_bench.add_argument("--spec", help="flat JSON benchmark spec (defaults to the standard benchmark)")
    p_bench.add_argument("--config", help="flat JSON config file")
    p_bench.add_argument("--report", help="write the machine-readable report here")
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_oracle = sub.add_parser("oracle-check", help="compare the package's Fisher p against the exact oracle")
    p_oracle.add_argument("--max-n", type=int, default=16, help=f"largest table total to check (<= {MAX_EXACT_N})")
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides (flags beat file values beat defaults)")
    for f in fields(KtaeConfig):  # a float, or a Literal of the accepted strings
        choices = get_args(f.type) or None
        group.add_argument(f"--{f.name.replace('_', '-')}", type=None if choices else f.type, choices=choices,
                           default=None, dest=f"cfg_{f.name}")


def resolve_config(args: argparse.Namespace) -> KtaeConfig:
    """Defaults, then the --config file (validated on its own), then the flags."""
    config = KtaeConfig.from_dict(load_flat_mapping(args.config, "config")) if args.config else KtaeConfig()
    flags = {f.name: getattr(args, f"cfg_{f.name}", None) for f in fields(KtaeConfig)}
    return replace(config, **{name: value for name, value in flags.items() if value is not None})


def _process_line(item: tuple[int, str], config: KtaeConfig, include_stats: bool):
    """Worker: one numbered input line to (output line, None) or (None, diagnostic)."""
    lineno, line = item
    try:
        group = parse_group_record(_check_utf8(line))  # checks the group rules
        matrix = compute_advantages(group, config)
        stats = token_stats(group, config) if include_stats else None
        return advantage_record_line(group.group_id, matrix, stats), None
    except KtaeError as exc:
        return None, f"line {lineno}: {type(exc).__name__}: {exc}"


def _open_lines(path: str):
    """Open a text input whose undecodable bytes survive as lone surrogates,
    so one bad line is reported by _check_utf8 instead of ending the read."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _check_utf8(line: str) -> str:
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise RecordError("line is not valid UTF-8") from None
    return line


def _numbered_lines(handle):
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def cmd_compute(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    # More workers than the CPUs this process may run on only add fork and
    # memory cost; output is the same.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(args.parallel, cpus)
    worker = functools.partial(_process_line, config=config, include_stats=args.stats)
    if workers == 1:  # maps in process, with no pool to import or start
        return _compute_batches(args, worker, None, 1)
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _compute_batches(args, worker, pool, workers)
    except BrokenExecutor as exc:  # a worker died
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _compute_batches(args: argparse.Namespace, worker, pool, workers: int) -> int:
    """Batches keep memory bounded on huge inputs; both maps keep input order."""
    with _open_lines(args.input) as src, open(args.output, "w", encoding="utf-8") as dst:
        items = _numbered_lines(src)
        while batch := list(itertools.islice(items, workers * 64)):
            step = max(1, len(batch) // (workers * CHUNKS_PER_WORKER))
            results = pool.map(worker, batch, chunksize=step) if pool else map(worker, batch)
            if _drain(results, dst, args.skip_bad):
                return 1
    return 0


def _drain(results, dst, skip_bad: bool) -> bool:
    """Write results in order; returns True when a bad record stops the run."""
    for line, diagnostic in results:
        if diagnostic is not None:
            print(diagnostic, file=sys.stderr)
            if not skip_bad:
                return True
            continue
        dst.write(line + "\n")
    return False


def _find_record(path: str, wanted_id: str, parse, describe: str):
    with _open_lines(path) as handle:
        for lineno, line in _numbered_lines(handle):
            try:
                record = parse(_check_utf8(line))
            except KtaeError as exc:
                raise type(exc)(f"{path} line {lineno}: {exc}") from None
            if record.group_id == wanted_id:
                return record
    from .heatmap import UnknownGroup

    raise UnknownGroup(f"group {wanted_id!r} not found in {describe} {path}")


def cmd_visualize(args: argparse.Namespace) -> int:
    from .heatmap import render_group_html

    group = _find_record(args.input, args.group, parse_group_record, "group records")
    record = _find_record(args.advantages, args.group, parse_advantage_record, "advantage records")
    try:  # before the output is opened, so a failure writes no file
        document = render_group_html(group, record).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate from a JSON escape or from --group
        raise InvalidGroup(f"group {group.group_id!r} has an id or display text that UTF-8 cannot encode") from None
    Path(args.output).write_bytes(document)
    print(f"wrote {args.output}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .synth import SynthSpec, generate, recovery_report

    spec = SynthSpec.from_dict(load_flat_mapping(args.spec, "benchmark spec")) if args.spec else SynthSpec()
    config = resolve_config(args)
    groups = generate(spec)
    report = recovery_report(groups, spec, config)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"groups                 {report['num_groups']}")
    print(f"sign accuracy          {report['sign_accuracy']:.4f} "
          f"(positive {report['sign_accuracy_positive']:.4f}, negative {report['sign_accuracy_negative']:.4f})")
    print(f"neutral |delta| max    {report['neutral_max_abs_delta']:.3g}")
    print(f"plant mean |ktv|       {report['plant_mean_abs_ktv']:.6g}")
    print(f"filler |ktv| p95       {report['filler_abs_ktv_p95']:.6g}")
    print(f"plant rank mean/worst  {report['plant_rank_mean']:.2f} / {report['plant_rank_worst']}")
    print(f"seconds per group      {report['seconds_per_group']*1e3:.2f} ms")
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if not 0 <= args.max_n <= MAX_EXACT_N:
        bound = ">= 0" if args.max_n < 0 else f"<= {MAX_EXACT_N}"
        raise ConfigError(f"--max-n must be {bound}, got {args.max_n}")
    from .oracle import compare_fast_vs_exact

    started = time.perf_counter()
    worst, table = compare_fast_vs_exact(args.max_n)
    elapsed = time.perf_counter() - started
    where = f" at table {tuple(table)}" if table is not None else ""
    print(f"checked all tables with N <= {args.max_n} in {elapsed:.2f}s; "
          f"worst relative error {worst:.3e}{where}")
    if worst > ORACLE_TOLERANCE:
        print(f"FAIL: worst relative error exceeds {ORACLE_TOLERANCE:.0e}", file=sys.stderr)
        return 1
    return 0


def _refuse_overwrite(args: argparse.Namespace) -> None:
    """ConfigError when an output flag names an existing file that an input flag also names."""
    paths = {flag: path for flag in ("output", "report", "input", "advantages", "config", "spec")
             if (path := getattr(args, flag, None)) and os.path.exists(path)}
    for out, inp in itertools.product(("output", "report"), ("input", "advantages", "config", "spec")):
        if out in paths and inp in paths and os.path.samefile(paths[inp], paths[out]):
            raise ConfigError(f"--{out} {paths[out]} is the --{inp} file; it would be overwritten")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_overwrite(args)  # before any command opens its output
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KtaeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: MemoryError", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
