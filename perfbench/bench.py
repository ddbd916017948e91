"""Benchmark runs, metrics and output; ``run.py`` is the entry point.

Prints every metric with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. Exits 1 when any output
fails its correctness check.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ktae import KtaeConfig, advantage, cli
from perfbench import checks, workloads
from perfbench.spans import Tracer, roots, self_times

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "tokens/s",
    "tokens_per_s_par2": "tokens/s",
    "group_ms_p50": "ms",
    "group_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class Ledger:
    """Operations attempted and failed. An operation fails when it raises,
    exits non-zero, or its output fails a correctness check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


class Run:
    """One workload's inputs, working files and ledger for a single benchmark run."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.inputs = workloads.build(workload, seed)
        self.config = KtaeConfig()
        self.rng = np.random.default_rng(seed)
        self.ledger = Ledger()
        self.work = work
        self.input_path = work / "groups.jsonl"
        self.input_path.write_text("".join(line + "\n" for line in self.inputs.lines), encoding="utf-8")
        self.warmup_path = work / "warmup.jsonl"
        self.warmup_path.write_text(self.inputs.lines[0] + "\n", encoding="utf-8")
        self.digest: str | None = None
        self.size_of = {g.group_id: n for g, n in zip(self.inputs.groups, self.inputs.sizes)}

    def library(self, group):
        return advantage.compute_advantages(group, self.config)

    def cli_pass(self, out: Path, extra=(), tracer=None, input_path=None) -> tuple[float, list[str]]:
        """One `ktae compute` run in this process; returns its wall seconds and problems."""
        argv = ["compute", "--input", str(input_path or self.input_path), "--output", str(out), *extra]
        started = time.perf_counter()
        try:
            with tracer.span("cli.run") if tracer else contextlib.nullcontext():
                code = cli.main(argv)
        except Exception as exc:  # counted as a failed operation, the run goes on
            return time.perf_counter() - started, [f"ktae {' '.join(argv)} raised {exc!r}"]
        elapsed = time.perf_counter() - started
        return elapsed, [] if code == 0 else [f"ktae {' '.join(argv)} exited {code}"]

    def reference(self) -> None:
        """Untimed serial pass whose output is checked in full; later passes must match it byte for byte.

        A --stats pass over two groups follows, for the Fisher oracle check.
        """
        out = self.work / "reference.jsonl"
        _, problems = self.cli_pass(out)
        if not problems:
            problems = checks.output_problems(out, self.inputs, self.rng, self.library)
            self.digest = _digest(out)
        self.ledger.record(problems)
        probe_inputs = dataclasses.replace(self.inputs, groups=self.inputs.groups[:2], lines=self.inputs.lines[:2])
        probe_in, probe_out = self.work / "probe.jsonl", self.work / "probe-out.jsonl"
        probe_in.write_text("".join(line + "\n" for line in probe_inputs.lines), encoding="utf-8")
        _, problems = self.cli_pass(probe_out, ["--stats"], input_path=probe_in)
        if not problems:
            problems = checks.output_problems(probe_out, probe_inputs, self.rng, self.library)
        self.ledger.record(problems)

    def checked_pass(self, extra=(), tracer=None) -> float:
        """One `ktae compute` pass whose output must equal the reference output; returns its seconds."""
        out = self.work / "out.jsonl"
        with tracer or contextlib.nullcontext():
            elapsed, problems = self.cli_pass(out, extra, tracer)
        if not problems and _digest(out) != self.digest:
            problems = [f"ktae compute {' '.join(extra)} output differs from the checked serial output"]
        self.ledger.record(problems)
        return elapsed

    def library_cycle(self, tracer=None) -> dict[str, int]:
        """One compute_advantages call per group, as a trainer makes them.

        Returns each successful call's latency (ns) by group id. Each result
        is checked between calls, outside the timed region.
        """
        inputs = self.inputs
        latencies = {}
        with tracer or contextlib.nullcontext():
            for group in inputs.groups:
                started = time.perf_counter_ns()
                try:
                    matrix = advantage.compute_advantages(group, self.config)
                except Exception as exc:  # counted as a failed operation, the run goes on
                    self.ledger.record([f"{group.group_id}: compute_advantages raised {exc!r}"])
                    continue
                latencies[group.group_id] = time.perf_counter_ns() - started
                self.ledger.record(checks.advantage_problems(
                    group, matrix.rollout_advantages, matrix.token_advantages,
                    group.group_id in inputs.degenerate, inputs.positive, inputs.negative,
                ))
        return latencies

    def rates(self, latencies: dict[str, int]) -> list[float]:
        """Tokens/s of each library call."""
        return [self.size_of[gid] / ns * 1e9 for gid, ns in latencies.items()]

    def setup_probe(self) -> float | None:
        """Set-up seconds of one fresh process (see setup_probe.py), or None when it failed."""
        command = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), self.workload.mode,
                   str(self.warmup_path), str(self.work / "warmup-out.jsonl")]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            self.ledger.record([f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
            return None
        self.ledger.record([])
        return float(proc.stdout.split()[-1])


def _digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def lower_quartile(rates: list[float]) -> float:
    """Throughput that three of four operations reach.

    On a shared 2-vCPU virtual machine the speed of the same code drifts by
    up to ~1.7x for tens of seconds at a time; how much of a run such a spell
    covers moves the median and the mean between runs more than the lower
    quartile (see README.md).
    """
    return float(np.percentile(rates, 25))


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """Rounds of every measured operation until ``seconds`` pass.

    A round is one library cycle over the groups, one serial `ktae compute`
    pass (cli workloads) and one `--parallel 2` pass, and, while one is due,
    a set-up probe: SETUP_PROBES of them are spread evenly over the run. So
    every metric samples the whole run rather than a slice of it.
    """
    run.reference()
    par2 = ["--parallel", "2"]
    run.checked_pass(par2)  # warm-up, untimed
    setup, probes = [], 0

    def probe() -> None:
        nonlocal probes
        probes += 1
        if (value := run.setup_probe()) is not None:
            setup.append(value)

    latencies, library_rates, serial_rates, par2_rates = [], [], [], []
    best: dict[str, int] = {}  # group id -> its fastest call
    started = time.perf_counter()
    deadline = started + seconds
    while not par2_rates or time.perf_counter() < deadline:
        if probes < min(SETUP_PROBES, 1 + int(SETUP_PROBES * (time.perf_counter() - started) / seconds)):
            probe()
        cycle = run.library_cycle()
        latencies += cycle.values()
        library_rates += run.rates(cycle)
        for gid, ns in cycle.items():
            best[gid] = min(ns, best.get(gid, ns))
        if run.workload.mode == "cli":
            serial_rates.append(run.inputs.tokens / run.checked_pass())
        par2_rates.append(run.inputs.tokens / run.checked_pass(par2))
    while probes < SETUP_PROBES:  # runs of fewer rounds than SETUP_PROBES
        probe()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if run.workload.mode == "library":
        serial_rates, serial_how = library_rates, "compute_advantages calls"
    else:
        serial_how = "serial ktae compute passes"
    p50_over = list(best.values()) if run.workload.p50_of_best else latencies
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "tokens_per_s": lower_quartile(serial_rates),
        "tokens_per_s_par2": lower_quartile(par2_rates),
        "group_ms_p50": float(np.percentile(p50_over, 50)) / 1e6,
        "group_ms_p90": float(np.percentile(latencies, 90)) / 1e6,
        "peak_rss_mb": peak_rss,
    }
    groups = len(run.inputs.groups)
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "tokens_per_s": f"lower quartile of {len(serial_rates)} {serial_how} over {groups} groups",
        "tokens_per_s_par2": f"lower quartile of {len(par2_rates)} ktae compute --parallel 2 passes over {groups} groups",
        "group_ms_p50": (f"fastest call of each of {len(best)} groups, over {len(latencies)} calls"
                         if run.workload.p50_of_best else f"{len(latencies)} compute_advantages calls"),
        "group_ms_p90": f"{len(latencies)} compute_advantages calls",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    lines = [f"{name:<20} {value:>14.6g} {END_TO_END_UNITS[name]:<9} {notes[name]}" for name, value in metrics.items()]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def traced(run: Run, seconds: float, trace_path: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics: the workload's serial operation, alternately untraced and traced.

    ``wide`` also traces one serial `ktae compute` pass so that the cli and
    records layers are measured on it too.
    """
    run.reference()
    tracer = Tracer()
    untraced_rates, traced_rates, wall = [], [], 0
    deadline = time.perf_counter() + seconds
    while not traced_rates or time.perf_counter() < deadline:
        if run.workload.mode == "library":
            untraced_rates += run.rates(run.library_cycle())
            latencies = run.library_cycle(tracer)
            traced_rates += run.rates(latencies)
            wall += sum(latencies.values())
        else:
            untraced_rates.append(run.inputs.tokens / run.checked_pass())
            elapsed = run.checked_pass(tracer=tracer)
            traced_rates.append(run.inputs.tokens / elapsed)
            wall += int(elapsed * 1e9)
    if run.workload.mode == "library":
        wall += int(run.checked_pass(tracer=tracer) * 1e9)
    tracer.write(trace_path)
    metrics = layer_metrics(run, tracer, wall)
    metrics["trace.overhead_ratio"] = (lower_quartile(traced_rates) / lower_quartile(untraced_rates), "ratio")
    lines = [f"{name:<36} {value:>12.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def layer_metrics(run: Run, tracer, wall_ns: int) -> dict:
    """Busy ms per group for each layer, plus the counts and ratios named in README.md."""
    spans = tracer.spans
    own = self_times(spans)
    root = roots(spans)

    def named(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def ms(indices, count, times=None):
        """Summed duration (or ``times``) of the spans at ``indices``, in ms per ``count``."""
        total = sum(times[i] if times else spans[i].end - spans[i].start for i in indices)
        return total / 1e6 / count if count else 0.0

    compute = named("advantage.compute_advantages")
    parse = named("records.parse_group_record")
    cli_runs = named("cli.run")
    validate = named("core.validate_group")
    degenerate = [i for i in compute if spans[i].group in run.inputs.degenerate]
    n, n_cli = len(compute), len(parse)
    output_bytes = (run.work / "out.jsonl").stat().st_size
    return {
        "cli.self_ms": (ms(cli_runs, n_cli, own), "ms"),
        "records.parse_ms": (ms(parse, n_cli), "ms"),
        "records.serialize_ms": (ms(named("records.advantage_record_line"), n_cli), "ms"),
        "records.output_bytes_per_token": (output_bytes / run.inputs.tokens, "count"),
        "core.validate_ms": (ms(validate, n), "ms"),
        "core.validate_calls_per_group": (
            sum(spans[root[i]].name == "cli.run" for i in validate) / max(n_cli, 1), "count"),
        "advantage.compute_ms": (ms(compute, n), "ms"),
        "advantage.self_ms": (ms(compute, n, own), "ms"),
        "advantage.baseline_ms": (ms(named("advantage.grpo_advantages"), n), "ms"),
        "advantage.sigmoid_ms": (ms(named("advantage.sigmoid_shift"), n), "ms"),
        "advantage.degenerate_ms": (ms(degenerate, len(degenerate)), "ms"),
        "advantage.admissible_ratio": ((n - len(degenerate)) / max(n, 1), "ratio"),
        "advantage.distinct_tokens_per_group": (
            statistics.mean(run.inputs.distinct[spans[i].group] for i in compute), "count"),
        "stats.fisher_ms": (ms(named("stats.fisher_point_prob_array", "stats.fisher_score_array"), n), "ms"),
        "stats.info_gain_ms": (ms(named("stats.info_gain_array"), n), "ms"),
        "frequency.lengths_ms": (ms(named("frequency.group_lengths"), n), "ms"),
        "frequency.tf_ms": (ms(named("frequency.tf_score_array"), n), "ms"),
        "frequency.direction_ms": (ms(named("frequency.direction_score_array"), n), "ms"),
        "runtime.gc_ms": (tracer.gc_ns / 1e6 / max(n, 1), "ms"),
        "runtime.gc_collections_per_group": (tracer.gc_collections / max(n, 1), "count"),
        "trace.coverage_ratio": (sum(own) / wall_ns, "ratio"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(workloads.WORKLOADS[name], seed, work)
        if trace:
            metrics, lines = traced(run, seconds, WORK / f"spans-{name}-seed{seed}.jsonl")
        else:
            metrics, lines = end_to_end(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = run.ledger
    for line in lines:
        print(f"{name:<11} {line}")
    print(f"{name:<11} {'error_rate':<20} {ledger.failed / ledger.attempted:>14.6g} "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    for problem in ledger.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; metrics are keyed "<workload>/<metric>"."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
