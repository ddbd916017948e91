#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write a BENCH_*.json summary.

The parent revision is exported with `git archive` into a temporary directory,
which is removed afterwards, also when the script is stopped by SIGTERM or
Ctrl-C; the benchmark run in progress is then killed with every process it
started. Each pair runs

    python3 perfbench/run.py --workload all --seed S --seconds 45

once in that export and once in this checkout (the change), swapping which
side goes first from pair to pair. Pair i uses seed S = 1000 + i; the run
length and seeds are fixed so that BENCH_*.json files stay comparable. The
summary holds, for each workload and end-to-end metric in BENCHMARK.json, each
side's median and quartiles, every pair's values, in how many pairs the
change was better, the metric's bound and one verdict:

    worse       the change's median is worse than the parent's by more than the bound
    unresolved  the parent's (q3 - q1) / median exceeds the bound, and not every
                change run beats every parent run
    ok          otherwise

It also records the seeds, `git rev-parse` of both sides, the Python and numpy
versions and the CPU count. Every verdict that is not `ok` is printed; the
script exits 1 on any `worse` verdict, or on any run that failed or read
incorrect output.

Usage:
    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json [--pairs 10]
"""

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 45
FIRST_SEED = 1000


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """Write the files of ``rev`` into ``into`` (no .git, no worktree registered)."""
    archive = into / "parent.tar"
    with open(archive, "wb") as handle:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=handle)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def bench(tree: Path, seed: int) -> dict:
    """One `perfbench/run.py --workload all` run; its final JSON line plus the exit code.

    The run has its own session, so an interrupt can kill its whole process
    group: the run and the per-workload processes it starts.
    """
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=tree, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    try:
        result = json.loads(stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {}}
    return {"exit": proc.returncode, "correct": result["correct"], "failed": result["failed"],
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """``worse``, ``unresolved`` or ``ok``; ``sign`` is 1 where higher is better, -1 where lower is."""
    p, c = statistics.median(parent), statistics.median(change)
    if sign * (c - p) < -bound * abs(p):
        return "worse"
    q1, q3 = np.percentile(parent, [25, 75])
    change_beats_all = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if q3 - q1 > bound * abs(p) and not change_beats_all:
        return "unresolved"
    return "ok"


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per workload and metric: both sides' spread, every pair's values, the change's wins and a verdict."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics}
    summary: dict[str, dict] = {}
    for key in sorted(set().union(*(run["metrics"] for run in runs["parent"] + runs["change"]))):
        workload, metric = key.split("/", 1)
        pairs = [(p["metrics"][key], c["metrics"][key]) for p, c in zip(runs["parent"], runs["change"])
                 if key in p["metrics"] and key in c["metrics"]]
        if metric not in better or not pairs:
            continue
        parent, change = map(list, zip(*pairs))
        sign = 1 if better[metric] == "higher" else -1
        summary.setdefault(workload, {})[metric] = {
            "better": better[metric],
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "pairs": len(pairs),
            "median_ratio": statistics.median(change) / statistics.median(parent),
            "bound": bounds[metric],
            "verdict": verdict(parent, change, sign, bounds[metric]),
            "parent_values": parent,
            "change_values": change,
        }
    return summary


def interrupt(signum, frame):
    """Turn SIGTERM into KeyboardInterrupt, so that cleanup runs as on Ctrl-C."""
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--out", required=True, help="summary file, e.g. BENCH_8.json at the repository root")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    signal.signal(signal.SIGTERM, interrupt)
    seeds = [FIRST_SEED + i for i in range(args.pairs)]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        export(args.parent, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                run = bench(trees[side], seed)
                runs[side].append(run)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: exit {run['exit']} "
                      f"correct {run['correct']} failed {run['failed']}", file=sys.stderr, flush=True)
    report = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": f"python3 perfbench/run.py --workload all --seed S --seconds {SECONDS}",
        "seeds": seeds,
        "order": "parent first on even pairs (0-based), change first on odd ones",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "runs": {side: [{k: run[k] for k in ("exit", "correct", "failed")} for run in side_runs]
                 for side, side_runs in runs.items()},
        "metrics": summarize(runs),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    flagged = [(workload, metric, entry) for workload, entries in report["metrics"].items()
               for metric, entry in entries.items() if entry["verdict"] != "ok"]
    for workload, metric, entry in flagged:
        print(f"{entry['verdict']}: {workload} {metric} median ratio {entry['median_ratio']:.3f} "
              f"(bound {entry['bound']})", file=sys.stderr)
    runs_ok = all(run["exit"] == 0 and run["correct"] for side in runs.values() for run in side)
    return 0 if runs_ok and not any(entry["verdict"] == "worse" for *_, entry in flagged) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit("bench_pairs: interrupted")
