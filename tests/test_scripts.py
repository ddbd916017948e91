"""Smoke tests for the example scripts: each runs in a subprocess and exits 0."""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import parse_spans

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_weight_sweep_prints_a_row_per_weight_combination():
    out = run_script("weight_sweep.py", "--groups", "2")
    assert out.startswith("2 groups, G=16")
    for label in ("full (1,2,1)", "no fisher (0,2,1)", "no info gain (1,0,1)", "no tf ratio (1,2,0)"):
        assert label in out


def test_demo_heatmap_shades_the_planted_tokens_most(tmp_path):
    page = tmp_path / "demo.html"
    out = run_script("make_demo_heatmap.py", "--out", str(page))
    assert "token 9001 should be the darkest green, token 9002 the darkest red" in out
    # Each shaded span's opacity, by token id and colour; the demo promises
    # that the planted tokens top their colour.
    opacity = {"pos": {}, "neg": {}}
    for span in parse_spans(page.read_text(encoding="utf-8")):
        kind = span.get("class", "").removeprefix("tok ")
        if kind in opacity:
            token = int(re.match(r"token (\d+)", span["title"]).group(1))
            alpha = float(span["style"].rsplit(",", 1)[1].rstrip(")"))
            opacity[kind][token] = max(alpha, opacity[kind].get(token, 0.0))
    for kind, planted in (("pos", 9001), ("neg", 9002)):
        others = [alpha for token, alpha in opacity[kind].items() if token != planted]
        assert opacity[kind][planted] > max(others), kind


def processes_under(path):
    """Pids of the live processes whose working directory lies under ``path``."""
    pids = []
    for proc in Path("/proc").iterdir():
        try:
            if proc.name.isdigit() and os.readlink(proc / "cwd").startswith(str(path)):
                pids.append(int(proc.name))
        except OSError:  # gone, a zombie, or not ours
            pass
    return pids


@pytest.mark.skipif(sys.platform != "linux", reason="finds processes through /proc")
@pytest.mark.skipif(subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode != 0,
                    reason="exports a revision with git archive")
def test_bench_pairs_cleans_up_on_sigterm(tmp_path):
    """SIGTERM during a pair removes the parent export and kills the benchmark
    run with the per-workload process it started (both run in the export)."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    script = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", "HEAD",
         "--out", str(tmp_path / "out.json"), "--pairs", "1"],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while len(processes_under(tmp_path)) < 2:  # perfbench/run.py and its workload process
            assert script.poll() is None and time.monotonic() < deadline, script.stderr.read() if script.poll() else ""
            time.sleep(0.05)
        assert list(tmp_path.glob("bench-pairs-*/tree"))
        script.send_signal(signal.SIGTERM)
        assert script.wait(timeout=30) == 1
    finally:
        script.kill()
    assert "interrupted" in script.stderr.read()
    assert not list(tmp_path.glob("bench-pairs-*"))
    deadline = time.monotonic() + 10
    while processes_under(tmp_path):  # a killed process may take a moment to be reaped
        assert time.monotonic() < deadline, processes_under(tmp_path)
        time.sleep(0.05)
