"""Smoke tests for the example scripts: each runs in a subprocess and exits 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
