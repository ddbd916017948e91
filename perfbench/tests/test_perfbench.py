"""Tests of the benchmark itself: smoke runs, span arithmetic, wrapper restore, and the checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ktae.advantage
import ktae.cli
import ktae.frequency
import ktae.records
import ktae.stats
from ktae import KtaeConfig, compute_advantages
from perfbench import bench, checks, workloads
from perfbench.spans import Span, Tracer, roots, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_only_small_has_degenerate_groups():
    assert not workloads.build(workloads.WORKLOADS["wide"], seed=1).degenerate
    small = workloads.build(workloads.WORKLOADS["small"], seed=1)
    assert len(small.degenerate) == len(small.groups) // 4


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = _run("--workload", "small", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["core.validate_calls_per_group"]["value"] == 2.0
    assert result["metrics"]["advantage.admissible_ratio"]["value"] == 0.75
    assert abs(result["metrics"]["trace.coverage_ratio"]["value"] - 1.0) < 0.1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("root", 0, 100, -1, None),
        Span("a", 10, 40, 0, "g"),
        Span("b", 50, 90, 0, "g"),
        Span("a", 60, 70, 2, "g"),
        Span("root", 200, 230, -1, None),
    ]
    assert self_times(spans) == [30, 30, 30, 10, 30]
    assert sum(self_times(spans)) == 100 + 30
    assert roots(spans) == [0, 0, 0, 0, 4]


def test_traced_run_restores_every_module_attribute(tmp_path):
    modules = (ktae.advantage, ktae.cli, ktae.frequency, ktae.stats)
    before = [dict(vars(m)) for m in modules]
    inputs = workloads.build(workloads.WORKLOADS["small"], seed=2)
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text("".join(line + "\n" for line in inputs.lines[:4]))
    with Tracer() as tracer:
        assert ktae.cli.compute_advantages is not before[1]["compute_advantages"]
        ktae.advantage.compute_advantages(inputs.groups[0])
        assert ktae.cli.main(["compute", "--input", str(src), "--output", str(out)]) == 0
    after = [dict(vars(m)) for m in modules]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)
    names = {s.name for s in tracer.spans}
    assert {"advantage.compute_advantages", "records.parse_group_record", "core.validate_group",
            "stats.info_gain_array", "frequency.direction_score_array"} <= names
    assert all(s.group is not None for s in tracer.spans)


def _small_case():
    inputs = workloads.build(workloads.WORKLOADS["small"], seed=4)
    group = inputs.groups[0]
    assert group.group_id not in inputs.degenerate
    matrix = compute_advantages(group, KtaeConfig())
    base = matrix.rollout_advantages.copy()
    rows = [row.copy() for row in matrix.token_advantages]
    return inputs, group, matrix, base, rows


def _problems(inputs, group, base, rows, degenerate=False):
    return checks.advantage_problems(group, base, rows, degenerate, inputs.positive, inputs.negative)


def _set_token(group, base, rows, token, delta):
    for i, rollout in enumerate(group.rollouts):
        for j, t in enumerate(rollout.tokens):
            if t == token:
                rows[i][j] = base[i] + delta


def test_checks_pass_the_program_output():
    inputs, group, _, base, rows = _small_case()
    assert _problems(inputs, group, base, rows) == []


def test_checks_flag_a_delta_that_differs_between_positions():
    inputs, group, _, base, rows = _small_case()
    token = inputs.positive[0]
    i = next(i for i, r in enumerate(group.rollouts) if token in r.tokens)
    j = group.rollouts[i].tokens.index(token)
    rows[i][j] = np.nextafter(rows[i][j], np.inf)
    assert any("different deltas" in p for p in _problems(inputs, group, base, rows))


def test_checks_flag_an_out_of_bound_delta():
    inputs, group, _, base, rows = _small_case()
    _set_token(group, base, rows, inputs.positive[0], 0.5)
    assert any("|delta| >= 0.5" in p for p in _problems(inputs, group, base, rows))


def test_checks_flag_a_nonzero_delta_on_a_token_in_every_rollout():
    inputs, group, _, base, rows = _small_case()
    neutral = workloads.WORKLOADS["small"].spec.get("planted_neutral", (9003,))[0]
    _set_token(group, base, rows, neutral, 1e-3)
    assert any("every rollout" in p for p in _problems(inputs, group, base, rows))


def test_checks_flag_a_planted_token_with_the_wrong_sign():
    inputs, group, _, base, rows = _small_case()
    _set_token(group, base, rows, inputs.positive[0], -0.1)
    assert any("planted positive" in p for p in _problems(inputs, group, base, rows))


def test_checks_flag_a_degenerate_group_with_a_nonzero_baseline():
    inputs, group, _, base, rows = _small_case()
    assert any("degenerate" in p for p in _problems(inputs, group, base, rows, degenerate=True))


def test_checks_flag_a_wrong_fisher_p_and_a_cli_row_that_differs():
    inputs, group, matrix, _, _ = _small_case()
    token = inputs.positive[0]
    record = json.loads(ktae.records.advantage_record_line(group.group_id, matrix, include_stats=True))
    assert checks.fisher_problems(group, record["token_stats"], [token]) == []
    assert checks.record_matches_library(record, matrix) == []
    record["token_stats"][str(token)]["p"] *= 1 + 1e-6
    assert checks.fisher_problems(group, record["token_stats"], [token])
    record["token_advantages"][0][0] += 1e-9
    assert checks.record_matches_library(record, matrix)


def test_checks_flag_malformed_and_missing_output_rows(tmp_path):
    inputs = workloads.build(workloads.WORKLOADS["small"], seed=6)
    inputs.groups, inputs.lines = inputs.groups[:2], inputs.lines[:2]
    out = tmp_path / "out.jsonl"
    rng = np.random.default_rng(0)
    out.write_text(json.dumps({"group_id": inputs.groups[0].group_id}) + "\n")
    problems = checks.output_problems(out, inputs, rng, compute_advantages)
    assert any("malformed record" in p for p in problems)
    assert any("1 output rows for 2 input groups" in p for p in problems)


def test_a_failed_check_makes_the_run_exit_nonzero(monkeypatch, capsys):
    shift = ktae.advantage.sigmoid_shift
    monkeypatch.setattr(ktae.advantage, "sigmoid_shift", lambda x: -shift(x))
    assert bench.run_workload("small", seed=5, seconds=0.1, trace=False) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
