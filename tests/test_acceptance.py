"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Randomized checks use fixed seeds and are fully deterministic.
"""

import time
from contextlib import contextmanager

import numpy as np

from ktae import KtaeConfig, Rollout, RolloutGroup, compute_advantages, dapo_admissible
from ktae.cli import main
from ktae.frequency import cohen_h_array, frequency_term_array
from ktae.oracle import ContingencyTable as CT
from ktae.oracle import compare_fast_vs_exact
from ktae.records import group_record_line, parse_advantage_record
from ktae.stats import fisher_score_array, info_gain_array
from ktae.synth import SynthSpec, generate, recovery_report

from conftest import at_one, fisher_p, parse_spans, random_group, random_tables


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{title}]: FAIL")
        raise
    print(f"criterion {number:2d} [{title}]: PASS")


def test_criterion_01_fisher_oracle_equivalence():
    with criterion(1, "Fisher oracle equivalence, exhaustive N <= 16"):
        started = time.perf_counter()
        worst, table = compare_fast_vs_exact(16)
        elapsed = time.perf_counter() - started
        assert worst <= 1e-9, f"worst relative error {worst:.3e} at {table}"
        assert elapsed < 10.0, f"exhaustive check took {elapsed:.1f}s"


def test_criterion_02_symmetry_suite():
    with criterion(2, "column-swap symmetry over 10,000 random tables"):
        rng = np.random.default_rng(20240)
        a, b, c, d = random_tables(rng, 10_000, max_cell=16)

        for fisher_mode in ("point", "two_sided"):
            assert (fisher_p(a, b, c, d, fisher_mode) == fisher_p(b, a, d, c, fisher_mode)).all()

        ig_fwd = info_gain_array(a, b, c, d)
        ig_swp = info_gain_array(b, a, d, c)
        assert np.max(np.abs(ig_fwd - ig_swp)) <= 1e-12

        # direction antisymmetry on the pairs where no frequency floor applies
        tf_t = np.where(rng.random(a.shape) < 0.1, 0.0, rng.uniform(0.05, 3.0, a.shape))
        tf_f = np.where(rng.random(a.shape) < 0.1, 0.0, rng.uniform(0.05, 3.0, a.shape))
        floor = KtaeConfig().tf_floor
        d_fwd = cohen_h_array(a, b, c, d) + frequency_term_array(tf_t, tf_f, 1.0, floor)
        d_swp = cohen_h_array(b, a, d, c) + frequency_term_array(tf_f, tf_t, 1.0, floor)
        unclamped = (tf_t > floor) & (tf_f > floor)
        assert unclamped.sum() > 5000
        assert np.max(np.abs(d_swp[unclamped] + d_fwd[unclamped])) <= 1e-9


def test_criterion_03_transform_endpoints():
    with criterion(3, "association-score endpoints"):
        assert at_one(fisher_score_array, 1.0) == 0.0
        assert at_one(fisher_score_array, 1e-12) >= 1.0 - 1e-11


def test_criterion_04_info_gain_anchors():
    with criterion(4, "information-gain anchors"):
        assert abs(at_one(info_gain_array, CT(4, 0, 0, 4)) - 1.0) <= 1e-12
        assert abs(at_one(info_gain_array, CT(2, 2, 2, 2))) <= 1e-12


def test_criterion_05_bounded_perturbation():
    with criterion(5, "bounded deltas, identical per token id, 10,000 groups"):
        rng = np.random.default_rng(77)
        for i in range(10_000):
            group = random_group(rng, f"r{i}")
            matrix = compute_advantages(group)
            per_token: dict[int, float] = {}
            for rollout, row, base in zip(group.rollouts, matrix.token_advantages, matrix.rollout_advantages):
                deltas = row - base
                assert np.all(np.abs(deltas) < 0.5)
                for token, delta in zip(rollout.tokens, deltas.tolist()):
                    assert per_token.setdefault(token, delta) == delta  # bit-identical


def test_criterion_06_neutral_token_neutrality():
    with criterion(6, "tokens present everywhere keep the baseline exactly"):
        # direct construction: token 42 in every rollout
        rollouts = tuple(
            Rollout(tokens=(42, 100 + i), reward=float(i < 3)) for i in range(5)
        )
        matrix = compute_advantages(RolloutGroup("neutral", rollouts))
        s = matrix.token_stats
        assert s.c[s.index(42)] == 0
        assert s.d[s.index(42)] == 0
        for row, base in zip(matrix.token_advantages, matrix.rollout_advantages):
            assert row[0] - base == 0.0

        # and scanning random groups for every c = d = 0 token
        rng = np.random.default_rng(11)
        for i in range(200):
            group = random_group(rng, f"n{i}", vocab=5)
            matrix = compute_advantages(group)
            s = matrix.token_stats
            everywhere = (s.c == 0) & (s.d == 0)
            assert np.all(s.key_token_value[everywhere] == 0.0)
            for token in s.tokens[everywhere].tolist():
                for rollout, row, base in zip(
                    group.rollouts, matrix.token_advantages, matrix.rollout_advantages
                ):
                    for pos, tok in enumerate(rollout.tokens):
                        if tok == token:
                            assert row[pos] - base == 0.0


def test_criterion_07_planted_token_recovery():
    with criterion(7, "planted-token recovery on the default benchmark"):
        started = time.perf_counter()
        spec = SynthSpec()  # 200 groups, G=16, correct_fraction 0.75
        config = KtaeConfig()  # h1=1, h2=2, h3=1, k1=2, b=0.5
        report = recovery_report(generate(spec), spec, config)
        elapsed = time.perf_counter() - started
        assert report["sign_accuracy_positive"] == 1.0
        assert report["sign_accuracy_negative"] == 1.0
        assert report["plant_mean_abs_ktv"] > report["filler_abs_ktv_p95"]
        assert elapsed < 30.0, f"benchmark took {elapsed:.1f}s"


def test_criterion_08_degenerate_handling():
    with criterion(8, "uniform-outcome groups are inert and inadmissible"):
        for reward in (1.0, 0.0):
            rollouts = tuple(Rollout(tokens=(1, 2, 3 + i), reward=reward) for i in range(6))
            group = RolloutGroup(f"all-{reward:g}", rollouts)
            assert not dapo_admissible(group)
            matrix = compute_advantages(group, KtaeConfig(degenerate_policy="zeros"))
            assert np.all(matrix.rollout_advantages == 0.0)
            for row in matrix.token_advantages:
                assert np.all(row == 0.0)


def test_criterion_09_determinism_and_throughput(tmp_path):
    with criterion(9, "single-group latency and parallel/serial byte identity"):
        rng = np.random.default_rng(5)
        rollouts = tuple(
            Rollout(tokens=tuple(rng.integers(0, 50_000, size=1024).tolist()), reward=float(i < 12))
            for i in range(16)
        )
        group = RolloutGroup("wide", rollouts)
        best = min(_timed(lambda: compute_advantages(group)) for _ in range(3))
        assert best < 0.100, f"G=16 x 1024 tokens took {best * 1e3:.1f} ms"

        spec = SynthSpec(num_groups=1000, base_vocab=50, rollout_len_range=(8, 14))
        src = tmp_path / "groups.jsonl"
        with open(src, "w") as handle:
            for g in generate(spec):
                handle.write(group_record_line(g) + "\n")
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert main(["compute", "--input", str(src), "--output", str(serial), "--stats"]) == 0
        assert main(["compute", "--input", str(src), "--output", str(parallel), "--stats", "--parallel", "8"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


def test_criterion_10_visualization_contract(tmp_path):
    with criterion(10, "heatmap shades plants by sign, zeros stay unshaded"):
        spec = SynthSpec(num_groups=3, base_vocab=60, rollout_len_range=(10, 16))
        groups = generate(spec)
        src = tmp_path / "groups.jsonl"
        with open(src, "w") as handle:
            for g in groups:
                handle.write(group_record_line(g) + "\n")
        adv = tmp_path / "adv.jsonl"
        html_path = tmp_path / "heat.html"
        assert main(["compute", "--input", str(src), "--output", str(adv), "--stats"]) == 0
        assert main(
            ["visualize", "--input", str(src), "--advantages", str(adv),
             "--group", "synth-0000", "--output", str(html_path)]
        ) == 0

        record = parse_advantage_record(
            next(l for l in adv.read_text().splitlines() if '"synth-0000"' in l)
        )
        zero_tokens = {tok for tok, entry in record.token_stats.items() if entry["ktv"] == 0.0}

        spans = [s for s in parse_spans(html_path.read_text()) if "tok" in s.get("class", "")]
        assert spans
        seen_pos = seen_neg = False
        unshaded_tokens = set()
        for span in spans:
            token = int(span["title"].split()[1])
            classes = span["class"].split()
            if token in spec.planted_positive:
                assert "pos" in classes and "rgba(34,139,34" in span["style"]
                seen_pos = True
            if token in spec.planted_negative:
                assert "neg" in classes and "rgba(205,38,38" in span["style"]
                seen_neg = True
            if "zero" in classes:
                assert "style" not in span
                unshaded_tokens.add(token)
            else:
                assert "style" in span
        assert seen_pos and seen_neg
        assert unshaded_tokens == zero_tokens


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
