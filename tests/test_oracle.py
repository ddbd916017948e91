import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktae import ContingencyTable as CT
from ktae import KtaeConfig, Rollout, RolloutGroup, compute_advantages, validate_group
from ktae.oracle import (
    TableTooLarge,
    brute_force_stats,
    compare_fast_vs_exact,
    fisher_exact_rational,
    fisher_two_sided_enum,
    reference_advantages,
)
from ktae import stats

from conftest import rollout_groups


class TestFisherExactRational:
    def test_perfect_split(self):
        assert fisher_exact_rational(CT(4, 0, 0, 4)) == Fraction(1, 70)

    def test_mixed_split_reduces_to_lowest_terms(self):
        result = fisher_exact_rational(CT(3, 1, 1, 3))
        assert result == Fraction(16, 70) == Fraction(8, 35)
        assert result.denominator == 35

    def test_degenerate_row_cancels_to_one(self):
        assert fisher_exact_rational(CT(9, 5, 0, 0)) == Fraction(1)

    def test_rejects_tables_beyond_bound(self):
        with pytest.raises(TableTooLarge):
            fisher_exact_rational(CT(40, 40, 0, 0))

    def test_sums_to_one_over_fixed_margins(self):
        # the point probabilities of all same-margin tables form a distribution
        from ktae.oracle import same_margin_tables

        total = sum(fisher_exact_rational(t) for t in same_margin_tables(CT(3, 2, 4, 5)))
        assert total == Fraction(1)


class TestFisherTwoSidedEnum:
    def test_uniform_table_collects_all_mass(self):
        assert fisher_two_sided_enum(CT(2, 2, 2, 2)) == Fraction(1)

    def test_unique_minimum_equals_own_probability(self):
        table = CT(0, 3, 5, 0)
        assert fisher_two_sided_enum(table) == fisher_exact_rational(table)

    def test_perfect_split_includes_tied_corner(self):
        # margins (4,4)/(4,4): a=0 and a=4 tie at 1/70 each
        assert fisher_two_sided_enum(CT(4, 0, 0, 4)) == Fraction(2, 70) == Fraction(1, 35)


class TestBruteForceStats:
    def group(self):
        rollouts = (
            Rollout(tokens=(1, 2, 2, 3), reward=1.0),
            Rollout(tokens=(2, 4), reward=1.0),
            Rollout(tokens=(5, 6), reward=0.0),
        )
        return validate_group(RolloutGroup("g", rollouts))

    def test_absent_token(self):
        assert brute_force_stats(self.group(), 99) == CT(0, 0, 2, 1)

    def test_token_in_every_rollout(self):
        rollouts = tuple(Rollout(tokens=(7, i), reward=float(i < 2)) for i in range(4))
        group = validate_group(RolloutGroup("g", rollouts))
        assert brute_force_stats(group, 7) == CT(2, 2, 0, 0)

    def test_presence_counts_rollouts_not_occurrences(self):
        # token 2 occurs twice in one rollout but still counts one rollout
        assert brute_force_stats(self.group(), 2) == CT(2, 0, 0, 1)

    @given(rollout_groups())
    @settings(max_examples=200)
    def test_pipeline_tables_match_naive_scans(self, group):
        group = validate_group(group)
        matrix = compute_advantages(group)
        for token, stats in matrix.token_stats.items():
            assert stats.table == brute_force_stats(group, token)

    def test_pipeline_tables_match_naive_scans_bulk(self):
        import numpy as np

        from conftest import random_group

        rng = np.random.default_rng(404)
        for i in range(1000):
            group = validate_group(random_group(rng, f"bulk-{i}"))
            matrix = compute_advantages(group)
            for token, stats in matrix.token_stats.items():
                assert stats.table == brute_force_stats(group, token)


@st.composite
def reference_cases(draw):
    """A small group and a config. Graded rewards sit on a 1/8 grid, so the
    reward variance is either zero or far above std_epsilon and the baseline
    is well conditioned (the tiny-variance guard has its own tests)."""
    graded = draw(st.booleans())
    rollouts = []
    for _ in range(draw(st.integers(2, 8))):
        tokens = tuple(draw(st.lists(st.integers(0, 9), min_size=1, max_size=12)))
        reward = draw(st.integers(0, 8)) / 8 if graded else float(draw(st.integers(0, 1)))
        rollouts.append(Rollout(tokens=tokens, reward=reward))
    threshold = draw(st.floats(0.0, 1.0)) if graded else 0.5
    config = KtaeConfig(
        h1=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        h2=draw(st.sampled_from([0.0, 2.0, 3.5])),
        h3=draw(st.sampled_from([0.0, 1.0, 2.5])),
        k1=draw(st.sampled_from([0.5, 2.0, 3.0])),
        b=draw(st.sampled_from([0.0, 0.5, 1.0])),
        tf_floor=draw(st.sampled_from([1e-6, 0.1])),
        fisher_mode=draw(st.sampled_from(["point", "two_sided"])),
    )
    return RolloutGroup("ref", tuple(rollouts), correctness_threshold=threshold), config


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


class TestReferenceAdvantages:
    @given(reference_cases())
    @settings(max_examples=300)
    def test_pipeline_matches_the_per_token_reference(self, case):
        group, config = case
        matrix = compute_advantages(group, config)
        ref = reference_advantages(group, config)
        assert list(matrix.token_stats) == list(ref.token_stats)
        for token, want in ref.token_stats.items():
            got = matrix.token_stats[token]
            assert got.table == want.table
            assert (got.tf_true, got.tf_false) == (want.tf_true, want.tf_false)
            for name in ("fisher_p", "fisher_score", "info_gain", "tf_score_true", "tf_score_false",
                         "direction", "key_token_value"):
                assert _close(getattr(got, name), getattr(want, name)), (token, name)
        assert all(map(_close, matrix.rollout_advantages.tolist(), ref.rollout_advantages))
        for i, rollout in enumerate(group.rollouts):
            delta = matrix.token_advantages[i] - matrix.rollout_advantages[i]
            assert [np.sign(x) for x in delta] == [np.sign(ref.deltas[t]) for t in rollout.tokens]
            assert all(map(_close, matrix.token_advantages[i].tolist(), ref.token_advantages[i]))

    def test_planted_split_by_hand(self):
        rollouts = (Rollout((1, 7), 1.0), Rollout((1, 7, 7), 1.0), Rollout((1, 2), 0.0), Rollout((3,), 0.0))
        ref = reference_advantages(RolloutGroup("hand", rollouts))
        assert ref.rollout_advantages == (1.0, 1.0, -1.0, -1.0)
        seven = ref.token_stats[7]
        assert seven.table == CT(2, 0, 0, 2)
        assert (seven.tf_true, seven.tf_false) == (3, 0)
        assert seven.fisher_p == 1 / 6
        assert seven.info_gain == 1.0
        assert ref.deltas[7] > 0 > ref.deltas[2]
        one = ref.token_stats[1]
        assert one.table == CT(2, 1, 0, 1) and one.key_token_value > 0
        assert ref.token_advantages[1] == (1.0 + ref.deltas[1], 1.0 + ref.deltas[7], 1.0 + ref.deltas[7])


class TestCompareFastVsExact:
    def test_small_exhaustive_within_tolerance(self):
        worst, _ = compare_fast_vs_exact(8)
        assert worst <= 1e-9

    def test_rejects_bounds_beyond_exact_range(self):
        with pytest.raises(TableTooLarge):
            compare_fast_vs_exact(65)

    def test_vacuous_range_reports_zero_error(self):
        worst, table = compare_fast_vs_exact(0)
        assert worst == 0.0
        assert table is None

    def test_perturbed_log_gamma_is_caught_with_a_counterexample(self, monkeypatch):
        values = stats._ln_factorials(64).copy()
        values[3] += 1e-6  # corrupt ln 3!
        monkeypatch.setattr(stats, "_ln_factorial", values)
        worst, table = compare_fast_vs_exact(8)
        assert worst > 1e-9
        assert table is not None
        assert table.n <= 8
