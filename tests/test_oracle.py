import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktae import KtaeConfig, Rollout, RolloutGroup, compute_advantages
from ktae.advantage import _snap_to_group_grid, token_stats
from ktae.core import DomainError
from ktae.oracle import ContingencyTable as CT
from ktae.oracle import (
    brute_force_stats,
    compare_fast_vs_exact,
    fisher_exact_rational,
    fisher_two_sided_enum,
    reference_advantages,
)
from ktae import stats

from conftest import at_one, fisher_p, rollout_groups, table_at


class TestFisherExactRational:
    def test_perfect_split(self):
        assert fisher_exact_rational(CT(4, 0, 0, 4)) == Fraction(1, 70)

    def test_mixed_split_reduces_to_lowest_terms(self):
        result = fisher_exact_rational(CT(3, 1, 1, 3))
        assert result == Fraction(16, 70) == Fraction(8, 35)
        assert result.denominator == 35

    def test_degenerate_row_cancels_to_one(self):
        assert fisher_exact_rational(CT(9, 5, 0, 0)) == Fraction(1)

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError, match="contingency counts must be non-negative"):
            fisher_exact_rational(CT(3, -1, 2, 2))

    def test_sums_to_one_over_fixed_margins(self):
        # the point probabilities of all same-margin tables form a distribution
        from ktae.oracle import same_margin_tables

        total = sum(fisher_exact_rational(t) for t in same_margin_tables(CT(3, 2, 4, 5)))
        assert total == Fraction(1)

    def test_table_beyond_the_sweep_bound(self):
        from ktae.oracle import same_margin_tables

        table = CT(30, 20, 25, 25)  # n = 100, past MAX_EXACT_N
        assert fisher_exact_rational(table) == Fraction(comb(50, 30) * comb(50, 25), comb(100, 55))
        assert sum(fisher_exact_rational(t) for t in same_margin_tables(table)) == Fraction(1)


class TestFisherTwoSidedEnum:
    def test_uniform_table_collects_all_mass(self):
        assert fisher_two_sided_enum(CT(2, 2, 2, 2)) == Fraction(1)

    def test_unique_minimum_equals_own_probability(self):
        table = CT(0, 3, 5, 0)
        assert fisher_two_sided_enum(table) == fisher_exact_rational(table)

    def test_perfect_split_includes_tied_corner(self):
        # margins (4,4)/(4,4): a=0 and a=4 tie at 1/70 each
        assert fisher_two_sided_enum(CT(4, 0, 0, 4)) == Fraction(2, 70) == Fraction(1, 35)

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError, match="contingency counts must be non-negative"):
            fisher_two_sided_enum(CT(3, -1, 2, 2))

    @pytest.mark.parametrize("table", [CT(80, 48, 40, 88), CT(64, 64, 64, 64)], ids=["skewed", "uniform"])
    def test_table_beyond_the_sweep_bound_matches_the_fast_kernel(self, table):
        assert table.n == 256
        assert at_one(fisher_p, table, fisher_mode="two_sided") == float(fisher_two_sided_enum(table))


class TestBruteForceStats:
    def group(self):
        rollouts = (
            Rollout(tokens=(1, 2, 2, 3), reward=1.0),
            Rollout(tokens=(2, 4), reward=1.0),
            Rollout(tokens=(5, 6), reward=0.0),
        )
        return RolloutGroup("g", rollouts)

    def test_absent_token(self):
        assert brute_force_stats(self.group(), 99) == CT(0, 0, 2, 1)

    def test_token_in_every_rollout(self):
        rollouts = tuple(Rollout(tokens=(7, i), reward=float(i < 2)) for i in range(4))
        group = RolloutGroup("g", rollouts)
        assert brute_force_stats(group, 7) == CT(2, 2, 0, 0)

    def test_presence_counts_rollouts_not_occurrences(self):
        # token 2 occurs twice in one rollout but still counts one rollout
        assert brute_force_stats(self.group(), 2) == CT(2, 0, 0, 1)

    @given(rollout_groups())
    @settings(max_examples=200)
    def test_pipeline_tables_match_naive_scans(self, group):
        s = token_stats(group)
        for token in s.tokens.tolist():
            assert table_at(s, token) == brute_force_stats(group, token)

    def test_pipeline_tables_match_naive_scans_bulk(self):
        import numpy as np

        from conftest import random_group

        rng = np.random.default_rng(404)
        for i in range(1000):
            group = random_group(rng, f"bulk-{i}")
            s = token_stats(group)
            for token in s.tokens.tolist():
                assert table_at(s, token) == brute_force_stats(group, token)


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


def _group_of(rewards):
    return RolloutGroup("ref", tuple(Rollout(tokens=(1, 2 + i), reward=r) for i, r in enumerate(rewards)))


class TestReferenceAdvantages:
    @given(reference_cases())
    @settings(max_examples=300)
    # Rewards whose moments overflow float64: both sides divide them by their largest magnitude.
    @example((_group_of([0.0, 1e300]), KtaeConfig()))
    @example((_group_of([-1.5e308, 1.5e308]), KtaeConfig()))
    @example((_group_of([1.7e308, 1.7e308, -1e308]), KtaeConfig()))
    # Token 1 has a = b = 2 and TF scores 8/4.4 and 12/6.6, so its true
    # direction is 0; rounding leaves a reference delta of -5.55e-17, below
    # half the group's grid step, and the pipeline emits 0.0.
    @example((RolloutGroup("ref", tuple(Rollout(tokens, r) for tokens, r in (
        ((0,) * 9, 0.0), ((0,) * 12, 0.0), ((0,) * 12, 1.0), ((0,) * 11 + (1,), 0.0), ((0,) * 5, 1.0),
        ((0,) * 10 + (1, 1), 0.0), ((0, 0, 0, 1), 1.0), ((0,) * 8 + (1,), 1.0)))),
        KtaeConfig(h1=0.5, h2=0.0, k1=3.0, b=1.0)))
    def test_pipeline_matches_the_per_token_reference(self, case):
        group, config = case
        matrix = compute_advantages(group, config)
        ref = reference_advantages(group, config)
        got, want = token_stats(group, config), ref.token_stats
        for name in ("tokens", "a", "b", "c", "d", "tf_true", "tf_false"):
            assert getattr(got, name).dtype == getattr(want, name).dtype == np.int64, name
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.fisher_p.tobytes() == want.fisher_p.tobytes()  # both the correctly rounded rational
        for name in ("fisher_p", "fisher_score", "info_gain", "tf_score_true", "tf_score_false",
                     "direction", "key_token_value"):
            assert getattr(got, name).dtype == getattr(want, name).dtype == np.float64, name
            for token, g, w in zip(want.tokens.tolist(), getattr(got, name).tolist(), getattr(want, name).tolist()):
                assert _close(g, w), (token, name)
        assert all(map(_close, matrix.rollout_advantages.tolist(), ref.rollout_advantages))
        # A reference delta that rounds to 0 on the group's grid must be emitted as exactly 0.0.
        ref_snapped = _snap_to_group_grid(matrix.rollout_advantages, ref.deltas)[1]
        for i, rollout in enumerate(group.rollouts):
            delta = matrix.token_advantages[i] - matrix.rollout_advantages[i]
            rows = [want.index(t) for t in rollout.tokens]
            assert [np.sign(x) for x in delta] == [np.sign(ref.deltas[j]) if ref_snapped[j] else 0.0 for j in rows]
            assert all(map(_close, matrix.token_advantages[i].tolist(), ref.token_advantages[i]))

    def test_planted_split_by_hand(self):
        rollouts = (Rollout((1, 7), 1.0), Rollout((1, 7, 7), 1.0), Rollout((1, 2), 0.0), Rollout((3,), 0.0))
        ref = reference_advantages(RolloutGroup("hand", rollouts))
        assert ref.rollout_advantages == (1.0, 1.0, -1.0, -1.0)
        s = ref.token_stats
        assert s.tokens.tolist() == [1, 2, 3, 7]
        assert ref.deltas.dtype == np.float64 and ref.deltas.shape == s.tokens.shape
        assert not ref.deltas.flags.writeable
        one, seven = s.index(1), s.index(7)
        assert table_at(s, 7) == CT(2, 0, 0, 2)
        assert (s.tf_true[seven], s.tf_false[seven]) == (3, 0)
        assert s.fisher_p[seven] == 1 / 6
        assert s.info_gain[seven] == 1.0
        assert ref.deltas[seven] > 0 > ref.deltas[s.index(2)]
        assert table_at(s, 1) == CT(2, 1, 0, 1) and s.key_token_value[one] > 0
        assert ref.token_advantages[1] == (1.0 + ref.deltas[one], 1.0 + ref.deltas[seven], 1.0 + ref.deltas[seven])


class TestCompareFastVsExact:
    def test_small_exhaustive_within_tolerance(self):
        worst, _ = compare_fast_vs_exact(8)
        assert worst <= 2**-53  # correctly rounded

    def test_rejects_bounds_beyond_exact_range(self):
        with pytest.raises(DomainError, match="max_n 65 exceeds exact bound 64"):
            compare_fast_vs_exact(65)

    def test_vacuous_range_reports_zero_error(self):
        worst, table = compare_fast_vs_exact(0)
        assert worst == 0.0
        assert table is None

    def test_a_corrupted_p_is_reported_with_its_table(self, monkeypatch):
        exact = stats.fisher_prob_array

        def corrupted(n_true, n_false, a, b, fisher_mode):
            p = exact(n_true, n_false, a, b, fisher_mode)
            if (n_true, n_false) == (3, 5):
                p[(a == 1) & (b == 2)] *= 1.0 + 1e-6  # the one table (1, 2, 2, 3)
            return p

        monkeypatch.setattr(stats, "fisher_prob_array", corrupted)
        worst, table = compare_fast_vs_exact(8)
        assert 1e-9 < worst < 2e-6
        assert table == CT(1, 2, 2, 3)
