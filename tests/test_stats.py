import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from ktae.oracle import ContingencyTable as CT
from ktae.oracle import all_tables_with_total, fisher_exact_rational, fisher_two_sided_enum
from ktae.stats import binary_entropy_from_counts, fisher_prob_array, fisher_score_array, info_gain_array

from conftest import at_one, contingency_tables, fisher_p


def cond_entropy(table):
    """Correctness entropy given token occurrence, as H(Y) minus the gain
    (valid where the gain is not clamped at 0)."""
    h_y = at_one(binary_entropy_from_counts, table.a + table.c, table.n)
    return h_y - at_one(info_gain_array, table)


# Frozen from exact rational arithmetic: 1/70 and 16/70 (see test_oracle).
P_4004 = 1.0 / 70.0
P_3113 = 16.0 / 70.0
# Frozen from direct evaluation of the binary entropy at 3/4.
H_THREE_QUARTERS = 0.8112781244591328


class TestFisherPointProb:
    def test_token_in_every_rollout_gives_one(self):
        # both binomial factors cancel against the denominator
        assert at_one(fisher_p, CT(5, 3, 0, 0)) == 1.0
        assert at_one(fisher_p, CT(0, 0, 5, 3)) == 1.0

    def test_perfect_split_matches_rational_oracle(self):
        assert at_one(fisher_p, CT(4, 0, 0, 4)) == P_4004

    def test_mixed_split_matches_rational_oracle(self):
        assert at_one(fisher_p, CT(3, 1, 1, 3)) == P_3113

    def test_exhaustive_agreement_with_oracle_up_to_n10(self):
        for n in range(1, 11):
            for table in all_tables_with_total(n):
                assert at_one(fisher_p, table) == float(fisher_exact_rational(table)), table

    @given(contingency_tables())
    def test_in_unit_interval(self, table):
        p = at_one(fisher_p, table)
        assert 0.0 < p <= 1.0

    @given(contingency_tables())
    def test_column_swap_invariance(self, table):
        swapped = at_one(fisher_p, CT(table.b, table.a, table.d, table.c))
        assert at_one(fisher_p, table) == swapped

    def test_large_margin_is_the_rounded_rational(self):
        table = CT(300, 0, 0, 300)
        assert at_one(fisher_p, table) == float(Fraction(1, math.comb(600, 300))) == float(fisher_exact_rational(table))

    def test_underflow_is_floored_at_the_smallest_double(self):
        # 1 / C(1200, 600) is about 1e-360, below the smallest subnormal
        for fisher_mode in ("point", "two_sided"):
            assert at_one(fisher_p, CT(600, 0, 0, 600), fisher_mode=fisher_mode) == math.nextafter(0.0, 1.0)


class TestFisherScore:
    def test_no_association_scores_zero(self):
        assert at_one(fisher_score_array, 1.0) == 0.0

    def test_score_approaches_one_for_tiny_p(self):
        assert at_one(fisher_score_array, 1e-12) >= 1.0 - 1e-11
        assert at_one(fisher_score_array, 1e-12) < 1.0
        assert at_one(fisher_score_array, 1e-300) <= 1.0  # float saturates at the open bound

    def test_known_value(self):
        assert at_one(fisher_score_array, P_4004) == pytest.approx(math.exp(-2.0 / 70.0), rel=1e-15)

    def test_range_is_zero_or_above_exp_minus_two(self):
        for p in (1e-9, 0.01, 0.3, 1.0 - 1e-10):
            score = at_one(fisher_score_array, p)
            assert math.exp(-2.0) < score < 1.0

    def test_tolerance_band_around_one(self):
        assert at_one(fisher_score_array, 1.0 + 1e-13) == 0.0
        assert at_one(fisher_score_array, 1.0 - 1e-13) == 0.0

    def test_array_version_matches_scalar(self):
        # a batch gives each element what a one-element call gives
        ps = np.array([1e-6, 0.2, 0.5, 1.0])
        out = fisher_score_array(ps)
        for p, v in zip(ps, out):
            assert v == at_one(fisher_score_array, float(p))


class TestEntropy:
    def test_even_split_is_one_bit(self):
        assert at_one(binary_entropy_from_counts, 4, 8) == 1.0

    def test_pure_group_is_zero(self):
        assert at_one(binary_entropy_from_counts, 8, 8) == 0.0

    def test_three_quarters_split(self):
        # n_true=6, n_false=2
        assert at_one(binary_entropy_from_counts, 6, 8) == pytest.approx(H_THREE_QUARTERS, abs=1e-15)

    def test_cond_entropy_pure_branches(self):
        assert cond_entropy(CT(4, 0, 0, 4)) == 0.0

    def test_cond_entropy_uniform_branches(self):
        assert cond_entropy(CT(2, 2, 2, 2)) == 1.0

    def test_cond_entropy_mixture(self):
        # 0.5 * H(3/4) + 0.5 * H(1/4)
        assert cond_entropy(CT(3, 1, 1, 3)) == pytest.approx(H_THREE_QUARTERS, abs=1e-15)


class TestInfoGain:
    def test_perfect_separation(self):
        assert at_one(info_gain_array, CT(4, 0, 0, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_independence(self):
        assert at_one(info_gain_array, CT(2, 2, 2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_partial_association(self):
        assert at_one(info_gain_array, CT(3, 1, 1, 3)) == pytest.approx(1.0 - H_THREE_QUARTERS, abs=1e-12)

    @given(contingency_tables())
    def test_bounds(self, table):
        ig = at_one(info_gain_array, table)
        h = at_one(binary_entropy_from_counts, table.a + table.c, table.n)
        assert 0.0 <= ig <= h + 1e-15
        assert h <= 1.0

    @given(contingency_tables())
    def test_column_swap_invariance(self, table):
        swapped = at_one(info_gain_array, CT(table.b, table.a, table.d, table.c))
        assert at_one(info_gain_array, table) == pytest.approx(swapped, abs=1e-12)

    @given(contingency_tables())
    def test_degenerate_rows_carry_no_signal(self, table):
        a, b = table.a, table.b
        if a + b == 0:
            a = 1
        assert at_one(fisher_p, CT(a, b, 0, 0)) == 1.0
        assert at_one(info_gain_array, CT(a, b, 0, 0)) == 0.0


class TestTwoSided:
    def test_uniform_table_sums_to_one(self):
        assert at_one(fisher_p, CT(2, 2, 2, 2), fisher_mode="two_sided") == 1.0

    def test_uniquely_least_likely_table_equals_its_point_probability(self):
        # for margins rows=(3,5), cols=(5,3) the observed table is the unique minimum
        table = CT(0, 3, 5, 0)
        assert fisher_two_sided_enum(table) == fisher_exact_rational(table)
        assert at_one(fisher_p, table, fisher_mode="two_sided") == float(fisher_exact_rational(table))

    def test_perfect_split_includes_the_tied_opposite_corner(self):
        assert at_one(fisher_p, CT(4, 0, 0, 4), fisher_mode="two_sided") == float(Fraction(1, 35))

    def test_exhaustive_agreement_with_enumeration_oracle_up_to_n9(self):
        for n in range(1, 10):
            for table in all_tables_with_total(n):
                exact = float(fisher_two_sided_enum(table))
                assert at_one(fisher_p, table, fisher_mode="two_sided") == exact, table

    @given(contingency_tables(max_cell=8))
    @settings(max_examples=60)
    def test_at_least_point_probability_and_at_most_one(self, table):
        point = at_one(fisher_p, table)
        two_sided = at_one(fisher_p, table, fisher_mode="two_sided")
        assert point <= two_sided <= 1.0


def test_kernels_map_empty_tables_to_empty_float_arrays():
    empty = np.array([], dtype=np.int64)
    for out in (fisher_prob_array(3, 5, empty, empty, "point"),
                fisher_prob_array(3, 5, empty, empty, "two_sided"),
                fisher_score_array(np.array([], dtype=np.float64)),
                info_gain_array(empty, empty, empty, empty)):
        assert out.dtype == np.float64 and out.shape == (0,)
