import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ktae import KtaeConfig, Rollout, RolloutGroup, compute_advantages
from ktae.core import DomainError
from ktae.frequency import cohen_h_array, frequency_term_array, tf_score_array
from ktae.oracle import ContingencyTable as CT
from ktae.oracle import raw_term_frequencies

from conftest import at_one, contingency_tables


def build_group(correct_tokens, incorrect_tokens):
    rollouts = [Rollout(tokens=tuple(t), reward=1.0) for t in correct_tokens]
    rollouts += [Rollout(tokens=tuple(t), reward=0.0) for t in incorrect_tokens]
    return RolloutGroup("g", tuple(rollouts))


def direction_score(table, tf_score_true, tf_score_false, h3=1.0, tf_floor=1e-6):
    """One token's direction as the pipeline forms it: Cohen's h plus the frequency term."""
    frequency_term = at_one(frequency_term_array, tf_score_true, tf_score_false, h3=h3, tf_floor=tf_floor)
    return at_one(cohen_h_array, table) + frequency_term


class TestRawTermFrequencies:
    def test_absent_token(self):
        group = build_group([(1, 2)], [(3, 4)])
        assert raw_term_frequencies(group, 99) == (0, 0)

    def test_counts_every_occurrence_on_the_correct_side(self):
        group = build_group([(7, 7, 1), (7, 2)], [(3,)])
        assert raw_term_frequencies(group, 7) == (3, 0)

    def test_once_per_rollout(self):
        group = build_group([(5, 10 + i) for i in range(12)], [(5, 90 + i) for i in range(4)])
        assert raw_term_frequencies(group, 5) == (12, 4)


class TestGroupLengths:
    """compute_advantages scores each side's counts against that side's mean
    rollout length, relative to the mean over the whole group."""

    @staticmethod
    def expected_tf_scores(group, len_true, len_false, len_avg, config):
        s = compute_advantages(group, config).token_stats
        return s, (
            tf_score_array(s.tf_true, len_true, len_avg, config.k1, config.b),
            tf_score_array(s.tf_false, len_false, len_avg, config.k1, config.b),
        )

    def test_side_means(self):
        group = build_group([(1, 2, 3, 4), (1, 2)], [(9, 9, 9, 9, 9, 9)])
        config = KtaeConfig(b=1.0)
        s, (true, false) = self.expected_tf_scores(group, 3.0, 6.0, 4.0, config)
        assert s.tf_score_true.tobytes() == true.tobytes()
        assert s.tf_score_false.tobytes() == false.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_side_falls_back_to_group_mean(self):
        group = build_group([(1, 2), (1, 2, 3, 4)], [])
        s, (true, false) = self.expected_tf_scores(group, 3.0, 3.0, 3.0, KtaeConfig())
        assert s.tf_score_true.tobytes() == true.tobytes()
        assert s.tf_score_false.tobytes() == false.tobytes()
        assert not s.tf_score_false.any()


class TestTfScore:
    def test_zero_count_scores_zero(self):
        assert at_one(tf_score_array, 0, 10.0, 10.0, 2.0, 0.5) == 0.0

    def test_saturates_toward_k1_plus_one(self):
        assert at_one(tf_score_array, 10**9, 10.0, 10.0, 2.0, 0.5) == pytest.approx(3.0, abs=1e-6)
        assert at_one(tf_score_array, 10**9, 10.0, 10.0, 2.0, 0.5) < 3.0

    def test_neutral_length_anchor(self):
        # (2+1)*5 / (2*(1 - 0.5 + 0.5) + 5) = 15/7
        assert at_one(tf_score_array, 5, 10.0, 10.0, 2.0, 0.5) == pytest.approx(15.0 / 7.0, rel=1e-15)

    def test_rejects_non_positive_average_length(self):
        with pytest.raises(DomainError):
            at_one(tf_score_array, 3, 10.0, 0.0, 2.0, 0.5)

    @given(st.integers(0, 10_000), st.integers(1, 10_001), st.floats(1.0, 50.0), st.floats(1.0, 50.0))
    def test_monotone_and_bounded(self, tf_low, bump, len_side, len_avg):
        low = at_one(tf_score_array, tf_low, len_side, len_avg, 2.0, 0.5)
        high = at_one(tf_score_array, tf_low + bump, len_side, len_avg, 2.0, 0.5)
        assert low < high < 3.0

    def test_array_version_matches_scalar(self):
        tfs = np.array([0, 1, 4, 50], dtype=np.int64)
        out = tf_score_array(tfs, 8.0, 10.0, 2.0, 0.5)
        for tf, v in zip(tfs.tolist(), out.tolist()):
            assert v == at_one(tf_score_array, tf, 8.0, 10.0, 2.0, 0.5)


class TestDirectionScore:
    def test_balanced_token_scores_zero(self):
        assert direction_score(CT(2, 2, 2, 2), 1.5, 1.5) == 0.0

    def test_exclusive_token_is_dominated_by_the_ratio_term(self):
        value = direction_score(CT(4, 0, 0, 4), 2.0, 0.0, h3=1.0, tf_floor=1e-6)
        expected = math.pi / 2 + (2.0 / 1e-6 - 1e-6 / 2.0)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value > 0

    def test_cohen_term_alone_is_bounded_by_half_pi(self):
        for table in (CT(4, 0, 0, 4), CT(0, 4, 4, 0), CT(3, 1, 2, 2), CT(1, 5, 7, 2)):
            # equal tf scores cancel the ratio term exactly
            value = direction_score(table, 1.0, 1.0)
            assert abs(value) <= math.pi / 2

    def test_empty_sides_contribute_zero_arcsin_terms(self):
        # all-correct group: second proportion undefined, treated as 0
        value = direction_score(CT(3, 0, 1, 0), 1.0, 1.0)
        assert value == pytest.approx(math.asin(math.sqrt(3 / 4)), rel=1e-15)

    @given(contingency_tables(), st.floats(0.01, 3.0), st.floats(0.01, 3.0), st.floats(0.0, 2.0))
    @settings(max_examples=1000)
    def test_swap_antisymmetry(self, table, tf_true, tf_false, h3):
        forward = direction_score(table, tf_true, tf_false, h3=h3)
        backward = direction_score(CT(table.b, table.a, table.d, table.c), tf_false, tf_true, h3=h3)
        assert backward == pytest.approx(-forward, abs=1e-9)

    @given(contingency_tables(), st.floats(0.01, 3.0), st.floats(0.01, 3.0))
    def test_sign_follows_the_favored_side(self, table, tf_one, tf_two):
        a, b, c, d = table
        assume(a + c > 0 and b + d > 0)
        assume(a / (a + c) != b / (b + d) and tf_one != tf_two)
        if a / (a + c) < b / (b + d):
            a, b, c, d = b, a, d, c
        tf_hi, tf_lo = max(tf_one, tf_two), min(tf_one, tf_two)
        assert direction_score(CT(a, b, c, d), tf_hi, tf_lo) > 0
        assert direction_score(CT(b, a, d, c), tf_lo, tf_hi) < 0

    def test_array_version_matches_scalar(self):
        tables = [CT(4, 0, 0, 4), CT(1, 2, 3, 4), CT(0, 4, 4, 0), CT(2, 2, 2, 2)]
        arrays = [np.array(col, dtype=np.int64) for col in zip(*tables)]
        tfs_t = np.array([2.0, 0.5, 0.0, 1.0])
        tfs_f = np.array([0.0, 1.5, 2.5, 1.0])
        out = cohen_h_array(*arrays) + frequency_term_array(tfs_t, tfs_f, 1.0, 1e-6)
        for i, table in enumerate(tables):
            assert out[i] == direction_score(table, float(tfs_t[i]), float(tfs_f[i]))
