import math

import numpy as np
import pytest
from hypothesis import given, settings

from ktae import ContingencyTable as CT
from ktae import (
    DegenerateGroup,
    EmptyGroup,
    InvalidReward,
    KtaeConfig,
    Rollout,
    RolloutGroup,
    TooFewRollouts,
    compute_advantages,
    dapo_admissible,
    fisher_score,
    fisher_two_sided_prob,
    grpo_advantages,
    key_token_value,
    validate_group,
)
from ktae.advantage import DELTA_MAX, sigmoid, sigmoid_shift

from conftest import rollout_groups

SQRT3 = math.sqrt(3.0)


def binary_group(flags, token_lists, group_id="g"):
    rollouts = tuple(
        Rollout(tokens=tuple(tokens), reward=1.0 if flag else 0.0)
        for flag, tokens in zip(flags, token_lists)
    )
    return validate_group(RolloutGroup(group_id, rollouts))


class TestGrpoAdvantages:
    def test_balanced_binary_rewards(self):
        baseline = grpo_advantages([1.0, 1.0, 0.0, 0.0])
        assert baseline.advantages.tolist() == [1.0, 1.0, -1.0, -1.0]
        assert baseline.mean_reward == 0.5
        assert baseline.std_reward == 0.5

    def test_identical_rewards_give_exact_zeros(self):
        baseline = grpo_advantages([1.0, 1.0, 1.0, 1.0])
        assert baseline.advantages.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_single_positive_reward(self):
        # mean 1/4, population std sqrt(3)/4
        baseline = grpo_advantages([1.0, 0.0, 0.0, 0.0])
        expected = [SQRT3, -1.0 / SQRT3, -1.0 / SQRT3, -1.0 / SQRT3]
        assert baseline.advantages == pytest.approx(expected, rel=1e-12)

    def test_uses_population_std(self):
        baseline = grpo_advantages([2.0, 0.0])
        assert baseline.std_reward == 1.0

    def test_rejects_short_groups(self):
        with pytest.raises(TooFewRollouts):
            grpo_advantages([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidReward):
            grpo_advantages([1.0, math.inf])

    def test_rejects_rewards_whose_moments_overflow(self):
        with pytest.raises(InvalidReward):
            grpo_advantages([1.7e308, 1.7e308, -1.0e308])

    def test_tiny_variance_is_guarded_not_zeroed(self):
        baseline = grpo_advantages([0.0, 1e-12], std_epsilon=1e-8)
        assert baseline.advantages[1] > 0
        assert np.isfinite(baseline.advantages).all()


class TestDapoAdmissible:
    def test_mixed_group(self):
        group = binary_group([True] * 12 + [False] * 4, [(1,)] * 16)
        assert dapo_admissible(group)

    def test_all_correct(self):
        assert not dapo_admissible(binary_group([True] * 16, [(1,)] * 16))

    def test_all_incorrect(self):
        assert not dapo_admissible(binary_group([False] * 16, [(1,)] * 16))


class TestKeyTokenValue:
    def test_zero_strength_kills_any_direction(self):
        assert key_token_value(0.0, 0.0, 123.4) == 0.0

    def test_plain_multiplication(self):
        assert key_token_value(1.5, 0.0, -0.8, h1=1.0, h2=2.0) == pytest.approx(-1.2, rel=1e-15)

    def test_composed_perfect_split_factors(self):
        # F and IG of table (4,0,0,4) composed with a half-pi direction
        value = key_token_value(fisher_score(1.0 / 70.0), 1.0, math.pi / 2)
        assert value == pytest.approx(4.6681441639501235, rel=1e-12)
        assert value == pytest.approx((math.exp(-2.0 / 70.0) + 2.0) * math.pi / 2, rel=1e-15)

    def test_sign_tracks_direction_when_strength_positive(self):
        assert key_token_value(0.5, 0.5, -2.0) < 0
        assert key_token_value(0.5, 0.5, 2.0) > 0


class TestSigmoid:
    def test_midpoint_is_exact(self):
        assert float(sigmoid(np.array([0.0]))[0]) == 0.5
        assert float(sigmoid_shift(np.array([0.0]))[0]) == 0.0

    def test_shift_is_strictly_inside_half_unit(self):
        extremes = sigmoid_shift(np.array([-1e9, -50.0, 0.0, 50.0, 1e9]))
        assert np.all(np.abs(extremes) < 0.5)
        assert float(extremes[-1]) == DELTA_MAX
        assert float(extremes[0]) == -DELTA_MAX

    def test_matches_logistic_in_the_stable_range(self):
        xs = np.linspace(-30, 30, 101)
        expected = 1.0 / (1.0 + np.exp(-xs))
        assert sigmoid(xs) == pytest.approx(expected, rel=1e-12)


class TestComputeAdvantages:
    def test_token_in_every_rollout_keeps_the_baseline_exactly(self):
        group = binary_group([True, True, False], [(9, 1), (9, 2), (9, 3)])
        matrix = compute_advantages(group)
        for i in range(3):
            # position 0 holds the everywhere-token
            assert matrix.token_advantages[i][0] == matrix.rollout_advantages[i]
        assert matrix.token_stats[9].key_token_value == 0.0
        assert matrix.token_stats[9].table == CT(2, 1, 0, 0)

    def test_exclusive_tokens_get_signed_deltas(self):
        group = binary_group(
            [True, True, True, False],
            [(1, 7), (2, 7), (3, 7), (4, 8)],
        )
        matrix = compute_advantages(group)
        delta_pos = matrix.token_advantages[0][1] - matrix.rollout_advantages[0]
        delta_neg = matrix.token_advantages[3][1] - matrix.rollout_advantages[3]
        assert delta_pos > 0
        assert delta_neg < 0

    def test_degenerate_all_correct_zeros_policy(self):
        group = binary_group([True] * 4, [(1, 2), (1, 3), (2, 4), (5,)])
        matrix = compute_advantages(group)
        assert matrix.rollout_advantages.tolist() == [0.0] * 4
        for row in matrix.token_advantages:
            assert np.all(row == 0.0)
        assert all(s.key_token_value == 0.0 for s in matrix.token_stats.values())

    def test_degenerate_all_incorrect_zeros_policy(self):
        group = binary_group([False] * 3, [(1,), (2,), (3,)])
        matrix = compute_advantages(group)
        assert matrix.rollout_advantages.tolist() == [0.0] * 3
        assert all(np.all(row == 0.0) for row in matrix.token_advantages)

    def test_degenerate_graded_rewards_keep_baseline(self):
        # all correct but rewards differ: key-token-values still vanish,
        # so token advantages collapse onto the (nonzero) baseline
        rollouts = (Rollout(tokens=(1, 2), reward=0.9), Rollout(tokens=(1, 3), reward=0.7))
        matrix = compute_advantages(validate_group(RolloutGroup("g", rollouts)))
        assert not np.all(matrix.rollout_advantages == 0.0)
        for i, row in enumerate(matrix.token_advantages):
            assert np.all(row == matrix.rollout_advantages[i])

    def test_degenerate_error_policy_raises(self):
        group = binary_group([True] * 3, [(1,), (2,), (3,)])
        with pytest.raises(DegenerateGroup):
            compute_advantages(group, KtaeConfig(degenerate_policy="error"))

    def test_error_policy_accepts_mixed_groups(self):
        group = binary_group([True, False], [(1,), (2,)])
        matrix = compute_advantages(group, KtaeConfig(degenerate_policy="error"))
        assert len(matrix.token_advantages) == 2

    def test_validation_errors_propagate(self):
        with pytest.raises(EmptyGroup):
            compute_advantages(RolloutGroup("g", (Rollout(tokens=(1,), reward=1.0),)))

    def test_deterministic_across_runs(self):
        group = binary_group(
            [True, True, False, False],
            [(5, 3, 5, 1), (2, 2, 9), (3, 1, 4, 1, 5), (8, 8)],
        )
        first = compute_advantages(group)
        second = compute_advantages(group)
        assert np.array_equal(first.rollout_advantages, second.rollout_advantages)
        for a, b in zip(first.token_advantages, second.token_advantages):
            assert np.array_equal(a, b)
        assert first.token_stats == second.token_stats

    def test_two_sided_mode_matches_scalar_two_sided(self):
        group = binary_group(
            [True, True, False, False],
            [(1, 2), (1, 3), (2, 4), (5, 1)],
        )
        matrix = compute_advantages(group, KtaeConfig(fisher_mode="two_sided"))
        for token, stats in matrix.token_stats.items():
            assert stats.fisher_p == pytest.approx(fisher_two_sided_prob(stats.table), rel=1e-12)
            assert 0.0 < stats.fisher_p <= 1.0

    def test_matrix_shapes_match_the_group(self):
        group = binary_group([True, False], [(1, 2, 3), (4, 5)])
        matrix = compute_advantages(group)
        assert len(matrix.token_advantages[0]) == 3
        assert len(matrix.token_advantages[1]) == 2
        assert matrix.rollout_advantages.shape == (2,)

    @given(rollout_groups())
    @settings(max_examples=300)
    def test_bounded_perturbation_and_per_type_uniformity(self, group):
        group = validate_group(group)
        matrix = compute_advantages(group)
        seen: dict[int, float] = {}
        for rollout, row, base in zip(group.rollouts, matrix.token_advantages, matrix.rollout_advantages):
            deltas = row - base
            assert np.all(np.abs(deltas) < 0.5)
            for token, delta in zip(rollout.tokens, deltas.tolist()):
                assert seen.setdefault(token, delta) == delta

    @given(rollout_groups())
    @settings(max_examples=200)
    def test_reward_flip_negates_unclamped_key_token_values(self, group):
        group = validate_group(group)
        flipped = validate_group(
            RolloutGroup(
                group.group_id,
                tuple(Rollout(tokens=r.tokens, reward=1.0 - r.reward) for r in group.rollouts),
            )
        )
        ours = compute_advantages(group).token_stats
        theirs = compute_advantages(flipped).token_stats
        for token, stats in ours.items():
            other = theirs[token]
            assert other.fisher_p == pytest.approx(stats.fisher_p, abs=1e-12)
            assert other.info_gain == pytest.approx(stats.info_gain, abs=1e-12)
            if stats.tf_true > 0 and stats.tf_false > 0:  # no floor clamp on either side
                assert other.key_token_value == pytest.approx(-stats.key_token_value, abs=1e-9)


class TestTokenStatsColumns:
    def matrix(self):
        return compute_advantages(binary_group(
            [True, True, False], [(7, 3, 7), (3, 2**63 - 1), (3, 11, 11, 11)],
        ))

    def test_rows_are_built_from_the_columns(self):
        s = self.matrix().token_stats
        assert s.tokens.tolist() == [3, 7, 11, 2**63 - 1] == list(s)
        assert len(s) == 4
        row = s[11]
        assert row.token == 11 and type(row.token) is int
        assert row.table == CT(0, 1, 2, 0)
        assert (row.tf_true, row.tf_false) == (0, 3) and type(row.tf_false) is int
        i = s.index(11)
        assert row.key_token_value == s.key_token_value[i] and type(row.key_token_value) is float
        assert dict(s.items())[7] == s[7]
        assert s[2**63 - 1].table == CT(1, 0, 1, 1)

    @pytest.mark.parametrize("key", [4, -3, 2**63, 2**70, "7", 7.0, None])
    def test_absent_or_foreign_keys_raise_key_error(self, key):
        s = self.matrix().token_stats
        assert key not in s
        with pytest.raises(KeyError):
            s[key]

    def test_columns_are_read_only(self):
        s = self.matrix().token_stats
        with pytest.raises(ValueError):
            s.key_token_value[0] = 1.0
        with pytest.raises(ValueError):
            s.tokens[0] = 5
