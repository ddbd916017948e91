import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

from ktae import (
    ConfigError,
    DegenerateGroup,
    InvalidGroup,
    KtaeConfig,
    Rollout,
    RolloutGroup,
    compute_advantages,
    dapo_admissible,
    grpo_advantages,
)
from ktae import advantage, cli, core, frequency, stats
from ktae.advantage import DELTA_MAX, sigmoid_shift, token_stats
from ktae.oracle import (
    ContingencyTable as CT,
    brute_force_stats,
    fisher_exact_rational,
    fisher_two_sided_enum,
    raw_term_frequencies,
    reference_advantages,
)
from ktae.records import advantage_record_line, group_record_line, parse_group_record
from ktae.synth import SynthSpec, generate

from conftest import at_one, fisher_p, rollout_groups, table_at
from test_golden import GOLDEN_SHA256, WIDE_SHA256, compute_sha256, golden_groups, wide_groups
from test_oracle import _close

SQRT3 = math.sqrt(3.0)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def empty_memo(monkeypatch):
    """Start the table-statistics memo empty; the old one comes back after the test."""
    monkeypatch.setattr(advantage, "_memo", OrderedDict())


def matrix_bytes(matrix, s):
    """Every array of an AdvantageMatrix and of its group's TokenStatsColumns ``s``, as bytes."""
    return [matrix.rollout_advantages.tobytes(), *(row.tobytes() for row in matrix.token_advantages),
            *(getattr(s, f.name).tobytes() for f in fields(s))]


def output_bytes(group, config=None):
    """matrix_bytes of the group's AdvantageMatrix and token statistics."""
    return matrix_bytes(compute_advantages(group, config), token_stats(group, config))


def memo_bytes():
    """Bytes the table-statistics memo holds."""
    return sum(slot.nbytes + values.nbytes for slot, values in advantage._memo.values())


def count_kernel_rows(monkeypatch):
    """A list that gets the row count of every table-statistics kernel call."""
    rows = []
    for name, cells in (("fisher_prob_array", 2), ("info_gain_array", 0)):  # the position of the a array
        kernel = getattr(stats, name)

        def counted(*args, _kernel=kernel, _cells=cells):
            rows.append(len(args[_cells]))
            return _kernel(*args)

        monkeypatch.setattr(stats, name, counted)
    return rows


def binary_group(flags, token_lists, group_id="g"):
    rollouts = tuple(
        Rollout(tokens=tuple(tokens), reward=1.0 if flag else 0.0)
        for flag, tokens in zip(flags, token_lists)
    )
    return RolloutGroup(group_id, rollouts)


class TestGrpoAdvantages:
    def test_balanced_binary_rewards(self):
        baseline = grpo_advantages([1.0, 1.0, 0.0, 0.0])
        assert baseline.tolist() == [1.0, 1.0, -1.0, -1.0]
        assert not baseline.flags.writeable

    def test_identical_rewards_give_exact_zeros(self):
        baseline = grpo_advantages([1.0, 1.0, 1.0, 1.0])
        assert baseline.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_single_positive_reward(self):
        # mean 1/4, population std sqrt(3)/4
        baseline = grpo_advantages([1.0, 0.0, 0.0, 0.0])
        expected = [SQRT3, -1.0 / SQRT3, -1.0 / SQRT3, -1.0 / SQRT3]
        assert baseline == pytest.approx(expected, rel=1e-12)

    def test_uses_population_std(self):
        # mean 1, population std 1 (the sample std would be sqrt(2))
        assert grpo_advantages([2.0, 0.0]).tolist() == [1.0, -1.0]

    def test_rejects_short_groups(self):
        with pytest.raises(InvalidGroup, match="need at least 2 rewards, got 1"):
            grpo_advantages([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidGroup, match="rewards must all be finite"):
            grpo_advantages([1.0, math.inf])

    def test_rejects_integer_reward_beyond_float64(self):
        with pytest.raises(InvalidGroup, match="rewards must all be finite"):
            grpo_advantages([10**400, 0])

    def test_overflowing_moments_are_taken_over_scaled_rewards(self):
        # Each sum of squares, and for the last two the mean's sum, overflows
        # float64; the advantages are those of the rewards over their largest
        # magnitude.
        assert grpo_advantages([0.0, 1e300]).tolist() == [-1.0, 1.0]
        assert grpo_advantages([1.7e308, 1.7e308, -1.0e308]) == pytest.approx([math.sqrt(0.5), math.sqrt(0.5), -math.sqrt(2.0)])
        assert grpo_advantages([1.7e308] * 3).tolist() == [0.0] * 3
        # A deviation beyond float64: 1.7e308 against a mean of -1.4875e308.
        wide = grpo_advantages([1.7e308] + [-1.7e308] * 15)
        assert wide == pytest.approx(grpo_advantages([1.0] + [-1.0] * 15), rel=1e-15)
        assert wide.flags.writeable is False

    @given(st.lists(st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0, 1.0, 0.5]), min_size=2, max_size=40),
           st.floats(1e-300, 1.0))
    @settings(max_examples=300)
    def test_moments_are_those_of_numpy_mean_and_std(self, rewards, std_epsilon):
        arr = np.array(rewards)
        expected = np.zeros_like(arr) if np.all(arr == arr[0]) else (arr - arr.mean()) / max(arr.std(), std_epsilon)
        assert grpo_advantages(rewards, std_epsilon).tobytes() == expected.tobytes()

    def test_tiny_variance_is_guarded_not_zeroed(self):
        baseline = grpo_advantages([0.0, 1e-12], std_epsilon=1e-8)
        assert baseline[1] > 0
        assert np.isfinite(baseline).all()


class TestDapoAdmissible:
    def test_mixed_group(self):
        group = binary_group([True] * 12 + [False] * 4, [(1,)] * 16)
        assert dapo_admissible(group)

    def test_all_correct(self):
        assert not dapo_admissible(binary_group([True] * 16, [(1,)] * 16))

    def test_all_incorrect(self):
        assert not dapo_admissible(binary_group([False] * 16, [(1,)] * 16))


class TestKeyTokenValue:
    """key_token_value = (h1*F + h2*IG) * D, read from compute_advantages columns."""

    # token 7 in every correct rollout and no incorrect one: table (4, 0, 0, 4)
    SPLIT = ([True] * 4 + [False] * 4, [(7, 1), (7, 2), (7, 7, 3), (7, 1, 1)] + [(1,), (2, 2), (3,), (4, 1)])

    def test_zero_strength_kills_any_direction(self):
        s = token_stats(binary_group(*self.SPLIT), KtaeConfig(h1=0.0, h2=0.0))
        assert np.all(s.direction != 0.0)
        assert np.all(s.key_token_value == 0.0)

    def test_plain_multiplication(self):
        s = token_stats(binary_group(*self.SPLIT), KtaeConfig(h1=1.0, h2=2.0))
        expected = (1.0 * s.fisher_score + 2.0 * s.info_gain) * s.direction
        assert s.key_token_value == pytest.approx(expected, rel=1e-15)

    def test_composed_perfect_split_factors(self):
        # F and IG of table (4,0,0,4) composed with a half-pi direction (h3 = 0
        # leaves Cohen's h alone)
        s = token_stats(binary_group(*self.SPLIT), KtaeConfig(h3=0.0))
        assert table_at(s, 7) == CT(4, 0, 0, 4)
        assert s.direction[s.index(7)] == math.pi / 2
        value = s.key_token_value.item(s.index(7))
        assert value == pytest.approx(4.6681441639501235, rel=1e-12)
        assert value == pytest.approx((math.exp(-2.0 / 70.0) + 2.0) * math.pi / 2, rel=1e-15)

    @given(rollout_groups())
    @settings(max_examples=100)
    def test_sign_tracks_direction_when_strength_positive(self, group):
        s = token_stats(group)
        strong = 1.0 * s.fisher_score + 2.0 * s.info_gain > 0
        assert np.all(s.key_token_value[strong & (s.direction < 0)] < 0)
        assert np.all(s.key_token_value[strong & (s.direction > 0)] > 0)


class TestSigmoid:
    def test_midpoint_is_exact(self):
        assert float(sigmoid_shift(np.array([0.0]))[0]) == 0.0

    def test_shift_is_strictly_inside_half_unit(self):
        extremes = sigmoid_shift(np.array([-1e9, -50.0, 0.0, 50.0, 1e9]))
        assert np.all(np.abs(extremes) < 0.5)
        assert float(extremes[-1]) == DELTA_MAX
        assert float(extremes[0]) == -DELTA_MAX

    def test_matches_logistic_in_the_stable_range(self):
        xs = np.linspace(-30, 30, 101)
        expected = 1.0 / (1.0 + np.exp(-xs)) - 0.5
        assert sigmoid_shift(xs) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @staticmethod
    def two_branch_shift(x):
        """The earlier formula: exp(-x) on x >= 0 and exp(x) elsewhere, shifted and clamped."""
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return np.clip(out - 0.5, -DELTA_MAX, DELTA_MAX)

    def test_matches_the_two_branch_formula_on_edge_values(self):
        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 709.0, -709.0, 746.0, -746.0,
                 5e-324, -5e-324]
        xs = np.array(edges * 3)  # repeated so both the vector body and the tail see each value
        assert sigmoid_shift(xs).tobytes() == self.two_branch_shift(xs).tobytes()

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=70))
    def test_matches_the_two_branch_formula_bit_for_bit(self, values):
        xs = np.array(values, dtype=np.float64)
        assert sigmoid_shift(xs).tobytes() == self.two_branch_shift(xs).tobytes()


class TestComputeAdvantages:
    def test_token_in_every_rollout_keeps_the_baseline_exactly(self):
        group = binary_group([True, True, False], [(9, 1), (9, 2), (9, 3)])
        matrix = compute_advantages(group)
        for i in range(3):
            # position 0 holds the everywhere-token
            assert matrix.token_advantages[i][0] == matrix.rollout_advantages[i]
        s = token_stats(group)
        assert s.key_token_value[s.index(9)] == 0.0
        assert table_at(s, 9) == CT(2, 1, 0, 0)

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
        assert np.all(token_stats(group).key_token_value == 0.0)

    def test_degenerate_all_incorrect_zeros_policy(self):
        group = binary_group([False] * 3, [(1,), (2,), (3,)])
        matrix = compute_advantages(group)
        assert matrix.rollout_advantages.tolist() == [0.0] * 3
        assert all(np.all(row == 0.0) for row in matrix.token_advantages)

    def test_degenerate_graded_rewards_keep_baseline(self):
        # all correct but rewards differ: key-token-values still vanish,
        # so token advantages collapse onto the (nonzero) baseline
        rollouts = (Rollout(tokens=(1, 2), reward=0.9), Rollout(tokens=(1, 3), reward=0.7))
        matrix = compute_advantages(RolloutGroup("g", rollouts))
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
        with pytest.raises(InvalidGroup, match="need at least 2"):
            compute_advantages(RolloutGroup("g", (Rollout(tokens=(1,), reward=1.0),)))

    def test_validated_group_is_not_converted_again(self, monkeypatch):
        spec = SynthSpec(num_groups=1, group_size=8, base_vocab=50, rollout_len_range=(20, 40))
        group = generate(spec)[0]
        fresh = RolloutGroup(group.group_id, group.rollouts)
        expected = advantage_record_line(fresh.group_id, compute_advantages(fresh), token_stats(fresh))

        def convert(*args, **kwargs):
            raise AssertionError("token ids converted twice")

        monkeypatch.setattr(core.array, "array", convert)
        monkeypatch.setattr(np, "fromiter", convert)
        matrix = compute_advantages(group)
        assert advantage_record_line(group.group_id, matrix, token_stats(group)) == expected

    def test_deterministic_across_runs(self):
        group = binary_group(
            [True, True, False, False],
            [(5, 3, 5, 1), (2, 2, 9), (3, 1, 4, 1, 5), (8, 8)],
        )
        assert output_bytes(group) == output_bytes(group)

    def test_two_sided_mode_matches_scalar_two_sided(self):
        group = binary_group(
            [True, True, False, False],
            [(1, 2), (1, 3), (2, 4), (5, 1)],
        )
        s = token_stats(group, KtaeConfig(fisher_mode="two_sided"))
        for token, p in zip(s.tokens.tolist(), s.fisher_p.tolist()):
            assert p == at_one(fisher_p, table_at(s, token), fisher_mode="two_sided")
            assert 0.0 < p <= 1.0

    def test_matrix_shapes_match_the_group(self):
        group = binary_group([True, False], [(1, 2, 3), (4, 5)])
        matrix = compute_advantages(group)
        assert len(matrix.token_advantages[0]) == 3
        assert len(matrix.token_advantages[1]) == 2
        assert matrix.rollout_advantages.shape == (2,)

    @given(rollout_groups())
    @settings(max_examples=300)
    def test_bounded_perturbation_and_per_type_uniformity(self, group):
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
        flipped = RolloutGroup(
            group.group_id,
            tuple(Rollout(tokens=r.tokens, reward=1.0 - r.reward) for r in group.rollouts),
        )
        ours = token_stats(group)
        theirs = token_stats(flipped)
        assert theirs.tokens.tobytes() == ours.tokens.tobytes()
        assert theirs.fisher_p == pytest.approx(ours.fisher_p, abs=1e-12)
        assert theirs.info_gain == pytest.approx(ours.info_gain, abs=1e-12)
        unclamped = (ours.tf_true > 0) & (ours.tf_false > 0)  # no floor clamp on either side
        assert theirs.key_token_value[unclamped] == pytest.approx(-ours.key_token_value[unclamped], abs=1e-9)


class TestTokenStatsColumns:
    def columns(self):
        return token_stats(binary_group(
            [True, True, False], [(7, 3, 7), (3, 2**63 - 1), (3, 11, 11, 11)],
        ))

    def test_index_finds_each_tokens_row(self):
        s = self.columns()
        assert s.tokens.tolist() == [3, 7, 11, 2**63 - 1]
        assert [s.index(t) for t in s.tokens.tolist()] == [0, 1, 2, 3]
        assert s.index(np.int64(11)) == 2
        assert table_at(s, 11) == CT(0, 1, 2, 0)
        assert (s.tf_true[2], s.tf_false[2]) == (0, 3)
        assert table_at(s, 2**63 - 1) == CT(1, 0, 1, 1)
        ints = {"tokens", "a", "b", "c", "d", "tf_true", "tf_false"}
        for f in fields(s):
            assert getattr(s, f.name).dtype == (np.int64 if f.name in ints else np.float64), f.name
        assert not isinstance(s, Mapping)  # columns only, no row view

    @pytest.mark.parametrize("key", [4, -3, 2**63, 2**70, "7", 7.0, None])
    def test_absent_or_foreign_keys_raise_key_error(self, key):
        with pytest.raises(KeyError):
            self.columns().index(key)

    def test_columns_are_read_only(self):
        s = self.columns()
        with pytest.raises(ValueError):
            s.key_token_value[0] = 1.0
        with pytest.raises(ValueError):
            s.tokens[0] = 5


@st.composite
def kernel_groups(draw):
    """Groups of 2-64 rollouts over small or huge id ranges, binary or graded
    rewards with any threshold, degenerate groups included."""
    g = draw(st.integers(2, 64))
    top = draw(st.sampled_from([3, 40, 5000, 2**63 - 1]))
    ids = st.integers(0, top)
    graded = draw(st.booleans())
    rewards = st.floats(0.0, 1.0, allow_nan=False) if graded else st.sampled_from([0.0, 1.0])
    rollouts = tuple(
        Rollout(tokens=tuple(draw(st.lists(ids, min_size=1, max_size=24))), reward=draw(rewards))
        for _ in range(g)
    )
    threshold = draw(st.floats(-0.5, 1.5, allow_nan=False)) if graded else 0.5
    return RolloutGroup("k", rollouts, correctness_threshold=threshold)


def mean_lengths(group):
    """Mean rollout length of the correct side, the incorrect side and the
    whole group, by plain sums; an empty side takes the group mean."""
    lengths = [len(r.tokens) for r in group.rollouts]
    len_avg = sum(lengths) / len(lengths)
    sides = [[n for n, ok in zip(lengths, group.correct_mask) if ok == side] for side in (True, False)]
    return *(sum(side) / len(side) if side else len_avg for side in sides), len_avg


class TestTableGather:
    """compute_advantages evaluates statistics per distinct table and gathers
    them to tokens; every value must equal a per-token evaluation bit for bit."""

    @given(kernel_groups(), st.sampled_from(["point", "two_sided"]))
    @example(binary_group([True, True, False], [(1, 2, 3, 4), (1, 2), (9, 9, 9)]), "point")  # side means 3, 3, 3
    @example(binary_group([True, True], [(1, 2), (1, 2, 3, 4)]), "point")  # no incorrect side
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no step may warn, an empty side included
    def test_columns_equal_per_token_kernels(self, group, fisher_mode):
        config = KtaeConfig(fisher_mode=fisher_mode, h1=1.5, h2=0.75, h3=2.0)
        s = token_stats(group, config)
        a, b, c, d = s.a, s.b, s.c, s.d
        p = fisher_p(a, b, c, d, fisher_mode)
        f_score = stats.fisher_score_array(p)
        ig = stats.info_gain_array(a, b, c, d)
        len_true, len_false, len_avg = mean_lengths(group)
        tfs_true = frequency.tf_score_array(s.tf_true, len_true, len_avg, config.k1, config.b)
        tfs_false = frequency.tf_score_array(s.tf_false, len_false, len_avg, config.k1, config.b)
        direction = frequency.cohen_h_array(a, b, c, d) + frequency.frequency_term_array(
            tfs_true, tfs_false, config.h3, config.tf_floor
        )
        ktv = (config.h1 * f_score + config.h2 * ig) * direction
        expected = {
            "fisher_p": p, "fisher_score": f_score, "info_gain": ig, "tf_score_true": tfs_true,
            "tf_score_false": tfs_false, "direction": direction, "key_token_value": ktv,
        }
        for name, column in expected.items():
            assert getattr(s, name).dtype == np.float64
            assert getattr(s, name).tobytes() == column.tobytes(), name


class TestWorkCount:
    """Table statistics run on at most one row per distinct (a, b) table."""

    GROUPS = {
        "wide": SynthSpec(seed=5, num_groups=1, base_vocab=50_000, rollout_len_range=(1022, 1022),
                          planted_positive=(50_001,), planted_negative=(50_002,), planted_neutral=(50_003,)),
        "tall": SynthSpec(seed=5, num_groups=1, group_size=256, base_vocab=50, rollout_len_range=(6, 6),
                          planted_positive=(51,), planted_negative=(52,), planted_neutral=(53,)),
    }

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        empty_memo(monkeypatch)

    @pytest.mark.parametrize("shape", sorted(GROUPS))
    @pytest.mark.parametrize("fisher_mode", ["point", "two_sided"])
    def test_kernels_see_one_row_per_table(self, monkeypatch, shape, fisher_mode):
        """A cold call evaluates each table once; a warm call on the same group evaluates none."""
        group = next(iter(generate(self.GROUPS[shape])))
        rows = count_kernel_rows(monkeypatch)
        s = token_stats(group, KtaeConfig(fisher_mode=fisher_mode))
        tables = len(set(zip(s.a.tolist(), s.b.tolist())))
        assert s.tokens.size > tables  # the shape must share tables between tokens
        assert rows and max(rows) <= tables
        rows.clear()
        compute_advantages(group, KtaeConfig(fisher_mode=fisher_mode))
        assert rows == []

    @pytest.mark.parametrize("shape", sorted(GROUPS))
    @pytest.mark.parametrize("fisher_mode", ["point", "two_sided"])
    def test_tail_sees_one_row_per_key_on_wide_and_per_id_on_tall(self, monkeypatch, shape, fisher_mode):
        """wide's key lattice is smaller than its id count, so the steps after
        the count run once per distinct (a, b, tf_true, tf_false); tall's is
        larger, so they run once per id."""
        group = next(iter(generate(self.GROUPS[shape])))
        config = KtaeConfig(fisher_mode=fisher_mode)
        s = token_stats(group, config)
        keys = len(set(zip(s.a.tolist(), s.b.tolist(), s.tf_true.tolist(), s.tf_false.tolist())))
        seen = {}
        for module, name in ((advantage, "sigmoid_shift"), (frequency, "frequency_term_array")):
            def counted(x, *args, _kernel=getattr(module, name), _name=name):
                seen.setdefault(_name, []).append(len(x))
                return _kernel(x, *args)

            monkeypatch.setattr(module, name, counted)
        compute_advantages(group, config)
        expected = {"wide": keys, "tall": s.tokens.size}[shape]
        assert seen == {"sigmoid_shift": [expected], "frequency_term_array": [expected]}
        if shape == "wide":
            assert keys * 100 < s.tokens.size


# Either side of the key lattice gate: 4 short rollouts over a large vocabulary
# (keys on), and one id repeated hundreds of times beside a few others (ids).
KEYED_GROUP = binary_group([True, False] * 2, [range(5000 * i, 5000 * i + 12) for i in range(4)])
PER_ID_GROUP = binary_group([True, False], [(9,) * 300 + (1, 2, 3), (4,)])


def per_id_advantages(group, config):
    """Token advantages through per-id values: token_stats' key-token-values,
    then sigmoid_shift and the grid snap, gathered to each position by id."""
    s = token_stats(group, config)
    base = grpo_advantages([r.reward for r in group.rollouts], config.std_epsilon)
    base, delta = advantage._snap_to_group_grid(base, sigmoid_shift(s.key_token_value))
    return [(base[i] + delta[s.tokens.searchsorted(r.tokens)]).tobytes() for i, r in enumerate(group.rollouts)]


class TestKeyPath:
    """compute_advantages runs its tail per distinct key only when the key
    lattice is no larger than the id count; either way the bytes are those
    of a per-id computation."""

    @given(kernel_groups(), st.sampled_from(["point", "two_sided"]), st.none())
    @example(KEYED_GROUP, "point", "keys")
    @example(PER_ID_GROUP, "two_sided", "ids")
    @settings(max_examples=150, deadline=None)
    def test_advantages_equal_the_per_id_reference(self, group, fisher_mode, side):
        config = KtaeConfig(fisher_mode=fisher_mode)
        with mock.patch.object(advantage, "sigmoid_shift", wraps=sigmoid_shift) as spy:
            matrix = compute_advantages(group, config)
        assert [row.tobytes() for row in matrix.token_advantages] == per_id_advantages(group, config)
        if side is not None:
            s = token_stats(group, config)
            keys = len(set(zip(s.a.tolist(), s.b.tolist(), s.tf_true.tolist(), s.tf_false.tolist())))
            assert keys < s.tokens.size
            assert spy.call_args.args[0].size == {"keys": keys, "ids": s.tokens.size}[side]


@st.composite
def bound_groups(draw):
    """Groups of 2-256 rollouts of 1-8 tokens over a few ids, so that ids
    repeat within rollouts, with the largest id a key packs beside a position
    and, in some groups, the next id and 2^63-1; rewards binary."""
    g = draw(st.integers(2, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = rng.integers(1, 9, size=g)
    bound = core.MAX_TOKEN_ID >> int(lengths.sum()).bit_length()
    above = draw(st.sampled_from([[], [bound + 1], [core.MAX_TOKEN_ID], [bound + 1, core.MAX_TOKEN_ID]]))
    pool = np.array([0, 1, 2, bound - 1, bound, *above, *rng.integers(0, bound, size=draw(st.integers(0, 20)))])
    rollouts = tuple(Rollout(tuple(rng.choice(pool, size=n).tolist()), float(rng.integers(0, 2))) for n in lengths)
    return RolloutGroup("bound", rollouts)


# The integer columns, and Fisher p, which comes from integer arithmetic.
HASHED_COLUMNS = ("tokens", "a", "b", "c", "d", "tf_true", "tf_false", "fisher_p")
# For each group set named on the command line and each Fisher mode, the
# sha256 of each hashed column over the set's groups.
HASH_SCRIPT = f"""
import hashlib, sys
from ktae import KtaeConfig
from ktae.advantage import token_stats
from ktae.synth import SynthSpec, generate
from test_golden import golden_groups, wide_groups
for groups in sys.argv[1:]:
    for fisher_mode in ("point", "two_sided"):
        hashes = [hashlib.sha256() for _ in {HASHED_COLUMNS!r}]
        for group in eval(groups):
            s = token_stats(group, KtaeConfig(fisher_mode=fisher_mode))
            for h, name in zip(hashes, {HASHED_COLUMNS!r}):
                h.update(getattr(s, name).tobytes())
        print(*(h.hexdigest() for h in hashes))
"""


class TestCount:
    """Occurrence counting: one sort of packed (id, position) keys, or of
    (rank, position) keys where an id does not fit beside a position."""

    @given(bound_groups())
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_naive_scans(self, group):
        matrix, s = compute_advantages(group), token_stats(group)
        assert s.tokens.tolist() == sorted(set(group.token_ids.tolist()))
        for i, token in enumerate(s.tokens.tolist()):
            assert table_at(s, token) == brute_force_stats(group, token)
            assert (s.tf_true[i], s.tf_false[i]) == raw_term_frequencies(group, token)
        ref = reference_advantages(group)
        for i, rollout in enumerate(group.rollouts):
            got = (matrix.token_advantages[i] - matrix.rollout_advantages[i]).tolist()
            want = ref.deltas[ref.token_stats.tokens.searchsorted(rollout.tokens)].tolist()
            if not dapo_admissible(group):
                want = [0.0] * len(want)
            assert all(map(_close, got, want)), i

    @given(kernel_groups(), st.sampled_from(["point", "two_sided"]))
    @settings(max_examples=60, deadline=None)
    def test_rank_keys_give_the_packed_bytes(self, group, fisher_mode):
        config = KtaeConfig(fisher_mode=fisher_mode)
        packed = output_bytes(group, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(advantage, "MAX_TOKEN_ID", -1)  # no id fits beside a position
            unique = np.unique
            ranked = []
            mp.setattr(np, "unique", lambda *args, **kwargs: ranked.append(1) or unique(*args, **kwargs))
            assert output_bytes(group, config) == packed
        assert ranked

    @pytest.mark.skipif(not __cpu_features__.get("AVX512F"), reason="numpy takes no AVX-512 path on this CPU")
    def test_counts_do_not_depend_on_cpu_dispatch(self):
        """np.sort takes its AVX2 path with AVX-512 disabled; the integer
        columns and Fisher p keep their bytes in both Fisher modes (other
        float columns may not, see README)."""
        sets = [f"generate({TestWorkCount.GROUPS[name]!r})" for name in ("tall", "wide")]
        sets += ["golden_groups()", "wide_groups()"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, os.path.dirname(os.path.abspath(__file__)))))
        runs = [subprocess.run([sys.executable, "-c", HASH_SCRIPT, *sets], capture_output=True, text=True, env=run_env)
                for run_env in (env, dict(env, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"))]
        for result in runs:
            assert result.returncode == 0, result.stderr
        assert len(runs[0].stdout.splitlines()) == 2 * len(sets)
        assert runs[1].stdout == runs[0].stdout


@st.composite
def margin_mates(draw):
    """A group and 1-3 other groups with the same rewards and threshold, so
    with the same margins (n_T, n_F), over ids drawn from the group's own."""
    group = draw(kernel_groups())
    ids = st.sampled_from(sorted(set(group.token_ids.tolist())) + [7])
    mates = [
        RolloutGroup(f"m{i}", tuple(
            Rollout(tokens=tuple(draw(st.lists(ids, min_size=1, max_size=24))), reward=r.reward)
            for r in group.rollouts
        ), correctness_threshold=group.correctness_threshold)
        for i in range(draw(st.integers(1, 3)))
    ]
    return group, mates


class TestMemo:
    """Table statistics are memoized per margin; no value may depend on what
    the memo held before the call."""

    @given(margin_mates(), st.sampled_from(["point", "two_sided"]),
           st.floats(0.0, 4.0, allow_nan=False), st.floats(0.0, 4.0, allow_nan=False))
    @example((binary_group([True, True], [(1, 2), (1, 3)]), [binary_group([True, True], [(2,), (4, 1)])]),
             "point", 0.3, 1.7)  # degenerate: no incorrect side
    @example((binary_group([False] * 3, [(1,), (2,), (1, 2)]), [binary_group([False] * 3, [(2,), (2,), (5,)])]),
             "two_sided", 1.0, 2.0)  # degenerate: no correct side
    @settings(max_examples=100, deadline=None)
    def test_warm_memo_gives_the_cold_bytes(self, mates, fisher_mode, h1, h2):
        group, others = mates
        config = KtaeConfig(fisher_mode=fisher_mode, h1=h1, h2=h2)
        with pytest.MonkeyPatch.context() as mp:
            empty_memo(mp)
            cold = compute_advantages(group, config), token_stats(group, config)
            cold = matrix_bytes(*cold), advantage_record_line("k", *cold)
            empty_memo(mp)
            for other in others:  # the other Fisher mode's margin too, and other weights
                for fill in (config, KtaeConfig(fisher_mode="point" if fisher_mode == "two_sided" else "two_sided")):
                    token_stats(other, fill)  # a degenerate margin enters here
            warmed = (group.num_correct, group.size - group.num_correct, fisher_mode) in advantage._memo
            warm = compute_advantages(group, config), token_stats(group, config)
            assert (matrix_bytes(*warm), advantage_record_line("k", *warm)) == cold
        assert warmed

    def test_returned_columns_do_not_alias_the_memo(self, monkeypatch):
        empty_memo(monkeypatch)
        s = token_stats(binary_group([True, False], [(1, 2), (2, 3)]))
        (slot, values), = advantage._memo.values()
        for name in ("fisher_p", "fisher_score", "info_gain", "direction", "key_token_value"):
            assert not np.shares_memory(getattr(s, name), values), name

    def test_cells_held_stay_within_the_budget(self, monkeypatch):
        empty_memo(monkeypatch)
        budget = 2000
        monkeypatch.setattr(advantage, "_MEMO_BYTES", budget)
        first = binary_group([True] * 3 + [False] * 3, [(1, 2), (2, 3), (3,), (1, 4), (4, 5), (2, 5)])
        expected = output_bytes(first)
        assert (3, 3, "point") in advantage._memo
        for g in range(2, 24):  # margins (n_T, n_F) with up to 12 * 13 cells each
            group = binary_group([i % 2 == 0 for i in range(g)], [(i % 5, i % 3 + 7) for i in range(g)])
            for fisher_mode in ("point", "two_sided"):
                compute_advantages(group, KtaeConfig(fisher_mode=fisher_mode))
                assert memo_bytes() <= budget
        assert (3, 3, "point") not in advantage._memo  # evicted, so recomputed below
        assert output_bytes(first) == expected

    def test_a_margin_over_the_budget_is_not_held(self, monkeypatch):
        group = binary_group([True] * 8 + [False] * 8, [(i, i % 4, 99) for i in range(16)])
        empty_memo(monkeypatch)
        expected = output_bytes(group)
        empty_memo(monkeypatch)
        monkeypatch.setattr(advantage, "_MEMO_BYTES", 324)  # the (8, 8) lattice alone takes 81 * 4 bytes
        compute_advantages(binary_group([True, False], [(1,), (2,)]))
        for _ in range(2):
            assert output_bytes(group) == expected
            assert list(advantage._memo) == [(1, 1, "point")]  # nothing was evicted for it

    def test_a_sweep_over_g256_margins_stays_warm(self, monkeypatch):
        """217 margins of G=256 in both Fisher modes fit the budget: a
        second pass over them evaluates no table."""
        empty_memo(monkeypatch)
        rng = np.random.default_rng(3)
        tokens = [tuple(rng.integers(0, 50, size=8).tolist()) for _ in range(256)]
        groups = [binary_group([i < n_true for i in range(256)], tokens) for n_true in range(20, 237)]
        calls = count_kernel_rows(monkeypatch)
        for _ in range(2):
            calls.clear()
            for group in groups:
                for fisher_mode in ("point", "two_sided"):
                    compute_advantages(group, KtaeConfig(fisher_mode=fisher_mode))
        assert calls == []
        assert len(advantage._memo) == 2 * len(groups)
        assert memo_bytes() <= advantage._MEMO_BYTES

    def test_concurrent_calls_give_the_serial_bytes(self, monkeypatch):
        jobs = [
            (group, KtaeConfig(fisher_mode=fisher_mode))
            for g, share in ((2, 0.5), (6, 0.34), (16, 0.75), (33, 0.5))
            for group in generate(SynthSpec(seed=g, num_groups=3, group_size=g, correct_fraction=share,
                                            base_vocab=40, rollout_len_range=(4, 30)))
            for fisher_mode in ("point", "two_sided")
        ]
        empty_memo(monkeypatch)
        serial = [output_bytes(*job) for job in jobs]
        empty_memo(monkeypatch)
        results = [None] * 4
        start = threading.Barrier(4)

        def work(t):
            start.wait()
            order = jobs[t:] + jobs[:t]  # each thread starts on a different margin
            results[t] = [output_bytes(*job) for job in order]

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for t, got in enumerate(results):
            assert got == serial[t:] + serial[:t], t


@st.composite
def fisher_groups(draw):
    """Groups of 2-64 binary-reward rollouts of 1-8 tokens over a few ids, so
    that tables repeat; in about half, the sides are equal or one apart."""
    g = draw(st.integers(2, 64))
    n_true = g // 2 if draw(st.booleans()) else draw(st.integers(0, g))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocab = draw(st.integers(1, 2 * g))
    rollouts = tuple(Rollout(tuple(rng.integers(0, vocab, size=int(rng.integers(1, 9))).tolist()), float(i < n_true))
                     for i in range(g))
    return RolloutGroup("fisher", rollouts)


class TestExactFisherP:
    """The memo's Fisher p is the oracle's exact rational, correctly rounded."""

    # Two-sided ties: tables (4, 0) and (0, 4) of margin (4, 4), at p = 1/35,
    MIRRORED = binary_group([True] * 4 + [False] * 4, [(1,)] * 4 + [(2,)] * 4)
    # and (3, 1) and (0, 4) of margin (3, 5), C(3,3) C(5,1) = C(3,0) C(5,4), at p = 1/7.
    TIED = binary_group([True] * 3 + [False] * 5, [(8, 1), (8, 2), (8,), (9, 8), (9,), (9, 3), (9,), (4,)])

    @given(fisher_groups(), st.sampled_from(["point", "two_sided"]))
    @example(MIRRORED, "two_sided")
    @example(TIED, "two_sided")
    @settings(max_examples=80, deadline=None)
    def test_memo_p_equals_the_oracle(self, group, fisher_mode):
        oracle = fisher_two_sided_enum if fisher_mode == "two_sided" else fisher_exact_rational
        s = token_stats(group, KtaeConfig(fisher_mode=fisher_mode))
        for token, p in zip(s.tokens.tolist(), s.fisher_p.tolist()):
            assert p == float(oracle(table_at(s, token))), token

    def test_tied_tables_share_their_p(self):
        s = token_stats(self.TIED, KtaeConfig(fisher_mode="two_sided"))
        assert (table_at(s, 8), table_at(s, 9)) == (CT(3, 1, 0, 4), CT(0, 4, 3, 1))
        assert s.fisher_p[s.index(8)] == s.fisher_p[s.index(9)] == 1 / 7
        s = token_stats(self.MIRRORED, KtaeConfig(fisher_mode="two_sided"))
        assert s.fisher_p.tolist() == [1 / 35, 1 / 35]


def degenerate(group, correct):
    """The group relabeled so that every rollout is correct or every one incorrect."""
    rewards = [r.reward for r in group.rollouts]
    threshold = min(rewards) - 1.0 if correct else max(rewards) + 1.0
    return RolloutGroup(group.group_id, group.rollouts, correctness_threshold=threshold)


def full_kernel(monkeypatch):
    """Send degenerate groups through the whole token-level kernel."""
    monkeypatch.setattr(advantage, "dapo_admissible", lambda group: True)


class TestPlainPath:
    """The plain path builds no token statistics and skips the kernel on
    degenerate groups, with the bytes of the full computation."""

    def test_plain_compute_builds_no_token_statistics(self, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("token statistics built on the plain path")

        monkeypatch.setattr(cli, "token_stats", refuse)
        assert compute_sha256(golden_groups(), "plain", tmp_path) == GOLDEN_SHA256["plain"]
        assert compute_sha256(wide_groups(), "plain", tmp_path) == WIDE_SHA256["plain"]
        with pytest.raises(AssertionError, match="plain path"):  # the patch is the one --stats reaches
            compute_sha256(golden_groups(), "stats", tmp_path)

    @pytest.mark.parametrize("fisher_mode", ["point", "two_sided"])
    @pytest.mark.parametrize("group", [
        binary_group([True] * 4, [(1, 2), (1, 3), (2, 4), (5,)]),
        binary_group([False] * 3, [(1,), (2, 2), (3, 1)]),
        # unequal rewards, all above the threshold: a nonzero baseline
        RolloutGroup("graded", (Rollout((1, 2), 0.9), Rollout((1, 3, 3), 0.7), Rollout((4,), 0.6))),
        # a baseline that snaps to -0.0, whose token advantages are 0.0
        RolloutGroup("signed", (Rollout((1, 2), -1.0), Rollout((1, 3), 1.0), Rollout((4,), -1e-300)),
                     correctness_threshold=-2.0),
    ], ids=["all-correct", "all-incorrect", "graded", "negative-zero"])
    def test_degenerate_line_equals_the_full_kernel_line(self, monkeypatch, group, fisher_mode):
        config = KtaeConfig(fisher_mode=fisher_mode)
        stats = token_stats(group, config)
        short = compute_advantages(group, config)
        lines = [advantage_record_line(group.group_id, short, s) for s in (None, stats)]
        full_kernel(monkeypatch)
        full = compute_advantages(group, config)
        assert lines == [advantage_record_line(group.group_id, full, s) for s in (None, stats)]
        assert matrix_bytes(short, stats) == matrix_bytes(full, stats)
        if group.group_id == "negative-zero":
            assert np.signbit(short.rollout_advantages[2]) and not np.signbit(short.token_advantages[2][0])

    @given(kernel_groups(), st.booleans(), st.sampled_from(["point", "two_sided"]))
    @settings(max_examples=100, deadline=None)
    def test_any_degenerate_group_gives_the_full_kernel_bytes(self, group, correct, fisher_mode):
        group = degenerate(group, correct)
        config = KtaeConfig(fisher_mode=fisher_mode)
        short = output_bytes(group, config)
        with pytest.MonkeyPatch.context() as mp:
            full_kernel(mp)
            assert output_bytes(group, config) == short

    @staticmethod
    def held_bytes(make, count):
        """Bytes that ``count`` results of ``make`` hold, per result, and the last result."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = [make(i) for i in range(count)]
            return (tracemalloc.get_traced_memory()[0] - before) / count, results[-1]
        finally:
            tracemalloc.stop()

    def test_a_held_matrix_keeps_counts_not_statistics(self):
        """A held matrix keeps no per-token array: a wide group's matrix
        holds at most 1.1x its advantage bytes."""
        group = next(iter(generate(TestWorkCount.GROUPS["wide"])))
        compute_advantages(group)  # the memo is warm
        held, matrix = self.held_bytes(lambda i: compute_advantages(group), 4)
        assert held <= 1.1 * sum(row.nbytes for row in matrix.token_advantages)

    def test_a_matrix_whose_group_was_dropped_keeps_only_its_own_arrays(self):
        """A caller that parses each group, computes it and drops it keeps
        the matrix alone, not the group's id column: at most 1.1x the
        advantage bytes on wide groups."""
        spec = replace(TestWorkCount.GROUPS["wide"], num_groups=4)
        lines = [group_record_line(group) for group in generate(spec)]
        for line in lines:  # the memo is warm
            compute_advantages(parse_group_record(line))
        held, matrix = self.held_bytes(lambda i: compute_advantages(parse_group_record(lines[i])), len(lines))
        assert held <= 1.1 * sum(row.nbytes for row in matrix.token_advantages)

    def test_statistics_read_after_the_margin_is_evicted(self, monkeypatch):
        empty_memo(monkeypatch)
        group = binary_group([True, True, False], [(7, 3, 7), (3, 2, 5), (3, 11, 11, 5)])
        before = output_bytes(group)
        del advantage._memo[2, 1, "point"]
        kept = pickle.loads(pickle.dumps((compute_advantages(group), token_stats(group))))
        assert matrix_bytes(*kept) == output_bytes(group) == before


# Non-negative floats up to 1e308, spread over every magnitude.
EXTREME = st.floats(0.0, 1e308) | st.integers(-330, 308).map(lambda e: 10.0 ** e)


FINITE_GROUPS = (
    binary_group([True, True, False, False], [(1, 1, 1, 1, 2), (1, 3), (2, 4, 4), (5,)]),
    binary_group([True] * 3, [(1, 2), (1, 1, 1), (3,)]),
    RolloutGroup("graded", (Rollout((1, 2), 0.2), Rollout((2, 2, 2, 2), 0.1))),
)


@given(EXTREME, EXTREME, EXTREME, st.booleans(), EXTREME, st.floats(0.0, 1.0), EXTREME, EXTREME,
       st.sampled_from(["point", "two_sided"]))
@settings(max_examples=300, deadline=None)
def test_every_accepted_config_gives_finite_values(h1, h2, h3, negative, k1, b, std_epsilon, tf_floor, fisher_mode):
    try:
        config = KtaeConfig(h1=h1, h2=h2, h3=-h3 if negative else h3, k1=k1, b=b,
                            std_epsilon=std_epsilon, tf_floor=tf_floor, fisher_mode=fisher_mode)
    except ConfigError:
        return
    for group in FINITE_GROUPS:
        matrix, s = compute_advantages(group, config), token_stats(group, config)
        columns = [matrix.rollout_advantages, *matrix.token_advantages, *(getattr(s, f.name) for f in fields(s))]
        assert all(np.isfinite(column).all() for column in columns)
        json.loads(advantage_record_line(group.group_id, matrix, s),
                   parse_constant=lambda name: pytest.fail(f"{name} in the output"))
