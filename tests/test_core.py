import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ktae import ConfigError, InvalidGroup, KtaeConfig, Rollout, RolloutGroup, compute_advantages
from ktae import core
from ktae.core import DomainError, validate_group
from ktae.oracle import ContingencyTable, reference_advantages
from ktae.records import advantage_record_line

from conftest import rollout_groups


def make_group(rewards, length=3, threshold=0.5):
    rollouts = tuple(Rollout(tokens=tuple(range(1, length + 1)), reward=r) for r in rewards)
    return RolloutGroup(group_id="g", rollouts=rollouts, correctness_threshold=threshold)


def test_validate_partitions_binary_group():
    group = make_group([1.0] * 9 + [0.0] * 7)
    assert group.size == 16
    assert group.num_correct == 9
    assert group.correct_mask == (True,) * 9 + (False,) * 7


def test_validate_rejects_single_rollout():
    with pytest.raises(InvalidGroup, match=r"has 1 rollout\(s\); need at least 2"):
        make_group([1.0])


def test_validate_rejects_empty_tokens():
    with pytest.raises(InvalidGroup, match="rollout 0 has no tokens"):
        RolloutGroup("g", (Rollout(tokens=(), reward=1.0), Rollout(tokens=(1,), reward=0.0)))


def test_validate_rejects_texts_length_mismatch():
    bad = Rollout(tokens=(1, 2, 3), reward=1.0, texts=("a", "b"))
    with pytest.raises(InvalidGroup, match="rollout 0 has 2 texts for 3 tokens"):
        RolloutGroup("g", (bad, Rollout(tokens=(1,), reward=0.0)))


def test_validate_rejects_negative_token():
    with pytest.raises(InvalidGroup, match="rollout 0 contains a negative token id"):
        RolloutGroup("g", (Rollout(tokens=(1, -2), reward=1.0), Rollout(tokens=(1,), reward=0.0)))


def test_validate_bounds_token_ids_to_int64():
    top = 2**63 - 1
    ok = RolloutGroup("g", (Rollout(tokens=(top,), reward=1.0), Rollout(tokens=(0,), reward=0.0)))
    assert validate_group(ok) is ok
    with pytest.raises(InvalidGroup, match=f"rollout 0 contains a token id above {top}"):
        RolloutGroup("g", (Rollout(tokens=(1, top + 1), reward=1.0), Rollout(tokens=(1,), reward=0.0)))


@pytest.mark.parametrize("bad", [(1.5, 2.7, 3), (1, 2.0), (1, "2"), (None,), ((1, 2), 3), ([1], [2])])
def test_validate_rejects_non_integer_token_ids(bad):
    with pytest.raises(InvalidGroup, match="rollout 1 contains a non-integer token id"):
        RolloutGroup("g", (Rollout(tokens=(1, 2, 3), reward=1.0), Rollout(tokens=bad, reward=0.0)))


def test_validate_keeps_the_first_bad_rollouts_message():
    rollouts = (Rollout(tokens=(1, -2), reward=1.0), Rollout(tokens=(1.5,), reward=0.0))
    with pytest.raises(InvalidGroup, match="rollout 0 contains a negative token id"):
        RolloutGroup("g", rollouts)
    rollouts = (Rollout(tokens=(1,), reward=1.0), Rollout(tokens=(2**64, -1), reward=0.0))
    with pytest.raises(InvalidGroup, match="rollout 1 contains a negative token id"):
        RolloutGroup("g", rollouts)


@pytest.mark.parametrize("reward", [True, "1.0", None, math.nan, math.inf,
                                    pytest.param(10**400, id="int-beyond-float64")])
def test_validate_rejects_non_finite_reward(reward):
    with pytest.raises(InvalidGroup, match=f"rollout 0 reward {re.escape(repr(reward))} is not a finite number$"):
        RolloutGroup("g", (Rollout(tokens=(1,), reward=reward), Rollout(tokens=(1,), reward=0.0)))


def test_validate_rejects_an_integer_reward_beyond_float64():
    with pytest.raises(InvalidGroup, match="rollout 0 reward .* is not a finite number"):
        RolloutGroup("g", (Rollout(tokens=(1,), reward=10**400), Rollout(tokens=(1,), reward=0.0)))


@pytest.mark.parametrize("threshold", [True, False, math.inf, math.nan, "0.5", None,
                                       pytest.param(10**400, id="int-beyond-float64")])
def test_validate_rejects_a_threshold_that_is_not_a_finite_number(threshold):
    with pytest.raises(InvalidGroup, match="correctness_threshold .* is not a finite number"):
        make_group([1.0, 0.0], threshold=threshold)


@given(rollout_groups(graded=True), st.floats(-1.0, 2.0, allow_nan=False))
def test_partition_is_exhaustive_for_any_threshold(group, threshold):
    group = dataclasses.replace(group, correctness_threshold=threshold)
    for rollout, is_correct in zip(group.rollouts, group.correct_mask):
        assert is_correct == (rollout.reward > threshold)
    assert group.num_correct == sum(group.correct_mask)


def test_rejects_a_rollout_that_is_not_a_rollout():
    with pytest.raises(InvalidGroup, match="^group 'g': rollout 0 is not a Rollout$"):
        RolloutGroup("g", ({"tokens": [1], "reward": 1.0}, Rollout((1,), 0.0)))
    with pytest.raises(InvalidGroup, match="^group 'g': rollout 1 is not a Rollout$"):
        RolloutGroup("g", (Rollout((1,), 1.0), (1,)))


def test_a_built_group_is_not_checked_again(monkeypatch):
    group = RolloutGroup("g", (Rollout((1, 2, 2, 5), 1.0), Rollout((2, 3), 0.0), Rollout((1, 4, 3), 0.0)))
    config = KtaeConfig()

    def outputs():
        ref = reference_advantages(group, config)
        columns = [*vars(ref.token_stats).values(), ref.deltas]
        return (advantage_record_line("g", compute_advantages(group, config), include_stats=True),
                repr((ref.rollout_advantages, ref.token_advantages)), [column.tobytes() for column in columns])

    expected = outputs()

    def refuse(value):
        raise AssertionError("group rules checked again")

    monkeypatch.setattr(core, "_is_finite_number", refuse)
    assert outputs() == expected


def test_token_ids_are_one_cached_read_only_int64_column():
    group = RolloutGroup("g", (Rollout(tokens=(5, 2**63 - 1, 5), reward=1.0), Rollout(tokens=(0, 7), reward=0.0)))
    ids = group.token_ids
    assert ids.dtype == np.int64
    assert not ids.flags.writeable
    assert ids.tolist() == [5, 2**63 - 1, 5, 0, 7]
    assert group.token_ids is ids
    with pytest.raises(ValueError):
        ids[0] = 1


def test_types_are_immutable():
    rollout = Rollout(tokens=(1, 2), reward=1.0)
    group = make_group([1.0, 0.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        rollout.reward = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        group.group_id = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        KtaeConfig().h1 = 2.0


def test_advantage_matrices_compare_and_hash_by_identity():
    group = make_group([1.0, 0.0, 1.0])
    m, m2 = compute_advantages(group), compute_advantages(group)
    assert m == m and m != m2
    assert len({m, m2, m}) == 2


def test_advantage_matrix_repr_builds_no_statistics():
    def refuse():
        raise AssertionError("token statistics built by repr")

    m = compute_advantages(make_group([1.0, 0.0]))
    matrix = core.AdvantageMatrix(m.rollout_advantages, m.token_advantages, refuse)
    text = repr(matrix)
    assert text.startswith("AdvantageMatrix(rollout_advantages=array(") and "token_stats" not in text
    with pytest.raises(AssertionError, match="built by repr"):  # the builder is still the one a read calls
        matrix.token_stats


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RolloutGroup("g", None), "rollouts must be a sequence, got NoneType"),
        (lambda: RolloutGroup("g", 3), "rollouts must be a sequence, got int"),
        (lambda: Rollout(5, 1.0), "rollout tokens must be a sequence, got int"),
        (lambda: Rollout((1, 2), 1.0, texts=7), "rollout texts must be a sequence, got int"),
        (lambda: RolloutGroup(7, make_group([1.0, 0.0]).rollouts), "group_id must be a string, got 7"),
        (lambda: RolloutGroup(None, make_group([1.0, 0.0]).rollouts), "group_id must be a string, got None"),
    ],
)
def test_constructors_reject_what_is_not_a_sequence_or_a_string_id(build, message):
    with pytest.raises(InvalidGroup, match=f"^{re.escape(message)}$"):
        build()


def test_rollout_coerces_sequences_to_tuples():
    rollout = Rollout(tokens=[1, 2, 3], reward=1.0, texts=["a", "b", "c"])
    assert rollout.tokens == (1, 2, 3)
    assert rollout.texts == ("a", "b", "c")


class TestContingencyTable:
    def test_margins(self):
        table = ContingencyTable(3, 1, 2, 4)
        assert table.n == 10

    def test_check_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            ContingencyTable(-1, 0, 0, 2).check()


FIELD_NAMES = [f.name for f in dataclasses.fields(KtaeConfig)]


class TestKtaeConfig:
    def test_default_weights(self):
        cfg = KtaeConfig()
        assert (cfg.h1, cfg.h2, cfg.h3) == (1.0, 2.0, 1.0)
        assert (cfg.k1, cfg.b) == (2.0, 0.5)
        assert cfg.fisher_mode == "point"
        assert cfg.degenerate_policy == "zeros"

    def test_defaults_round_trip_through_serialization(self):
        cfg = KtaeConfig()
        assert KtaeConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    @given(
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
        st.floats(-3.0, 3.0),
        st.floats(0.1, 4.0),
        st.floats(0.0, 1.0),
    )
    def test_valid_configs_round_trip(self, h1, h2, h3, k1, b):
        cfg = KtaeConfig(h1=h1, h2=h2, h3=h3, k1=k1, b=b)
        assert KtaeConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    # Field names and valid values are drawn often, so later checks get reached.
    @given(st.dictionaries(
        st.sampled_from(FIELD_NAMES) | st.sampled_from(FIELD_NAMES) | st.text(max_size=8),
        st.floats(0.1, 1.0) | st.sampled_from(["point", "two_sided", "zeros", "error"]) | st.recursive(
            st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400) | st.floats()
            | st.text(max_size=8),
            lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
            max_leaves=8,
        ),
        max_size=9,
    ))
    @settings(max_examples=300)
    def test_from_dict_of_any_flat_json_object_raises_only_config_error(self, mapping):
        # What load_flat_mapping hands to from_dict: str keys, JSON values as parsed.
        try:
            assert isinstance(KtaeConfig.from_dict(mapping), KtaeConfig)
        except ConfigError:
            pass

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h1": -0.1},
            {"h2": -1.0},
            {"k1": 0.0},
            {"k1": -2.0},
            {"b": 1.5},
            {"b": -0.1},
            {"std_epsilon": 0.0},
            {"tf_floor": 0.0},
            {"fisher_mode": "both"},
            {"degenerate_policy": "raise"},
            {"h1": math.inf},
            {"h1": 10**400},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            KtaeConfig(**kwargs)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            KtaeConfig.from_dict({"h1": 1.0, "mystery": 2.0})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h3": 1e308},  # h3 * (T/F - F/T) overflows: NaN advantages on a degenerate group
            {"h1": 0.0, "h2": 0.0, "k1": 1e308, "tf_floor": 1.0},  # (k1 + 1) * tf overflows: NaN, TF_T Infinity
            {"h3": 0.0, "tf_floor": 1e-308},  # T/F overflows, and 0 * inf is NaN
            {"h1": 1e308, "h2": 1e308},  # h1 + h2 overflows
            {"h2": 1e302, "h3": 1e4},  # the key-token-value bound overflows, its factors do not
        ],
    )
    def test_configs_whose_values_can_overflow_are_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=r"^h1=.*, h2=.*, h3=.*, k1=.* and tf_floor=.* let key-token-values overflow"):
            KtaeConfig(**kwargs)
