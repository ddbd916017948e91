import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from ktae import (
    ConfigError,
    ContingencyTable,
    DomainError,
    EmptyGroup,
    EmptyRollout,
    InvalidReward,
    InvalidToken,
    KtaeConfig,
    LengthMismatch,
    Rollout,
    RolloutGroup,
    validate_group,
)

from conftest import rollout_groups


def make_group(rewards, length=3, threshold=0.5):
    rollouts = tuple(Rollout(tokens=tuple(range(1, length + 1)), reward=r) for r in rewards)
    return RolloutGroup(group_id="g", rollouts=rollouts, correctness_threshold=threshold)


def test_validate_partitions_binary_group():
    group = validate_group(make_group([1.0] * 9 + [0.0] * 7))
    assert group.size == 16
    assert group.num_correct == 9
    assert group.num_incorrect == 7
    assert group.num_correct + group.num_incorrect == group.size


def test_validate_rejects_single_rollout():
    with pytest.raises(EmptyGroup):
        validate_group(make_group([1.0]))


def test_validate_rejects_empty_tokens():
    group = RolloutGroup("g", (Rollout(tokens=(), reward=1.0), Rollout(tokens=(1,), reward=0.0)))
    with pytest.raises(EmptyRollout):
        validate_group(group)


def test_validate_rejects_texts_length_mismatch():
    bad = Rollout(tokens=(1, 2, 3), reward=1.0, texts=("a", "b"))
    group = RolloutGroup("g", (bad, Rollout(tokens=(1,), reward=0.0)))
    with pytest.raises(LengthMismatch):
        validate_group(group)


def test_validate_rejects_negative_token():
    group = RolloutGroup("g", (Rollout(tokens=(1, -2), reward=1.0), Rollout(tokens=(1,), reward=0.0)))
    with pytest.raises(InvalidToken):
        validate_group(group)


def test_validate_bounds_token_ids_to_int64():
    top = 2**63 - 1
    ok = RolloutGroup("g", (Rollout(tokens=(top,), reward=1.0), Rollout(tokens=(0,), reward=0.0)))
    assert validate_group(ok) is ok
    bad = RolloutGroup("g", (Rollout(tokens=(1, top + 1), reward=1.0), Rollout(tokens=(1,), reward=0.0)))
    with pytest.raises(InvalidToken, match="rollout 0"):
        validate_group(bad)


@pytest.mark.parametrize("bad", [(1.5, 2.7, 3), (1, 2.0), (1, "2"), (None,), ((1, 2), 3), ([1], [2])])
def test_validate_rejects_non_integer_token_ids(bad):
    group = RolloutGroup("g", (Rollout(tokens=(1, 2, 3), reward=1.0), Rollout(tokens=bad, reward=0.0)))
    with pytest.raises(InvalidToken, match="rollout 1 contains a non-integer token id"):
        validate_group(group)


def test_validate_keeps_the_first_bad_rollouts_message():
    rollouts = (Rollout(tokens=(1, -2), reward=1.0), Rollout(tokens=(1.5,), reward=0.0))
    with pytest.raises(InvalidToken, match="rollout 0 contains a negative token id"):
        validate_group(RolloutGroup("g", rollouts))
    rollouts = (Rollout(tokens=(1,), reward=1.0), Rollout(tokens=(2**64, -1), reward=0.0))
    with pytest.raises(InvalidToken, match="rollout 1 contains a negative token id"):
        validate_group(RolloutGroup("g", rollouts))


def test_validate_rejects_non_finite_reward():
    group = RolloutGroup("g", (Rollout(tokens=(1,), reward=math.nan), Rollout(tokens=(1,), reward=0.0)))
    with pytest.raises(InvalidReward):
        validate_group(group)


@given(rollout_groups(graded=True), st.floats(-1.0, 2.0, allow_nan=False))
def test_partition_is_exhaustive_for_any_threshold(group, threshold):
    group = dataclasses.replace(group, correctness_threshold=threshold)
    validate_group(group)
    for rollout, is_correct in zip(group.rollouts, group.correct_mask):
        assert is_correct == (rollout.reward > threshold)
    assert group.num_correct + group.num_incorrect == group.size


def test_types_are_immutable():
    rollout = Rollout(tokens=(1, 2), reward=1.0)
    group = make_group([1.0, 0.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        rollout.reward = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        group.group_id = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        KtaeConfig().h1 = 2.0


def test_rollout_coerces_sequences_to_tuples():
    rollout = Rollout(tokens=[1, 2, 3], reward=1.0, texts=["a", "b", "c"])
    assert rollout.tokens == (1, 2, 3)
    assert rollout.texts == ("a", "b", "c")


class TestContingencyTable:
    def test_margins(self):
        table = ContingencyTable(3, 1, 2, 4)
        assert table.n == 10
        assert table.n_true == 5
        assert table.n_false == 5

    def test_swapped_exchanges_columns(self):
        assert ContingencyTable(3, 1, 2, 4).swapped() == ContingencyTable(1, 3, 4, 2)

    def test_check_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            ContingencyTable(-1, 0, 0, 2).check()


class TestKtaeConfig:
    def test_default_weights(self):
        cfg = KtaeConfig()
        assert (cfg.h1, cfg.h2, cfg.h3) == (1.0, 2.0, 1.0)
        assert (cfg.k1, cfg.b) == (2.0, 0.5)
        assert cfg.fisher_mode == "point"
        assert cfg.degenerate_policy == "zeros"

    def test_defaults_round_trip_through_serialization(self):
        cfg = KtaeConfig()
        assert KtaeConfig.from_dict(cfg.to_dict()) == cfg

    @given(
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
        st.floats(-3.0, 3.0),
        st.floats(0.1, 4.0),
        st.floats(0.0, 1.0),
    )
    def test_valid_configs_round_trip(self, h1, h2, h3, k1, b):
        cfg = KtaeConfig(h1=h1, h2=h2, h3=h3, k1=k1, b=b)
        assert KtaeConfig.from_dict(cfg.to_dict()) == cfg

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
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            KtaeConfig(**kwargs)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            KtaeConfig.from_dict({"h1": 1.0, "mystery": 2.0})
