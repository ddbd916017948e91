import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktae import ConfigError, KtaeConfig, dapo_admissible
from ktae.core import validate_group
from ktae.synth import MAX_SPEC_TOKENS, SynthSpec, generate, recovery_report

SMALL = SynthSpec(num_groups=12, base_vocab=60, rollout_len_range=(10, 16))
SPEC_FIELDS = [f.name for f in dataclasses.fields(SynthSpec)]


class TestSynthSpec:
    def test_defaults_describe_the_standard_benchmark(self):
        spec = SynthSpec()
        assert spec.num_groups == 200
        assert spec.group_size == 16
        assert spec.correct_fraction == 0.75
        assert spec.num_correct == 12

    def test_rejects_overlapping_plants(self):
        with pytest.raises(ConfigError, match="planted token sets must be pairwise disjoint"):
            SynthSpec(planted_positive=(9001,), planted_negative=(9001,))

    def test_rejects_plants_inside_filler_vocab(self):
        with pytest.raises(ConfigError, match=r"planted tokens \[5\] must lie in \[300, "):
            SynthSpec(base_vocab=300, planted_positive=(5,))

    def test_rejects_degenerate_correct_fraction(self):
        with pytest.raises(ConfigError, match="rounds to 16 correct rollouts of 16"):
            SynthSpec(correct_fraction=0.99, group_size=16)  # rounds to 16 of 16

    def test_rejects_bad_length_range(self):
        with pytest.raises(ConfigError, match="rollout_len_range must satisfy 1 <= lo <= hi"):
            SynthSpec(rollout_len_range=(0, 4))
        with pytest.raises(ConfigError, match="rollout_len_range must satisfy 1 <= lo <= hi"):
            SynthSpec(rollout_len_range=(9, 4))
        with pytest.raises(ConfigError, match="rollout_len_range must satisfy 1 <= lo <= hi"):
            SynthSpec(rollout_len_range=(4,))

    @pytest.mark.parametrize("field, value", [
        ("num_groups", 1.5), ("num_groups", True), ("group_size", 4.0), ("base_vocab", 2.5), ("seed", 0.5),
        ("rollout_len_range", (4, 8.5)), ("rollout_len_range", (False, 8)), ("planted_negative", (9002.0,)),
        ("seed", -1), ("rollout_len_range", 8), ("planted_positive", 9001), ("planted_neutral", None),
        ("base_vocab", 2**63 + 1),
    ])
    def test_rejects_integer_fields_that_are_not_usable_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SynthSpec(**{field: value})

    @pytest.mark.parametrize("value", ["0.75", None, (0.75,)])
    def test_rejects_correct_fraction_that_is_not_a_number(self, value):
        with pytest.raises(ConfigError, match="correct_fraction"):
            SynthSpec(correct_fraction=value)

    def test_plants_may_reach_but_not_exceed_the_largest_token_id(self):
        assert SynthSpec(planted_positive=(2**63 - 1,)).planted_positive == (2**63 - 1,)
        with pytest.raises(ConfigError, match=str(2**63)):
            SynthSpec(planted_positive=(2**63,))

    @pytest.mark.parametrize("sizes", [
        {"group_size": 10**20}, {"num_groups": 10**20}, {"rollout_len_range": (1, 10**20)},
        {"group_size": 10**400},  # beyond float64: rejected before correct_fraction is applied
        {"num_groups": 10**7 // 816 + 1, "rollout_len_range": (48, 48)},  # 16 * (48 + 3) tokens per group
    ])
    def test_rejects_specs_beyond_the_token_bound(self, sizes):
        with pytest.raises(ConfigError, match=str(MAX_SPEC_TOKENS)):
            SynthSpec(**sizes)

    def test_token_bound_admits_a_spec_at_the_bound(self):
        spec = SynthSpec(num_groups=10**7 // 816, rollout_len_range=(48, 48))
        assert MAX_SPEC_TOKENS - 816 < spec.num_groups * 816 <= MAX_SPEC_TOKENS

    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigError, match="num_groups must be >= 1, got 0"):
            SynthSpec(num_groups=0)

    def test_dict_round_trip(self):
        spec = SynthSpec()
        assert SynthSpec.from_dict(dataclasses.asdict(spec)) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown benchmark spec field\(s\): plants"):
            SynthSpec.from_dict({"plants": (1,)})

    # Field names and valid values are drawn often, so later checks get reached.
    @given(st.dictionaries(
        st.sampled_from(SPEC_FIELDS) | st.sampled_from(SPEC_FIELDS) | st.text(max_size=8),
        st.integers(0, 400) | st.lists(st.integers(0, 20_000), max_size=3) | st.floats(0.05, 0.95) | st.recursive(
            st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400) | st.floats()
            | st.text(max_size=8),
            lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
            max_leaves=8,
        ),
        max_size=9,
    ))
    @settings(max_examples=300)
    def test_from_dict_of_any_flat_json_object_raises_only_spec_error(self, mapping):
        # What load_flat_mapping hands to from_dict: str keys, JSON values as parsed.
        try:
            assert isinstance(SynthSpec.from_dict(mapping), SynthSpec)
        except ConfigError:
            pass


class TestGenerate:
    def test_same_seed_is_deterministic(self):
        assert generate(SMALL) == generate(SMALL)

    def test_different_seeds_differ(self):
        other = dataclasses.replace(SMALL, seed=1)
        assert generate(SMALL) != generate(other)

    def test_partition_counts_match_the_fraction(self):
        for group in generate(SMALL):
            assert group.num_correct == 12
            assert group.size - group.num_correct == 4

    def test_groups_validate_and_are_admissible(self):
        for group in generate(SMALL):
            validate_group(group)
            assert dapo_admissible(group)

    def test_plants_land_exactly_on_their_sides(self):
        for group in generate(SMALL):
            for rollout, is_correct in zip(group.rollouts, group.correct_mask):
                tokens = set(rollout.tokens)
                assert (9001 in tokens) == is_correct
                assert (9002 in tokens) == (not is_correct)
                assert 9003 in tokens

    def test_rewards_are_binary(self):
        for group in generate(SMALL):
            assert set(r.reward for r in group.rollouts) == {0.0, 1.0}

    def test_texts_align_with_tokens(self):
        group = generate(SMALL)[0]
        for rollout in group.rollouts:
            assert rollout.texts is not None
            assert len(rollout.texts) == len(rollout.tokens)
            assert rollout.texts[0] == f"t{rollout.tokens[0]}"


class TestRecoveryReport:
    def test_exclusive_plants_recover_with_full_sign_accuracy(self):
        groups = generate(SMALL)
        report = recovery_report(groups, SMALL, KtaeConfig())
        assert report["sign_accuracy_positive"] == 1.0
        assert report["sign_accuracy_negative"] == 1.0
        assert report["sign_accuracy"] == 1.0

    def test_neutral_plants_have_exactly_zero_delta(self):
        report = recovery_report(generate(SMALL), SMALL)
        assert report["neutral_max_abs_delta"] == 0.0
        assert report["neutral_mean_abs_delta"] == 0.0

    def test_filler_deltas_stay_below_plant_deltas(self):
        report = recovery_report(generate(SMALL), SMALL)
        assert report["filler_mean_abs_delta"] < report["plant_mean_abs_delta"]

    def test_report_carries_rank_and_timing(self):
        report = recovery_report(generate(SMALL), SMALL)
        assert report["plant_rank_mean"] >= 1.0
        assert report["plant_rank_worst"] >= 1
        assert report["seconds_total"] > 0
        assert report["num_groups"] == SMALL.num_groups
        assert report["spec"]["seed"] == SMALL.seed
        assert report["config"]["h2"] == 2.0
