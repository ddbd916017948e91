import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktae import ConfigError, KtaeConfig, KtaeError, Rollout, RolloutGroup, compute_advantages
from ktae.advantage import token_stats
from ktae.core import MAX_TOKEN_ID, AdvantageMatrix, TokenStatsColumns
from ktae.records import (
    TOKEN_STAT_KEYS,
    RecordError,
    _json_values,
    advantage_record_line,
    group_record_line,
    load_flat_mapping,
    parse_advantage_record,
    parse_group_record,
)

from conftest import rollout_groups

GOOD_LINE = json.dumps(
    {
        "group_id": "g1",
        "rollouts": [
            {"tokens": [1, 2, 3], "reward": 1.0, "texts": ["a", "b", "c"]},
            {"tokens": [4, 5], "reward": 0.0},
        ],
    }
)


class TestGroupRecords:
    def test_parse_good_line(self):
        group = parse_group_record(GOOD_LINE)
        assert group.group_id == "g1"
        assert group.correctness_threshold == 0.5
        assert group.rollouts[0].texts == ("a", "b", "c")
        assert group.rollouts[1].texts is None

    def test_unknown_fields_are_ignored(self):
        obj = json.loads(GOOD_LINE)
        obj["pipeline_step"] = 7
        obj["rollouts"][0]["logprobs"] = [0.1, 0.2, 0.3]
        group = parse_group_record(json.dumps(obj))
        assert group.group_id == "g1"

    def test_explicit_threshold_survives(self):
        obj = json.loads(GOOD_LINE)
        obj["correctness_threshold"] = 0.25
        assert parse_group_record(json.dumps(obj)).correctness_threshold == 0.25

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.pop("group_id"),
            lambda o: o.update(group_id=7),
            lambda o: o.pop("rollouts"),
            lambda o: o.update(rollouts="nope"),
            lambda o: o["rollouts"][0].update(tokens="abc"),
            lambda o: o["rollouts"][0].update(tokens=[1, True]),
            lambda o: o["rollouts"][0].update(tokens=[1, 2.5]),
            lambda o: o["rollouts"][0].pop("reward"),
            lambda o: o["rollouts"][0].update(reward="high"),
            lambda o: o["rollouts"][0].update(texts=[1, 2, 3]),
        ],
    )
    def test_malformed_records_are_rejected(self, mutate):
        obj = json.loads(GOOD_LINE)
        mutate(obj)
        with pytest.raises(RecordError):
            parse_group_record(json.dumps(obj))

    def test_invalid_json_is_rejected(self):
        with pytest.raises(RecordError):
            parse_group_record("{not json")
        with pytest.raises(RecordError):
            parse_group_record("[1, 2, 3]")

    @pytest.mark.parametrize("bad", [[1, True], [1, 2.0], [1, "2"]])
    def test_non_integer_tokens_keep_their_message(self, bad):
        obj = json.loads(GOOD_LINE)
        obj["rollouts"][0]["tokens"] = bad
        with pytest.raises(RecordError) as info:
            parse_group_record(json.dumps(obj))
        assert str(info.value) == "rollouts[0].tokens must be an array of integers"

    @pytest.mark.parametrize("bad", [["a", 2, "c"], ["a", None, "c"], ["a", ["b"], "c"]])
    def test_non_string_texts_keep_their_message(self, bad):
        obj = json.loads(GOOD_LINE)
        obj["rollouts"][0]["texts"] = bad
        with pytest.raises(RecordError) as info:
            parse_group_record(json.dumps(obj))
        assert str(info.value) == "rollouts[0].texts must be an array of strings"

    def test_deep_nesting_is_a_record_error(self):
        with pytest.raises(RecordError) as info:
            parse_group_record("[" * 100_000)
        assert str(info.value) == "invalid JSON: nesting too deep"
        with pytest.raises(RecordError, match="nesting too deep"):
            parse_advantage_record('{"group_id": ' + "[" * 100_000)

    def test_integer_beyond_float64_keeps_its_field_name(self):
        with pytest.raises(RecordError, match=r"^rollouts\[1\]\.reward is out of float64 range$"):
            parse_group_record(GOOD_LINE.replace('"reward": 0.0', '"reward": 1' + "0" * 400))
        with pytest.raises(RecordError, match="^correctness_threshold is out of float64 range$"):
            parse_group_record(GOOD_LINE[:-1] + ', "correctness_threshold": 1' + "0" * 400 + "}")

    def test_integer_over_the_digit_limit_is_a_record_error(self):
        with pytest.raises(RecordError, match="^invalid JSON: "):
            parse_group_record('{"group_id": "g", "rollouts": [{"tokens": [' + "1" * 5000 + '], "reward": 1}]}')

    @given(rollout_groups(graded=True))
    @settings(max_examples=100)
    def test_round_trip_is_identity(self, group):
        line = group_record_line(group)
        again = parse_group_record(line)
        assert again == group
        assert group_record_line(again) == line

    def test_round_trip_preserves_texts_presence(self):
        with_texts = RolloutGroup(
            "g",
            (
                Rollout(tokens=(1,), reward=1.0, texts=("one",)),
                Rollout(tokens=(2,), reward=0.0),
            ),
        )
        again = parse_group_record(group_record_line(with_texts))
        assert again.rollouts[0].texts == ("one",)
        assert again.rollouts[1].texts is None


class TestAdvantageRecords:
    def matrix(self):
        group = RolloutGroup(
            "g",
            (Rollout(tokens=(1, 2), reward=1.0), Rollout(tokens=(2, 3), reward=0.0)),
        )
        return group, compute_advantages(group)

    def test_shape_mirrors_the_group(self):
        group, matrix = self.matrix()
        record = parse_advantage_record(advantage_record_line(group.group_id, matrix))
        assert record.group_id == "g"
        assert len(record.rollout_advantages) == 2
        assert [len(r) for r in record.token_advantages] == [2, 2]
        assert record.token_stats is None

    def test_stats_key_by_integer_token_id(self):
        group, matrix = self.matrix()
        record = parse_advantage_record(advantage_record_line(group.group_id, matrix, token_stats(group)))
        assert set(record.token_stats) == {1, 2, 3}
        entry = record.token_stats[2]
        assert set(entry) == {"a", "b", "c", "d", "p", "F", "IG", "TF_T", "TF_F", "D", "ktv"}
        assert (entry["a"], entry["b"], entry["c"], entry["d"]) == (1, 1, 0, 0)
        assert entry["ktv"] == 0.0

    def test_values_round_trip_exactly(self):
        group, matrix = self.matrix()
        record = parse_advantage_record(advantage_record_line(group.group_id, matrix))
        assert record.rollout_advantages == matrix.rollout_advantages.tolist()
        assert record.token_advantages == [row.tolist() for row in matrix.token_advantages]

    def test_mismatched_rows_are_rejected(self):
        line = json.dumps(
            {"group_id": "g", "rollout_advantages": [1.0], "token_advantages": [[1.0], [2.0]]}
        )
        with pytest.raises(RecordError):
            parse_advantage_record(line)

    @pytest.mark.parametrize("key", ["1_0", " 7 ", "010", "-3", "+7", str(2**63), "1" * 5000])
    def test_non_canonical_stat_keys_are_rejected(self, key):
        line = json.dumps({"group_id": "g", "rollout_advantages": [0.0], "token_advantages": [[0.0]],
                           "token_stats": {key: {}, "10": {}}})
        with pytest.raises(RecordError, match=re.escape(f"token_stats key {key!r} is not")):
            parse_advantage_record(line)

    def test_canonical_stat_keys_are_kept_apart(self):
        line = json.dumps({"group_id": "g", "rollout_advantages": [0.0], "token_advantages": [[0.0]],
                           "token_stats": {"0": {"ktv": 1.0}, "10": {"ktv": 2.0}, str(MAX_TOKEN_ID): {}}})
        assert parse_advantage_record(line).token_stats == {0: {"ktv": 1.0}, 10: {"ktv": 2.0}, MAX_TOKEN_ID: {}}

    @pytest.mark.parametrize("key, line", [
        ("10", '{"group_id": "g", "rollout_advantages": [0.0], "token_advantages": [[0.0]], '
               '"token_stats": {"10": {"ktv": 1.0}, "10": {"ktv": 2.0}}}'),
        ("ktv", '{"group_id": "g", "rollout_advantages": [0.0], "token_advantages": [[0.0]], '
                '"token_stats": {"10": {"ktv": 1.0, "ktv": 2.0}}}'),
        ("group_id", '{"group_id": "h", "group_id": "g", "rollout_advantages": [0.0], "token_advantages": [[0.0]]}'),
    ], ids=["token-id", "stat", "field"])
    def test_repeated_keys_are_rejected(self, key, line):
        # json.loads alone would keep the last value of each repeated key
        with pytest.raises(RecordError, match=re.escape(f"key {key!r} appears twice in one object")):
            parse_advantage_record(line)

    @pytest.mark.parametrize("value, accepted", [
        (str(int(sys.float_info.max) + 1), True),  # rounds to the largest double
        (str(2**1024), False),
        (str(-(2**1024)), False),
        ("1e308", True),
        ("NaN", False),
        ("Infinity", False),
        ("true", False),
        ('"1"', False),
        ("null", False),
    ], ids=["max-plus-1", "2**1024", "-2**1024", "1e308", "NaN", "Infinity", "true", "string", "null"])
    @pytest.mark.parametrize("field", ["rollout_advantages", "token_advantages", "ktv"])
    def test_an_advantage_is_finite_exactly_when_a_reward_is(self, value, accepted, field):
        def accepts(parse, line):
            try:
                parse(line)
            except KtaeError:
                return False
            return True

        group_line = '{"group_id": "g", "rollouts": [{"tokens": [1], "reward": %s}, {"tokens": [2], "reward": 0}]}'
        record_line = ('{"group_id": "g", "rollout_advantages": [%s, 0], "token_advantages": [[%s], [0]], '
                       '"token_stats": {"1": {"ktv": %s}}}')
        cells = tuple(value if name == field else "0" for name in ("rollout_advantages", "token_advantages", "ktv"))
        assert accepts(parse_group_record, group_line % value) is accepted
        assert accepts(parse_advantage_record, record_line % cells) is accepted

    def test_non_integer_stat_keys_are_rejected(self):
        line = json.dumps(
            {
                "group_id": "g",
                "rollout_advantages": [0.0],
                "token_advantages": [[0.0]],
                "token_stats": {"seven": {}},
            }
        )
        with pytest.raises(RecordError):
            parse_advantage_record(line)


def reference_advantage_record_line(group_id: str, matrix, s=None) -> str:
    """The record writer as it was before the dedupe-and-gather one: build
    the whole record as a dict and dump it."""
    obj: dict = {
        "group_id": group_id,
        "rollout_advantages": matrix.rollout_advantages.tolist(),
        "token_advantages": [row.tolist() for row in matrix.token_advantages],
    }
    if s is not None:
        columns = (s.a, s.b, s.c, s.d, s.fisher_p, s.fisher_score, s.info_gain,
                   s.tf_score_true, s.tf_score_false, s.direction, s.key_token_value)
        obj["token_stats"] = {
            str(tok): dict(zip(TOKEN_STAT_KEYS, row))
            for tok, row in zip(s.tokens.tolist(), zip(*(col.tolist() for col in columns)))
        }
    return json.dumps(obj, separators=(",", ":"))


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan]


@st.composite
def wire_groups(draw):
    """Groups with binary, graded or uniform (degenerate) rewards whose token
    ids come from a small range and from just below 2^63 - 1."""
    rewards = draw(st.sampled_from(["binary", "graded", "degenerate"]))
    token = st.integers(0, 12) | st.integers(MAX_TOKEN_ID - 4, MAX_TOKEN_ID)
    rollouts = []
    for _ in range(draw(st.integers(2, 8))):
        tokens = tuple(draw(st.lists(token, min_size=1, max_size=16)))
        if rewards == "binary":
            reward = draw(st.sampled_from([0.0, 1.0]))
        elif rewards == "graded":
            reward = draw(st.floats(0.0, 1.0))
        else:
            reward = 1.0
        rollouts.append(Rollout(tokens=tokens, reward=reward))
    threshold = draw(st.sampled_from([0.5, 0.25]))
    return RolloutGroup("hyp\u00e9", tuple(rollouts), correctness_threshold=threshold)


# A small pool makes most values repeat; any float makes most of them distinct.
record_floats = st.sampled_from([*SPECIAL_FLOATS, 0.25, -1.5, 1e-300]) | st.floats()


@st.composite
def float_matrices(draw):
    """Matrices of arbitrary floats, including the non-finite ones and -0.0,
    and token stats columns of the same kind."""
    pool = draw(st.sampled_from([record_floats, st.sampled_from(SPECIAL_FLOATS)]))
    g = draw(st.integers(1, 6))
    base = np.array(draw(st.lists(pool, min_size=g, max_size=g)), dtype=np.float64)
    rows = tuple(np.array(draw(st.lists(pool, max_size=80)), dtype=np.float64) for _ in range(g))
    tokens = sorted(draw(st.sets(st.integers(0, MAX_TOKEN_ID), max_size=12)))
    k = len(tokens)
    ints = [np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), dtype=np.int64)
            for _ in range(6)]
    floats = [np.array(draw(st.lists(pool, min_size=k, max_size=k)), dtype=np.float64) for _ in range(7)]
    stats = TokenStatsColumns(np.array(tokens, dtype=np.int64), *ints[:4], *floats[:3], *ints[4:], *floats[3:])
    return AdvantageMatrix(base, rows), stats


class TestRecordWriter:
    """advantage_record_line must give the same string as dumping the dict."""

    @given(wire_groups(), st.booleans())
    @settings(max_examples=300)
    def test_matches_reference_on_computed_groups(self, group, include_stats):
        matrix, stats = compute_advantages(group), token_stats(group) if include_stats else None
        assert advantage_record_line(group.group_id, matrix, stats) == \
            reference_advantage_record_line(group.group_id, matrix, stats)

    @given(float_matrices(), st.booleans())
    @settings(max_examples=300)
    def test_matches_reference_on_arbitrary_floats(self, matrix_and_stats, include_stats):
        matrix, stats = matrix_and_stats
        stats = stats if include_stats else None
        assert advantage_record_line("g", matrix, stats) == reference_advantage_record_line("g", matrix, stats)

    @pytest.mark.parametrize("repeats", [1, 40])
    def test_special_values_keep_their_text(self, repeats):
        values = np.array(SPECIAL_FLOATS * repeats)
        matrix, stats = AdvantageMatrix(values[:2], (values[2:], values[:0])), token_stats(self.group())
        line = advantage_record_line("g", matrix, stats)
        assert line == reference_advantage_record_line("g", matrix, stats)
        assert '"rollout_advantages":[0.0,-0.0]' in line
        assert "Infinity,-Infinity,NaN" in line

    def test_wide_group_with_graded_rewards(self):
        rng = np.random.default_rng(5)
        group = RolloutGroup("wide", tuple(
            Rollout(tuple(rng.integers(0, 5000, 300).tolist()), reward=i / 15) for i in range(16)
        ))
        matrix = compute_advantages(group)
        for stats in (None, token_stats(group)):
            assert advantage_record_line("wide", matrix, stats) == \
                reference_advantage_record_line("wide", matrix, stats)

    def test_all_distinct_values(self):
        rng = np.random.default_rng(6)
        flat = rng.standard_normal(4 * 512)
        matrix = AdvantageMatrix(rng.standard_normal(4), tuple(flat.reshape(4, 512)))
        assert advantage_record_line("g", matrix) == reference_advantage_record_line("g", matrix)

    @staticmethod
    def group():
        return RolloutGroup("g", (Rollout(tokens=(1, 2), reward=1.0), Rollout(tokens=(2, 3), reward=0.0)))


class TestJsonValues:
    def test_special_values(self):
        assert _json_values(np.array(SPECIAL_FLOATS)) == ["0.0", "-0.0", "Infinity", "-Infinity", "NaN"]

    def test_one_element(self):
        assert _json_values(np.array([0.1])) == ["0.1"]

    def test_empty(self):
        assert _json_values(np.array([], dtype=np.float64)) == []

    def test_all_distinct(self):
        values = np.random.default_rng(7).standard_normal(1000)
        assert _json_values(values) == [json.dumps(v) for v in values.tolist()]

    @given(st.lists(record_floats, max_size=200))
    def test_matches_json_dumps(self, values):
        assert _json_values(np.array(values, dtype=np.float64)) == [json.dumps(v) for v in values]


def read_config(path):
    """A config file as the CLI reads it."""
    return KtaeConfig.from_dict(load_flat_mapping(path, "config"))


class TestConfigFiles:
    def test_missing_fields_take_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"h2": 3.0}))
        cfg = read_config(path)
        assert cfg.h2 == 3.0
        assert cfg.h1 == 1.0
        assert cfg.k1 == 2.0

    def test_unknown_key_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"h9": 1.0}))
        with pytest.raises(ConfigError):
            read_config(path)

    def test_invalid_value_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k1": -1.0}))
        with pytest.raises(ConfigError):
            read_config(path)

    def test_non_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("k1: 2.0")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_non_object_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config(tmp_path / "absent.json")

    def test_full_round_trip(self, tmp_path):
        cfg = KtaeConfig(h1=0.5, fisher_mode="two_sided", degenerate_policy="error")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert read_config(path) == cfg

