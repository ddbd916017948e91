"""Line-delimited wire formats and flat config files.

One JSON object per line, so arbitrarily large rollout dumps stream with
bounded memory. Group records are the input side; advantage records mirror
the input shape exactly and optionally carry per-token diagnostics. Unknown
fields in records are ignored; unknown fields in config files are errors.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MAX_TOKEN_ID, ConfigError, KtaeError, Rollout, RolloutGroup

TOKEN_STAT_KEYS = ("a", "b", "c", "d", "p", "F", "IG", "TF_T", "TF_F", "D", "ktv")


class RecordError(KtaeError):
    """Malformed wire record."""


@dataclass
class AdvantageRecord:
    """Wire-level result for one group; shape mirrors the input group."""

    group_id: str
    rollout_advantages: list[float]
    token_advantages: list[list[float]]
    token_stats: dict[int, dict] | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RecordError(message)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A number that float64 holds as a finite value: no NaN, infinity or huge int."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _parse_json_line(line: str, object_pairs_hook=None) -> dict:
    try:
        obj = json.loads(line, object_pairs_hook=object_pairs_hook)
    except ValueError as exc:  # JSONDecodeError, or an integer over Python's digit limit
        raise RecordError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise RecordError("invalid JSON: nesting too deep") from None
    _require(isinstance(obj, dict), "record must be a JSON object")
    return obj


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; RecordError if it names a key twice, which
    json.loads would otherwise merge into the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise RecordError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return obj


def parse_group_record(line: str) -> RolloutGroup:
    """Parse one group line: RecordError if malformed, InvalidGroup if it breaks a group rule."""
    obj = _parse_json_line(line)
    group_id = obj.get("group_id")
    _require(isinstance(group_id, str), "group_id must be a string")
    threshold = _float(obj.get("correctness_threshold", 0.5), "correctness_threshold")
    raw_rollouts = obj.get("rollouts")
    _require(isinstance(raw_rollouts, list), "rollouts must be an array")
    rollouts = []
    for i, raw in enumerate(raw_rollouts):
        _require(isinstance(raw, dict), f"rollouts[{i}] must be an object")
        tokens = raw.get("tokens")
        # json.loads makes no int subclass but bool, so an exact type check suffices.
        _require(
            isinstance(tokens, list) and set(map(type, tokens)) <= {int},
            f"rollouts[{i}].tokens must be an array of integers",
        )
        reward = _float(raw.get("reward"), f"rollouts[{i}].reward")
        texts = raw.get("texts")
        if texts is not None:
            _require(
                isinstance(texts, list) and set(map(type, texts)) <= {str},
                f"rollouts[{i}].texts must be an array of strings",
            )
        rollouts.append(Rollout(tokens=tokens, reward=reward, texts=texts))
    return RolloutGroup(group_id=group_id, rollouts=rollouts, correctness_threshold=threshold)


def _float(value, name: str) -> float:
    """``value`` as a float; RecordError for a non-number or an int beyond float64."""
    _require(_is_number(value), f"{name} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise RecordError(f"{name} is out of float64 range") from None


def group_record_line(group: RolloutGroup) -> str:
    """Serialize a group back to its wire line."""
    rollouts = []
    for r in group.rollouts:
        entry: dict = {"tokens": list(r.tokens), "reward": r.reward}
        if r.texts is not None:
            entry["texts"] = list(r.texts)
        rollouts.append(entry)
    obj = {
        "group_id": group.group_id,
        "correctness_threshold": group.correctness_threshold,
        "rollouts": rollouts,
    }
    return _dumps(obj)


def advantage_record_line(group_id: str, matrix, stats=None) -> str:
    """Serialize an AdvantageMatrix for one group to its wire line, with the
    group's TokenStatsColumns ``stats`` as its token_stats when given.

    Every position of a token id carries the same delta and rollouts share
    few baselines, so a group holds few distinct numbers: each is formatted
    once and its text gathered to every position that holds it. The bytes
    are those of ``json.dumps`` of the record with compact separators.
    """
    base_text, rows_text = _json_arrays(matrix.rollout_advantages, matrix.token_advantages)
    parts = ['{"group_id":', json.dumps(group_id), ',"rollout_advantages":', base_text,
             ',"token_advantages":', rows_text]
    if stats is not None:
        parts += [',"token_stats":{', _token_stats_body(stats), "}"]
    parts.append("}")
    return "".join(parts)


def _json_arrays(base: np.ndarray, rows) -> tuple[str, str]:
    """Compact JSON text of the array ``base`` and of the array of ``rows``."""
    values = np.concatenate([base, *rows]).astype(np.float64, copy=False)
    texts = _json_values(values)
    ends = list(itertools.accumulate([len(base), *map(len, rows)]))
    rows_text = ",".join("[" + ",".join(texts[start:end]) + "]" for start, end in zip(ends, ends[1:]))
    return "[" + ",".join(texts[:ends[0]]) + "]", "[" + rows_text + "]"


_STATS_ENTRY = "{" + ",".join(f'"{key}":%s' for key in TOKEN_STAT_KEYS) + "}"


def _token_stats_body(s) -> str:
    """``"<token>":{"a":…,…,"ktv":…}`` for every token, comma-joined. Each key
    (a, b, tf_true, tf_false) has one entry, formatted once and gathered to its
    tokens, unless some column differs within a key (then one per token)."""
    columns = (s.a, s.b, s.c, s.d, s.fisher_p, s.fisher_score, s.info_gain,
               s.tf_score_true, s.tf_score_false, s.direction, s.key_token_value)
    spans = [int(column.max(initial=0)) + 1 for column in (s.b, s.tf_true, s.tf_false)]
    distinct, inverse = _distinct(((s.a * spans[0] + s.b) * spans[1] + s.tf_true) * spans[2] + s.tf_false)
    first = np.empty(distinct.size, dtype=np.intp)
    first[inverse] = np.arange(inverse.size)
    if any((column[first][inverse].view(np.int64) != column.view(np.int64)).any() for column in columns):
        first = inverse = np.arange(inverse.size)
    rows = zip(*(_json_numbers(column[first].tolist()) for column in columns))
    pieces = ['"'] * (2 * inverse.size + 1)  # token texts alternate with '":<entry>,"'
    pieces[1::2] = _json_numbers(s.tokens.tolist())
    pieces[2::2] = np.array(['":' + _STATS_ENTRY % row + ',"' for row in rows], dtype=object)[inverse].tolist()
    pieces[-1] = pieces[-1][:-2]
    return "".join(pieces)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct elements of the int64 array ``keys`` and each
    element's index in them, from one ``np.sort`` and no ``argsort``."""
    ordered = np.sort(keys)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))[:keys.size]]
    return distinct, np.searchsorted(distinct, keys)


def _json_values(values: np.ndarray) -> list[str]:
    """JSON text of each element of a float64 or int64 array. The distinct
    bit patterns (``-0.0`` apart from ``0.0``) are formatted by one dump."""
    bits, inverse = _distinct(values.view(np.int64))
    texts = np.array(_json_numbers(bits.view(values.dtype).tolist()), dtype=object)
    return texts[inverse].tolist()


def _json_numbers(values: list) -> list[str]:
    """JSON text of each number in ``values``, from one C-level dump (no JSON
    number contains a comma)."""
    return _dumps(values)[1:-1].split(",") if values else []


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def parse_advantage_record(line: str) -> AdvantageRecord:
    obj = _parse_json_line(line, _unique_keys)
    group_id = obj.get("group_id")
    _require(isinstance(group_id, str), "group_id must be a string")
    rollout_adv = obj.get("rollout_advantages")
    _require(
        isinstance(rollout_adv, list) and all(map(_is_finite, rollout_adv)),
        "rollout_advantages must be an array of finite numbers",
    )
    token_adv = obj.get("token_advantages")
    _require(isinstance(token_adv, list), "token_advantages must be an array of arrays")
    for i, row in enumerate(token_adv):
        _require(
            isinstance(row, list) and all(map(_is_finite, row)),
            f"token_advantages[{i}] must be an array of finite numbers",
        )
    _require(len(token_adv) == len(rollout_adv), "token_advantages must have one row per rollout")
    stats = obj.get("token_stats")
    parsed_stats = None
    if stats is not None:
        _require(isinstance(stats, dict), "token_stats must be an object keyed by token id")
        parsed_stats = {}
        for key, entry in stats.items():
            try:
                tok = int(key)
            except ValueError:  # not an integer, or over Python's digit limit
                tok = -1
            # Only the canonical decimal: int() also takes "010", " 7 " and "1_0", which would merge keys.
            _require(str(tok) == key and 0 <= tok <= MAX_TOKEN_ID,
                     f"token_stats key {key!r} is not a token id in canonical decimal")
            _require(isinstance(entry, dict), f"token_stats[{key}] must be an object")
            _require(_is_finite(entry.get("ktv", 0.0)), f"token_stats[{key}].ktv must be a finite number")
            parsed_stats[tok] = entry
    return AdvantageRecord(
        group_id=group_id,
        rollout_advantages=[float(v) for v in rollout_adv],
        token_advantages=[[float(v) for v in row] for row in token_adv],
        token_stats=parsed_stats,
    )


def load_flat_mapping(path: str | Path, what: str) -> dict:
    """Read a JSON object from ``path``; any failure is a ConfigError naming ``what``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{what} file {path} is not valid JSON: nesting too deep") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return obj
