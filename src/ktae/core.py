"""Domain types, configuration, and validation shared by the whole pipeline.

A rollout group bundles the G reward-labeled token sequences sampled for one
prompt. Correctness is derived from each reward by a strict threshold
(reward > threshold means correct), which reduces to the usual binary case
for {0, 1} rewards. A group checks its rules when it is built; all types
are immutable and safe to share across workers.
"""

import array
import itertools
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Literal, get_args

import numpy as np

FisherMode = Literal["point", "two_sided"]
DegeneratePolicy = Literal["zeros", "error"]

# Token ids are counted as int64; larger ids are rejected at validation.
MAX_TOKEN_ID = 2**63 - 1

# Largest table total oracle.compare_fast_vs_exact sweeps: its cost grows as
# N^4 (814k tables at 64). A single table takes any total. Defined here so the
# CLI parser can name it without importing the oracle.
MAX_EXACT_N = 64


class KtaeError(Exception):
    """Base class for every error raised by this package."""


class InvalidGroup(KtaeError):
    """A group, or its reward list, breaks an input rule; the message names the rule."""


class DegenerateGroup(KtaeError):
    """Every rollout shares one correctness label and the policy forbids it."""


class DomainError(KtaeError):
    """A kernel or oracle argument lies outside the domain it accepts."""


class ConfigError(KtaeError):
    """A config or spec value, a config or spec file, or a flag violates its constraints."""


@dataclass(frozen=True)
class Rollout:
    """One sampled response: token ids, optional display texts, scalar reward.

    ``tokens`` holds response tokens only; prompt tokens never enter any
    statistic. ``texts`` exists purely for rendering and must align
    one-to-one with ``tokens`` when present.
    """

    tokens: tuple[int, ...]
    reward: float
    texts: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", _as_tuple(self.tokens, "rollout tokens"))
        if self.texts is not None:
            object.__setattr__(self, "texts", _as_tuple(self.texts, "rollout texts"))


@dataclass(frozen=True)
class RolloutGroup:
    """The unit of computation: all rollouts sampled for one prompt. Building
    one checks the group rules (validate_group), so every group is valid."""

    group_id: str
    rollouts: tuple[Rollout, ...]
    correctness_threshold: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "rollouts", _as_tuple(self.rollouts, "rollouts"))
        validate_group(self)

    @property
    def size(self) -> int:
        return len(self.rollouts)

    @cached_property
    def token_ids(self) -> np.ndarray:
        """Every rollout's token ids, concatenated in order, as one read-only
        int64 array, built once while the constructor checks the ids."""
        ids = array.array("q", list(itertools.chain.from_iterable(r.tokens for r in self.rollouts)))
        column = np.frombuffer(ids, dtype=np.int64)
        column.flags.writeable = False
        return column

    @cached_property
    def correct_mask(self) -> tuple[bool, ...]:
        """Per-rollout correctness: reward strictly above the threshold."""
        thr = self.correctness_threshold
        return tuple(r.reward > thr for r in self.rollouts)

    @property
    def num_correct(self) -> int:
        return sum(self.correct_mask)


@dataclass(frozen=True)
class KtaeConfig:
    """Weights and numeric guards for the token-level advantage computation.

    h1/h2 weight the Fisher score and information gain inside the association
    strength, h3 weights the term-frequency ratio inside the direction score.
    k1 and b are the saturation and length-normalization parameters of the
    standardized term frequency. tf_floor keeps the direction score finite
    when a token is absent from one side; std_epsilon guards zero reward
    variance. A field's type (float, or a Literal of the accepted strings)
    drives its check and its ``ktae`` override flag.

    So that no computed value overflows float64, (k1 + 1) * 2**63, the TF
    ratio bound (k1 + 1) / tf_floor, the frequency term's |h3| * that ratio,
    and the key-token-value's (h1 + h2) * (pi/2 + that term) must all stay
    finite with 4x to spare; otherwise the config is a ConfigError.
    """

    h1: float = 1.0
    h2: float = 2.0
    h3: float = 1.0
    k1: float = 2.0
    b: float = 0.5
    std_epsilon: float = 1e-8
    tf_floor: float = 1e-6
    fisher_mode: FisherMode = "point"
    degenerate_policy: DegeneratePolicy = "zeros"

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type is float:
                value = getattr(self, f.name)
                if not _is_finite_number(value):
                    raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
                object.__setattr__(self, f.name, float(value))
        if self.h1 < 0 or self.h2 < 0:
            raise ConfigError(f"h1 and h2 must be non-negative, got h1={self.h1}, h2={self.h2}")
        if self.k1 <= 0:
            raise ConfigError(f"k1 must be positive, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ConfigError(f"b must lie in [0, 1], got {self.b}")
        if self.std_epsilon <= 0:
            raise ConfigError(f"std_epsilon must be positive, got {self.std_epsilon}")
        if self.tf_floor <= 0:
            raise ConfigError(f"tf_floor must be positive, got {self.tf_floor}")
        ratio = (self.k1 + 1.0) / self.tf_floor
        direction = math.pi / 2 + abs(self.h3) * ratio
        bounds = ((self.k1 + 1.0) * 2.0**63, ratio, direction, (self.h1 + self.h2) * direction)
        if not all(math.isfinite(4.0 * bound) for bound in bounds):
            raise ConfigError(f"h1={self.h1}, h2={self.h2}, h3={self.h3}, k1={self.k1} and tf_floor={self.tf_floor} "
                              "let key-token-values overflow float64")
        for f in fields(self):
            choices, value = get_args(f.type), getattr(self, f.name)
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be {' or '.join(map(repr, choices))}, got {value!r}")

    @classmethod
    def from_dict(cls, mapping: dict) -> "KtaeConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        return cls(**mapping)


@dataclass(frozen=True, eq=False)
class TokenStatsColumns:
    """Per-token statistics of one group, one read-only array per quantity.

    Row i of every column belongs to ``tokens[i]``; ``tokens`` is sorted and
    distinct, and ``index`` finds a token's row. ``tokens``, ``a``-``d`` and
    the TF counts are int64, every other column float64.
    """

    tokens: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    fisher_p: np.ndarray
    fisher_score: np.ndarray
    info_gain: np.ndarray
    tf_true: np.ndarray
    tf_false: np.ndarray
    tf_score_true: np.ndarray
    tf_score_false: np.ndarray
    direction: np.ndarray
    key_token_value: np.ndarray

    def __post_init__(self) -> None:
        for column in vars(self).values():
            column.flags.writeable = False

    def index(self, token: int) -> int:
        """Row of ``token`` in the columns; KeyError when the group lacks it."""
        try:
            t = operator.index(token)
        except TypeError:
            raise KeyError(token) from None
        i = int(self.tokens.searchsorted(t)) if 0 <= t <= MAX_TOKEN_ID else len(self.tokens)
        if i == len(self.tokens) or self.tokens[i] != t:
            raise KeyError(token)
        return i


@dataclass(frozen=True, eq=False)
class AdvantageMatrix:
    """Final output: rollout-level baselines plus per-position refinements.

    token_advantages[i] aligns with rollouts[i].tokens; every position of a
    given token id inside the group carries the same (token - rollout)
    advantage delta, and that delta always lies strictly inside (-0.5, 0.5).
    Matrices compare and hash by identity, as their arrays have no truth value.
    """

    rollout_advantages: np.ndarray
    token_advantages: tuple[np.ndarray, ...]


def validate_group(group: RolloutGroup) -> RolloutGroup:
    """Check the group rules and warm the correctness partition and the
    token-id column; RolloutGroup's constructor calls this on every group.

    Returns the same (immutable) group on success so call sites can chain.
    """
    if not isinstance(group.group_id, str):
        raise InvalidGroup(f"group_id must be a string, got {group.group_id!r}")
    if group.size < 2:
        raise InvalidGroup(f"group {group.group_id!r} has {group.size} rollout(s); need at least 2")
    threshold = group.correctness_threshold
    if not _is_finite_number(threshold):
        raise InvalidGroup(f"group {group.group_id!r}: correctness_threshold {threshold!r} is not a finite number")
    for i, rollout in enumerate(group.rollouts):
        if not isinstance(rollout, Rollout):
            raise InvalidGroup(f"group {group.group_id!r}: rollout {i} is not a Rollout")
        if len(rollout.tokens) == 0:
            raise InvalidGroup(f"group {group.group_id!r}: rollout {i} has no tokens")
        if rollout.texts is not None and len(rollout.texts) != len(rollout.tokens):
            raise InvalidGroup(
                f"group {group.group_id!r}: rollout {i} has {len(rollout.texts)} texts "
                f"for {len(rollout.tokens)} tokens"
            )
        if not _is_finite_number(rollout.reward):
            raise InvalidGroup(
                f"group {group.group_id!r}: rollout {i} reward {rollout.reward!r} is not a finite number"
            )
    # What the id column rejects, and negative ids, are worded by the
    # per-rollout scan.
    try:
        valid_ids = group.token_ids.min() >= 0
    except (TypeError, OverflowError):
        valid_ids = False
    if not valid_ids:
        _check_token_ids(group)
    group.correct_mask  # populate the cached partition
    return group


def _as_tuple(value, what: str) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise InvalidGroup(f"{what} must be a sequence, got {type(value).__name__}") from None


def _is_finite_number(value) -> bool:
    """True for an int or float, not a bool, that float64 holds as a finite value."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond float64's range
        return False


def _check_token_ids(group: RolloutGroup) -> None:
    """Raise InvalidGroup naming the first rollout with a bad token id."""
    for i, rollout in enumerate(group.rollouts):
        if not all(isinstance(t, (int, np.integer)) for t in rollout.tokens):
            raise InvalidGroup(f"group {group.group_id!r}: rollout {i} contains a non-integer token id")
        if min(rollout.tokens) < 0:
            raise InvalidGroup(f"group {group.group_id!r}: rollout {i} contains a negative token id")
        if max(rollout.tokens) > MAX_TOKEN_ID:
            raise InvalidGroup(f"group {group.group_id!r}: rollout {i} contains a token id above {MAX_TOKEN_ID}")
