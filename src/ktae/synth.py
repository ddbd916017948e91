"""Synthetic rollout groups with planted key tokens.

Real training rollouts are expensive to obtain, so recovery benchmarks run on
generated groups instead: filler tokens drawn uniformly from a small
vocabulary, plus planted tokens inserted into every rollout of a designated
side. A planted-positive token appears in every correct rollout and no
incorrect one (and mirrored for planted-negative), so the pipeline must give
it a confidently signed delta; a neutral plant appears everywhere and must
get a delta of exactly zero.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .advantage import compute_advantages
from .core import MAX_TOKEN_ID, ConfigError, KtaeConfig, Rollout, RolloutGroup


_PLANTS = ("planted_positive", "planted_negative", "planted_neutral")

# Most tokens one spec may generate, plants included: enough for any benchmark
# here (the largest generates about 272k), small enough that a typo in a spec
# fails at once instead of filling memory.
MAX_SPEC_TOKENS = 10**7


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters; the defaults define the standard benchmark."""

    seed: int = 0
    num_groups: int = 200
    group_size: int = 16
    correct_fraction: float = 0.75
    base_vocab: int = 300
    rollout_len_range: tuple[int, int] = (24, 48)
    planted_positive: tuple[int, ...] = (9001,)
    planted_negative: tuple[int, ...] = (9002,)
    planted_neutral: tuple[int, ...] = (9003,)

    def __post_init__(self) -> None:
        for name in ("rollout_len_range", *_PLANTS):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(value))
            except TypeError:
                raise ConfigError(f"{name} must be a sequence of integers, got {value!r}") from None
        for name in ("seed", "num_groups", "group_size", "base_vocab", "rollout_len_range", *_PLANTS):
            value = getattr(self, name)
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                       for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{name} must hold only integers, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_groups < 1:
            raise ConfigError(f"num_groups must be >= 1, got {self.num_groups}")
        if self.group_size < 2:
            raise ConfigError(f"group_size must be >= 2, got {self.group_size}")
        if not 1 <= self.base_vocab <= MAX_TOKEN_ID + 1:
            raise ConfigError(f"base_vocab must lie in [1, {MAX_TOKEN_ID + 1}], got {self.base_vocab}")
        if len(self.rollout_len_range) != 2 or not 1 <= self.rollout_len_range[0] <= self.rollout_len_range[1]:
            raise ConfigError(f"rollout_len_range must satisfy 1 <= lo <= hi, got {self.rollout_len_range}")
        plants = self.planted_positive + self.planted_negative + self.planted_neutral
        if len(set(plants)) != len(plants):
            raise ConfigError("planted token sets must be pairwise disjoint")
        bad = [t for t in plants if not self.base_vocab <= t <= MAX_TOKEN_ID]
        if bad:
            raise ConfigError(f"planted tokens {bad} must lie in [{self.base_vocab}, {MAX_TOKEN_ID}], "
                            "above the filler vocabulary and within int64")
        if self.num_groups * self.group_size * (self.rollout_len_range[1] + len(plants)) > MAX_SPEC_TOKENS:
            raise ConfigError(f"num_groups * group_size * (longest rollout + plants) exceeds {MAX_SPEC_TOKENS} tokens")
        if not isinstance(self.correct_fraction, numbers.Real) or not 0.0 < self.correct_fraction < 1.0:
            raise ConfigError(f"correct_fraction must be a number in (0, 1), got {self.correct_fraction!r}")
        if not 0 < self.num_correct < self.group_size:
            raise ConfigError(
                f"correct_fraction {self.correct_fraction} rounds to {self.num_correct} correct "
                f"rollouts of {self.group_size}; groups must mix both outcomes"
            )

    @property
    def num_correct(self) -> int:
        return int(round(self.correct_fraction * self.group_size))

    @classmethod
    def from_dict(cls, mapping: dict) -> "SynthSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown benchmark spec field(s): {', '.join(sorted(unknown))}")
        return cls(**mapping)


def generate(spec: SynthSpec) -> list[RolloutGroup]:
    """Deterministically generate reward-labeled groups from ``spec``.

    Rewards are binary: 1.0 for the first num_correct rollouts of each group,
    0.0 for the rest. Each planted token is inserted exactly once, at a
    uniformly random position, into every rollout of its side.
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.rollout_len_range
    groups = []
    for g in range(spec.num_groups):
        rollouts = []
        for i in range(spec.group_size):
            is_correct = i < spec.num_correct
            length = int(rng.integers(lo, hi + 1))
            tokens = rng.integers(0, spec.base_vocab, size=length).tolist()
            plants = (spec.planted_positive if is_correct else spec.planted_negative) + spec.planted_neutral
            for plant in plants:
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), plant)
            rollouts.append(
                Rollout(
                    tokens=tuple(tokens),
                    reward=1.0 if is_correct else 0.0,
                    texts=tuple(f"t{t}" for t in tokens),
                )
            )
        groups.append(RolloutGroup(group_id=f"synth-{g:04d}", rollouts=tuple(rollouts)))
    return groups


def recovery_report(groups: list[RolloutGroup], spec: SynthSpec, config: KtaeConfig | None = None) -> dict:
    """Run the pipeline over generated groups and score plant recovery.

    Reports sign accuracy of the positive/negative plants (measured on the
    actual emitted deltas), the magnitude of neutral-plant deltas, |key-token-
    value| separation between plants and filler tokens, per-group rank of each
    plant, and wall-clock cost.
    """
    config = config if config is not None else KtaeConfig()
    pos_correct = pos_total = neg_correct = neg_total = 0
    neutral_abs_deltas: list[float] = []
    plant_abs_ktv: list[float] = []
    plant_abs_delta: list[float] = []
    filler_abs_ktv: list[float] = []
    filler_abs_delta: list[float] = []
    plant_ranks: list[int] = []

    plant_set = set(spec.planted_positive) | set(spec.planted_negative) | set(spec.planted_neutral)
    started = time.perf_counter()
    matrices = [compute_advantages(group, config) for group in groups]
    elapsed = time.perf_counter() - started

    for group, matrix in zip(groups, matrices):
        s = matrix.token_stats
        deltas = _emitted_deltas(group, matrix)
        abs_ktv = np.abs(s.key_token_value)
        for tok in spec.planted_positive:
            pos_total += 1
            pos_correct += deltas.item(s.index(tok)) > 0
        for tok in spec.planted_negative:
            neg_total += 1
            neg_correct += deltas.item(s.index(tok)) < 0
        for tok in spec.planted_neutral:
            neutral_abs_deltas.append(abs(deltas.item(s.index(tok))))
        for tok in spec.planted_positive + spec.planted_negative:
            i = s.index(tok)
            plant_abs_ktv.append(abs_ktv.item(i))
            plant_abs_delta.append(abs(deltas.item(i)))
            plant_ranks.append(1 + int(np.count_nonzero(abs_ktv > abs_ktv[i])))
        filler = np.ones(s.tokens.size, dtype=bool)
        filler[[s.index(tok) for tok in plant_set]] = False
        filler_abs_ktv += abs_ktv[filler].tolist()
        filler_abs_delta += np.abs(deltas[filler]).tolist()

    filler_ktv = np.asarray(filler_abs_ktv, dtype=np.float64)
    return {
        "num_groups": len(groups),
        "spec": asdict(spec),
        "config": asdict(config),
        "sign_accuracy_positive": pos_correct / pos_total if pos_total else 1.0,
        "sign_accuracy_negative": neg_correct / neg_total if neg_total else 1.0,
        "sign_accuracy": (pos_correct + neg_correct) / (pos_total + neg_total)
        if pos_total + neg_total
        else 1.0,
        "neutral_max_abs_delta": max(neutral_abs_deltas) if neutral_abs_deltas else 0.0,
        "neutral_mean_abs_delta": float(np.mean(neutral_abs_deltas)) if neutral_abs_deltas else 0.0,
        "plant_mean_abs_ktv": float(np.mean(plant_abs_ktv)) if plant_abs_ktv else 0.0,
        "plant_mean_abs_delta": float(np.mean(plant_abs_delta)) if plant_abs_delta else 0.0,
        "filler_mean_abs_delta": float(np.mean(filler_abs_delta)) if filler_abs_delta else 0.0,
        "filler_abs_ktv_p95": float(np.percentile(filler_ktv, 95)) if filler_ktv.size else 0.0,
        "plant_rank_mean": float(np.mean(plant_ranks)) if plant_ranks else 0.0,
        "plant_rank_worst": max(plant_ranks) if plant_ranks else 0,
        "seconds_total": elapsed,
        "seconds_per_group": elapsed / len(groups) if groups else 0.0,
    }


def _emitted_deltas(group: RolloutGroup, matrix) -> np.ndarray:
    """Each token's delta as read off the emitted rows (all positions of a
    token carry the same one), aligned with ``matrix.token_stats.tokens``."""
    out = np.empty(matrix.token_stats.tokens.size)
    lengths = [len(row) for row in matrix.token_advantages]
    out[matrix.token_stats.tokens.searchsorted(group.token_ids)] = (
        np.concatenate(matrix.token_advantages) - np.repeat(matrix.rollout_advantages, lengths)
    )
    return out
