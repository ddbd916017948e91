"""Rollout-level baseline advantages and the token-level refinement pipeline.

The baseline is the group-normalized reward (reward minus group mean, over
group standard deviation). On top of it, each distinct token id in the group
gets one key-token-value — association strength (weighted Fisher score plus
information gain) times signed direction — and every position of that token
receives the sigmoid-shifted value as an additive delta:

    token_advantage = rollout_advantage + sigmoid(key_token_value) - 0.5

Deltas therefore live strictly inside (-0.5, 0.5), are identical across all
positions of one token id, and vanish exactly for tokens present in every
rollout. The whole computation is a pure function of (group, config):
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import frequency, stats
from .core import (
    AdvantageMatrix,
    DegenerateGroup,
    InvalidReward,
    KtaeConfig,
    RolloutGroup,
    TokenStatsColumns,
    TooFewRollouts,
    validate_group,
)

# Largest magnitude a delta may take: the predecessor of 0.5, so the strict
# |delta| < 0.5 bound survives sigmoid saturation at huge key-token-values.
DELTA_MAX = math.nextafter(0.5, 0.0)


@dataclass(frozen=True)
class GrpoBaseline:
    """Group-normalized rollout advantages and the moments behind them."""

    mean_reward: float
    std_reward: float
    advantages: np.ndarray


def grpo_advantages(rewards: Sequence[float], std_epsilon: float = 1e-8) -> GrpoBaseline:
    """(reward - mean) / max(population std, std_epsilon) per rollout.

    A group whose rewards are all equal gets exactly zero advantages; the
    epsilon guard only matters for tiny-but-nonzero variance.
    """
    arr = np.asarray(list(rewards), dtype=np.float64)
    if arr.size < 2:
        raise TooFewRollouts(f"need at least 2 rewards, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidReward("rewards must all be finite")
    with np.errstate(over="ignore"):  # overflow is caught by the finite check below
        mean = float(arr.mean())
        std = float(arr.std())
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise InvalidReward("reward magnitudes overflow float64 statistics")
    if np.all(arr == arr[0]):
        advantages = np.zeros_like(arr)
    else:
        advantages = (arr - mean) / max(std, std_epsilon)
    advantages.flags.writeable = False
    return GrpoBaseline(mean, std, advantages)


def dapo_admissible(group: RolloutGroup) -> bool:
    """True iff the group mixes correct and incorrect rollouts; groups with a
    single uniform outcome carry no contrastive signal."""
    return 0 < group.num_correct < group.size


def key_token_value(
    fisher_score: float, info_gain: float, direction: float, h1: float = 1.0, h2: float = 2.0
) -> float:
    """Association strength times direction: (h1*F + h2*IG) * D."""
    return (h1 * fisher_score + h2 * info_gain) * direction


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic 1 / (1 + exp(-x))."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_shift(x: np.ndarray) -> np.ndarray:
    """sigmoid(x) - 0.5, clamped to keep |result| strictly below 0.5 even
    where the logistic saturates to an exact 0 or 1 in floating point."""
    return np.clip(sigmoid(x) - 0.5, -DELTA_MAX, DELTA_MAX)


def _count_occurrences(group: RolloutGroup, sizes: list[int]):
    """Occurrence counts of every distinct token, from one stable sort.

    Positions are concatenated rollout-major, so the stable sort orders them
    by (token, rollout). Returns the sorted distinct ``tokens``, each
    position's ``rollout`` and ``token_index`` into ``tokens``, and per token
    the rollouts containing it on the correct side (a) and the incorrect side
    (b) and its occurrences on each side (tf_true, tf_false).
    """
    flat = np.fromiter(
        itertools.chain.from_iterable(r.tokens for r in group.rollouts), dtype=np.int64, count=sum(sizes)
    )
    rollout = np.repeat(np.arange(group.size), sizes)
    order = np.argsort(flat, kind="stable")
    sorted_tokens = flat[order]
    sorted_rollout = rollout[order]
    new_token = np.empty(flat.size, dtype=bool)
    new_token[0] = True
    np.not_equal(sorted_tokens[1:], sorted_tokens[:-1], out=new_token[1:])
    new_run = new_token.copy()  # first position of each (token, rollout) run
    new_run[1:] |= sorted_rollout[1:] != sorted_rollout[:-1]
    sorted_index = np.cumsum(new_token) - 1
    token_index = np.empty_like(sorted_index)
    token_index[order] = sorted_index
    tokens = sorted_tokens[new_token]

    correct = np.array(group.correct_mask, dtype=bool)[sorted_rollout]
    m = tokens.size
    a = np.bincount(sorted_index[new_run & correct], minlength=m)
    b = np.bincount(sorted_index[new_run & ~correct], minlength=m)
    tf_true = np.bincount(sorted_index[correct], minlength=m)
    tf_false = np.bincount(sorted_index[~correct], minlength=m)
    return tokens, rollout, token_index, a, b, tf_true, tf_false


def compute_advantages(group: RolloutGroup, config: KtaeConfig | None = None) -> AdvantageMatrix:
    """Run the full pipeline for one group and return the advantage matrix.

    Token ids are processed in sorted order and each id's statistics are
    computed once and broadcast to all of its positions. A group whose
    rollouts are all correct or all incorrect either raises DegenerateGroup
    (degenerate_policy="error") or falls through the normal math, where every
    table has an empty column, so every key-token-value is exactly zero and
    the token advantages equal the rollout baseline.
    """
    config = config if config is not None else KtaeConfig()
    group = validate_group(group)
    baseline = grpo_advantages([r.reward for r in group.rollouts], config.std_epsilon)
    if config.degenerate_policy == "error" and not dapo_admissible(group):
        raise DegenerateGroup(
            f"group {group.group_id!r} has {group.num_correct}/{group.size} correct rollouts"
        )

    sizes = [len(r.tokens) for r in group.rollouts]
    tokens, rollout, token_index, a, b, tf_true, tf_false = _count_occurrences(group, sizes)
    n_true = group.num_correct
    c = n_true - a
    d = (group.size - n_true) - b

    lngamma = stats.default_lngamma(group.size)
    if config.fisher_mode == "two_sided":
        p = stats.fisher_two_sided_prob_array(a, b, c, d, lngamma)
    else:
        p = stats.fisher_point_prob_array(a, b, c, d, lngamma)
    f_score = stats.fisher_score_array(p)
    ig = stats.info_gain_array(a, b, c, d)

    lengths = frequency.group_lengths(group)
    tfs_true = frequency.tf_score_array(tf_true, lengths.len_true, lengths.len_avg, config.k1, config.b)
    tfs_false = frequency.tf_score_array(tf_false, lengths.len_false, lengths.len_avg, config.k1, config.b)
    direction = frequency.direction_score_array(
        a, b, c, d, tfs_true, tfs_false, config.h3, config.tf_floor
    )
    ktv = (config.h1 * f_score + config.h2 * ig) * direction
    delta = sigmoid_shift(ktv)
    base, delta = _snap_to_group_grid(baseline.advantages, delta)

    flat = base[rollout] + delta[token_index]
    flat.flags.writeable = False
    return AdvantageMatrix(
        rollout_advantages=base,
        token_advantages=tuple(flat[end - n:end] for end, n in zip(itertools.accumulate(sizes), sizes)),
        token_stats=TokenStatsColumns(
            tokens, a, b, c, d, p, f_score, ig, tf_true, tf_false, tfs_true, tfs_false, direction, ktv
        ),
    )


def _snap_to_group_grid(base: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round baselines and deltas onto one power-of-two grid per group.

    With both operands on a grid coarse enough for the group's magnitude,
    every base + delta is exact and (token_advantage - rollout_advantage)
    reconstructs the per-token delta bit-for-bit in every rollout; plain
    float addition would instead round per position, letting reconstructed
    deltas drift by an ulp between rollouts or touch 0.5 exactly. The grid
    sits ~2^-52 below the group's scale, so the snap is at most one part in
    2^52 of the largest baseline.
    """
    span = float(np.max(np.abs(base))) + 0.5
    quantum = math.ldexp(1.0, math.frexp(span)[1] - 52)
    base_q = np.round(base / quantum) * quantum
    base_q.flags.writeable = False
    limit = max(0.5 - quantum, 0.0)
    delta_q = np.clip(np.round(delta / quantum) * quantum, -limit, limit)
    return base_q, delta_q
