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
from typing import Sequence

import numpy as np

from . import frequency, stats
from .core import (
    AdvantageMatrix,
    DegenerateGroup,
    EmptyGroup,
    InvalidReward,
    KtaeConfig,
    RolloutGroup,
    TokenStatsColumns,
    validate_group,
)

# Largest magnitude a delta may take: the predecessor of 0.5, so the strict
# |delta| < 0.5 bound survives sigmoid saturation at huge key-token-values.
DELTA_MAX = math.nextafter(0.5, 0.0)


def grpo_advantages(rewards: Sequence[float], std_epsilon: float = 1e-8) -> np.ndarray:
    """(reward - mean) / max(population std, std_epsilon) per rollout, as a
    read-only array.

    A group whose rewards are all equal gets exactly zero advantages; the
    epsilon guard only matters for tiny-but-nonzero variance.
    """
    try:
        arr = np.asarray(list(rewards), dtype=np.float64)
    except OverflowError:  # an integer reward beyond float64
        raise InvalidReward("rewards must all be finite") from None
    if arr.size < 2:
        raise EmptyGroup(f"need at least 2 rewards, got {arr.size}")
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
    return advantages


def dapo_admissible(group: RolloutGroup) -> bool:
    """True iff the group mixes correct and incorrect rollouts; groups with a
    single uniform outcome carry no contrastive signal."""
    return 0 < group.num_correct < group.size


def sigmoid_shift(x: np.ndarray) -> np.ndarray:
    """sigmoid(x) - 0.5, clamped to keep |result| strictly below 0.5 even
    where the logistic saturates to an exact 0 or 1 in floating point.

    The logistic 1 / (1 + exp(-x)) is evaluated in two branches that share
    e = exp(-|x|), which never overflows. -|x| is taken as minimum(x, -x) so
    that a NaN input keeps its sign bit.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.clip(np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) - 0.5, -DELTA_MAX, DELTA_MAX)


def _count_occurrences(group: RolloutGroup, sizes: list[int]):
    """Occurrence counts of every distinct token in ``group.token_ids``.

    ``np.unique`` finds the distinct tokens and each position's index into
    them; sorting the dense ``token_index * G + rollout`` keys finds each
    (token, rollout) pair once. Returns the sorted distinct ``tokens``, each
    position's ``rollout`` and ``token_index`` into ``tokens``, and per token
    the rollouts containing it on the correct side (a) and the incorrect
    side (b) and its occurrences on each side (tf_true, tf_false).
    """
    tokens, token_index = np.unique(group.token_ids, return_inverse=True)
    rollout = np.repeat(np.arange(group.size), sizes)
    correct = np.array(group.correct_mask, dtype=bool)
    m = tokens.size
    on_true = correct[rollout]
    tf_true = np.bincount(token_index[on_true], minlength=m)
    tf_false = np.bincount(token_index[~on_true], minlength=m)
    pairs = np.sort(token_index * group.size + rollout)
    new_pair = np.empty(pairs.size, dtype=bool)
    new_pair[0] = True
    np.not_equal(pairs[1:], pairs[:-1], out=new_pair[1:])
    pair_token, pair_rollout = np.divmod(pairs[new_pair], group.size)
    pair_true = correct[pair_rollout]
    a = np.bincount(pair_token[pair_true], minlength=m)
    b = np.bincount(pair_token[~pair_true], minlength=m)
    return tokens, rollout, token_index, a, b, tf_true, tf_false


def compute_advantages(group: RolloutGroup, config: KtaeConfig | None = None) -> AdvantageMatrix:
    """Run the full pipeline for one group and return the advantage matrix.

    Token ids are processed in sorted order. What depends only on a token's
    contingency table (Fisher probability and score, information gain,
    Cohen's h, association strength) is computed once per distinct table in
    the group, the frequency scores once per occurrence count, and the rest
    once per token id; each id's values are broadcast to all of its
    positions. A group whose rollouts are all correct or all incorrect either
    raises DegenerateGroup (degenerate_policy="error") or falls through the
    normal math, where every table has an empty column, so every
    key-token-value is exactly zero and the token advantages equal the
    rollout baseline.
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
    n_false = group.size - n_true
    c = n_true - a
    d = n_false - b

    # The group fixes the table margins, so each table is named by its cell
    # (a, b) and tokens share few of them. Evaluate each table present once.
    cell = a * (n_false + 1) + b
    present = np.bincount(cell) > 0
    table = np.flatnonzero(present)
    table_slot = np.empty(present.size, dtype=np.intp)
    table_slot[table] = np.arange(table.size)
    slot = table_slot[cell]
    ta, tb = np.divmod(table, n_false + 1)
    tc, td = n_true - ta, n_false - tb
    if config.fisher_mode == "two_sided":
        table_p = stats.fisher_two_sided_prob_array(ta, tb, tc, td)
    else:
        table_p = stats.fisher_point_prob_array(ta, tb, tc, td)
    table_f = stats.fisher_score_array(table_p)
    table_ig = stats.info_gain_array(ta, tb, tc, td)
    table_h = frequency.cohen_h_array(ta, tb, tc, td)
    table_strength = config.h1 * table_f + config.h2 * table_ig

    # Mean rollout lengths from exact integer sums. An empty side's TF counts
    # are all 0, so the group mean standing in for its length never shows.
    total = sum(sizes)
    total_true = sum(itertools.compress(sizes, group.correct_mask))
    len_avg = total / group.size
    tfs_true = _tf_scores(tf_true, total_true / n_true if n_true else len_avg, len_avg, config)
    tfs_false = _tf_scores(tf_false, (total - total_true) / n_false if n_false else len_avg, len_avg, config)
    direction = table_h[slot] + frequency.frequency_term_array(tfs_true, tfs_false, config.h3, config.tf_floor)
    ktv = table_strength[slot] * direction
    delta = sigmoid_shift(ktv)
    base, delta = _snap_to_group_grid(baseline, delta)

    flat = base[rollout] + delta[token_index]
    flat.flags.writeable = False
    return AdvantageMatrix(
        rollout_advantages=base,
        token_advantages=tuple(flat[end - n:end] for end, n in zip(itertools.accumulate(sizes), sizes)),
        token_stats=TokenStatsColumns(
            tokens, a, b, c, d, table_p[slot], table_f[slot], table_ig[slot],
            tf_true, tf_false, tfs_true, tfs_false, direction, ktv,
        ),
    )


def _tf_scores(tf: np.ndarray, len_side: float, len_avg: float, config: KtaeConfig) -> np.ndarray:
    """Frequency scores of one side, evaluated once per count 0..max(tf)."""
    return frequency.tf_score_array(np.arange(tf.max() + 1), len_side, len_avg, config.k1, config.b)[tf]


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
