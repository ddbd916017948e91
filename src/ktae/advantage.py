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
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from . import frequency, stats
from .core import (
    MAX_TOKEN_ID,
    AdvantageMatrix,
    DegenerateGroup,
    InvalidGroup,
    KtaeConfig,
    RolloutGroup,
    TokenStatsColumns,
)

# Largest magnitude a delta may take: the predecessor of 0.5, so the strict
# |delta| < 0.5 bound survives sigmoid saturation at huge key-token-values.
DELTA_MAX = math.nextafter(0.5, 0.0)

# Table statistics per margin (n_T, n_F, fisher_mode), one lattice cell per
# table; whole margins are evicted least recently used past the byte budget.
# A margin holds 4 bytes per lattice cell and 32 per cell evaluated. All 257
# margins of G=256 take 22.9 MB of lattice in both Fisher modes, which leaves
# room for about 1.4 million evaluated cells.
_MEMO_BYTES = 1 << 26
_memo: OrderedDict[tuple[int, int, str], tuple[np.ndarray, np.ndarray]] = OrderedDict()
_memo_lock = threading.Lock()


def grpo_advantages(rewards: Sequence[float], std_epsilon: float = KtaeConfig.std_epsilon) -> np.ndarray:
    """(reward - mean) / max(population std, std_epsilon) per rollout, as a
    read-only array.

    A group whose rewards are all equal gets exactly zero advantages; the
    epsilon guard only matters for tiny-but-nonzero variance. Rewards whose
    moments overflow float64 are first divided by their largest magnitude.
    """
    try:
        arr = np.asarray(list(rewards), dtype=np.float64)
    except OverflowError:  # an integer reward beyond float64
        raise InvalidGroup("rewards must all be finite") from None
    if arr.size < 2:
        raise InvalidGroup(f"need at least 2 rewards, got {arr.size}")
    if not np.isfinite(arr).all():
        raise InvalidGroup("rewards must all be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum makes the std inf or NaN
        # arr.mean() and arr.std(), the mean taken once.
        mean = float(np.add.reduce(arr)) / arr.size
        deviation = arr - mean
        std = math.sqrt(float(np.add.reduce(deviation * deviation)) / arr.size)
    if not math.isfinite(std):
        scale = float(np.abs(arr).max())
        return grpo_advantages(arr / scale, std_epsilon / scale)
    if (arr == arr[0]).all():
        advantages = np.zeros_like(arr)
    else:
        advantages = deviation / max(std, std_epsilon)
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


def _count_occurrences(ids: np.ndarray, sizes: list[int], correct: tuple[bool, ...]):
    """Occurrence counts of every distinct token in the id column ``ids``,
    whose rollouts have lengths ``sizes`` and correctness ``correct``.

    One ``np.sort`` of the keys ``id << shift | position``, where ``shift`` is
    the bit length of the position count, lists each token's positions in
    rollout order; an id above ``MAX_TOKEN_ID >> shift`` does not fit beside a
    position, so then the key holds its rank from ``np.unique`` instead. The
    low bits give the positions by token (``order``), and a running count of
    token changes each one's ``rank`` in the sorted distinct ``tokens``. One
    ``np.bincount`` of ``rank * 2 + side`` (side 1 if incorrect) gives each
    token's occurrences per side (tf_true, tf_false), and one of the same keys
    where the token or the rollout changes its rollouts per side (a, b). Also
    returns ``order``, ``rank`` and each sorted position's ``rollout``.
    """
    shift = ids.size.bit_length()
    tokens = None
    if ids.max() > MAX_TOKEN_ID >> shift:
        tokens, ids = np.unique(ids, return_inverse=True)
    keys = np.sort(ids << shift | np.arange(ids.size))
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    new_token = np.empty(keys.size, dtype=bool)
    new_token[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_token[1:])
    if tokens is None:
        tokens = keys[new_token]
    rank = np.cumsum(new_token) - 1
    rollout = np.repeat(np.arange(len(sizes)), sizes)[order]
    side_key = rank * 2 + np.logical_not(correct)[rollout]
    m2 = 2 * tokens.size
    tf_true, tf_false = np.bincount(side_key, minlength=m2).reshape(-1, 2).T
    new_token[1:] |= rollout[1:] != rollout[:-1]
    a, b = np.bincount(side_key[new_token], minlength=m2).reshape(-1, 2).T
    return tokens, order, rank, rollout, a, b, tf_true, tf_false


def compute_advantages(group: RolloutGroup, config: KtaeConfig | None = None) -> AdvantageMatrix:
    """Run the full pipeline for one group and return the advantage matrix.

    The group checked its rules when it was built, so none is checked here.
    What depends only on a token's contingency table (Fisher probability and
    score, information gain, Cohen's h) is computed once per margin cell per
    process, the frequency scores once per occurrence count, and the rest once
    per key (a, b, tf_true, tf_false), or per token id where the lattice of
    keys is larger than the id count, then gathered to every position. A group
    whose rollouts are all correct or all incorrect either raises
    DegenerateGroup (degenerate_policy="error") or skips the kernel: every
    table has an empty column, so F = IG = 0, every delta is exactly 0.0, and
    the token advantages equal the rollout baseline. The matrix holds only its
    two arrays; ``token_stats`` builds a group's per-token statistics.
    """
    config = config if config is not None else KtaeConfig()
    baseline = grpo_advantages([r.reward for r in group.rollouts], config.std_epsilon)
    sizes = [len(r.tokens) for r in group.rollouts]
    if dapo_admissible(group):
        correct = group.correct_mask
        _, order, rank, rollout, a, b, tf_true, tf_false = _count_occurrences(group.token_ids, sizes, correct)
        tops = int(tf_true.max()), int(tf_false.max())
        rank, counts = _by_key(correct, tops, rank, a, b, tf_true, tf_false)
        ktv = _token_values(config, sizes, correct, *counts, tops)[-1]
        base, delta = _snap_to_group_grid(baseline, sigmoid_shift(ktv))
        flat = np.empty(order.size)
        flat[order] = base[rollout] + delta[rank]
    elif config.degenerate_policy == "error":
        raise DegenerateGroup(f"group {group.group_id!r} has {group.num_correct}/{group.size} correct rollouts")
    else:
        base = _snap_to_group_grid(baseline, np.zeros(0))[0]
        flat = np.repeat(base, sizes) + 0.0  # base + delta: a -0.0 baseline gives 0.0
    flat.flags.writeable = False
    rows = tuple(flat[end - n:end] for end, n in zip(itertools.accumulate(sizes), sizes))
    return AdvantageMatrix(rollout_advantages=base, token_advantages=rows)


def token_stats(group: RolloutGroup, config: KtaeConfig | None = None) -> TokenStatsColumns:
    """The group's per-token statistics, one row per distinct token id.

    A pure function of (group, config), counted from the group's id column;
    it serves degenerate groups too (their tables have an empty column, so
    F = IG = 0) and never reads ``degenerate_policy``.
    """
    config = config if config is not None else KtaeConfig()
    sizes = [len(r.tokens) for r in group.rollouts]
    correct = group.correct_mask
    tokens, _, _, _, a, b, tf_true, tf_false = _count_occurrences(group.token_ids, sizes, correct)
    n_true = sum(correct)
    tops = tf_true.max(), tf_false.max()
    values, index, *scores = _token_values(config, sizes, correct, a, b, tf_true, tf_false, tops)
    return TokenStatsColumns(tokens, a, b, n_true - a, len(correct) - n_true - b, *values[:3, index],
                             tf_true, tf_false, *scores)


def _by_key(correct: tuple[bool, ...], tops: tuple[int, int], rank, a, b, tf_true, tf_false):
    """``rank`` and the counts moved from ids to the distinct keys (a, b, tf_true,
    tf_false), found by marking each in the lattice of all keys without a sort;
    both as given where the lattice has more cells than there are ids."""
    n_true = sum(correct)
    lattice = (n_true + 1, len(correct) - n_true + 1, tops[0] + 1, tops[1] + 1)
    if math.prod(lattice) > a.size:
        return rank, (a, b, tf_true, tf_false)
    key = ((a * lattice[1] + b) * lattice[2] + tf_true) * lattice[3] + tf_false
    slot = np.zeros(math.prod(lattice), dtype=np.intp)
    slot[key] = 1
    distinct = np.flatnonzero(slot)
    slot[distinct] = np.arange(distinct.size)
    return slot[key][rank], np.unravel_index(distinct, lattice)


def _token_values(config: KtaeConfig, sizes: list[int], correct: tuple[bool, ...], a, b, tf_true, tf_false, tops):
    """Each token's memo column, TF scores, direction and key-token-value, from
    its table and TF counts, whose maxima are ``tops``; also the memo values."""
    n_true = sum(correct)
    n_false = len(correct) - n_true
    values, index = _table_stats(n_true, n_false, config.fisher_mode, a * (n_false + 1) + b)
    # Mean rollout lengths from exact integer sums. An empty side's TF counts
    # are all 0, so the group mean standing in for its length never shows.
    total = sum(sizes)
    total_true = sum(itertools.compress(sizes, correct))
    len_avg = total / len(sizes)
    tfs_true = _tf_scores(tf_true, tops[0], total_true / n_true if n_true else len_avg, len_avg, config)
    tfs_false = _tf_scores(tf_false, tops[1], (total - total_true) / n_false if n_false else len_avg, len_avg, config)
    direction = values[3][index] + frequency.frequency_term_array(tfs_true, tfs_false, config.h3, config.tf_floor)
    # Strength once per evaluated cell, then gathered with Cohen's h.
    strength = (config.h1 * values[1] + config.h2 * values[2])[index]
    return values, index, tfs_true, tfs_false, direction, strength * direction


def _table_stats(n_true: int, n_false: int, fisher_mode: str, cell: np.ndarray):
    """The memo values of one margin (rows: Fisher p, Fisher score,
    information gain, Cohen's h) and each cell's column in them.

    The margins fix every table a group can have, so each table is named by
    its cell a*(n_false+1) + b. A cell is evaluated once per process while its
    margin stays in the memo. The kernels are elementwise, so a value does not
    depend on which call filled its cell. values is never written once
    built, so callers may keep it.
    """
    key = (n_true, n_false, fisher_mode)
    with _memo_lock:
        entry = _memo.pop(key, None)
        grown = entry is None
        if grown:
            # slot[cell] is the cell's column in values; column 0 stands for
            # "not evaluated yet". Only evaluated cells take value memory, so
            # a cold call touches few fresh pages.
            entry = np.zeros((n_true + 1) * (n_false + 1), dtype=np.int32), np.zeros((4, 1))
        slot, values = entry
        index = slot[cell]
        missing = index == 0
        if missing.any():
            # Each missing cell once. Not np.unique: without return_inverse,
            # its first call in a process imports numpy.ma, about 14 ms.
            todo = np.sort(cell[missing])
            todo = todo[np.concatenate(([True], todo[1:] != todo[:-1]))]
            ta, tb = np.divmod(todo, n_false + 1)
            tc, td = n_true - ta, n_false - tb
            p = stats.fisher_prob_array(n_true, n_false, ta, tb, fisher_mode)
            slot[todo] = np.arange(values.shape[1], values.shape[1] + todo.size)
            values = np.concatenate((values, (p, stats.fisher_score_array(p), stats.info_gain_array(ta, tb, tc, td),
                                              frequency.cohen_h_array(ta, tb, tc, td))), axis=1)
            index = slot[cell]
            grown = True
        held = slot.nbytes + values.nbytes
        if held <= _MEMO_BYTES:  # a margin over the whole budget is evaluated, not held
            if grown:  # make room for the margin's new bytes
                held += sum(s.nbytes + v.nbytes for s, v in _memo.values())
                while held > _MEMO_BYTES:
                    s, v = _memo.popitem(last=False)[1]
                    held -= s.nbytes + v.nbytes
            _memo[key] = slot, values
        return values, index


def _tf_scores(tf: np.ndarray, top: int, len_side: float, len_avg: float, config: KtaeConfig) -> np.ndarray:
    """Frequency scores of one side, evaluated once per count 0..top, top = max(tf)."""
    return frequency.tf_score_array(np.arange(top + 1), len_side, len_avg, config.k1, config.b)[tf]


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
    span = float(np.abs(base).max()) + 0.5
    quantum = math.ldexp(1.0, math.frexp(span)[1] - 52)
    base_q = np.rint(base / quantum) * quantum
    base_q.flags.writeable = False
    limit = max(0.5 - quantum, 0.0)
    delta_q = np.clip(np.rint(delta / quantum) * quantum, -limit, limit)
    return base_q, delta_q
