"""Term-frequency scores over the correct/incorrect rollout sides and the
signed direction score that orients each token's association.

The frequency score is the BM25 saturation term only (no IDF, no query
structure): occurrences of a token on one side, saturating toward k1+1 and
normalized by that side's mean rollout length against the group mean.
Direction combines Cohen's h between the two occurrence proportions with the
ratio difference of the two frequency scores; a token concentrated on one
side therefore gets a large signed value, with tf_floor keeping the ratio
finite when the other side never saw the token at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContingencyTable, DomainError, RolloutGroup


@dataclass(frozen=True)
class GroupLengths:
    """Mean rollout token lengths: per side and across the whole group."""

    len_true: float
    len_false: float
    len_avg: float


def group_lengths(group: RolloutGroup) -> GroupLengths:
    """Side-wise mean lengths; an empty side falls back to the group mean so
    its normalization factor is neutral."""
    lengths = [len(r.tokens) for r in group.rollouts]
    len_avg = sum(lengths) / len(lengths)
    true_lengths = [n for n, ok in zip(lengths, group.correct_mask) if ok]
    false_lengths = [n for n, ok in zip(lengths, group.correct_mask) if not ok]
    len_true = sum(true_lengths) / len(true_lengths) if true_lengths else len_avg
    len_false = sum(false_lengths) / len(false_lengths) if false_lengths else len_avg
    return GroupLengths(len_true, len_false, len_avg)


def raw_term_frequencies(group: RolloutGroup, token: int) -> tuple[int, int]:
    """Total occurrence counts of ``token`` across the correct rollouts and
    across the incorrect rollouts (concatenation order is irrelevant)."""
    tf_true = tf_false = 0
    for is_correct, rollout in zip(group.correct_mask, group.rollouts):
        count = rollout.tokens.count(token)
        if is_correct:
            tf_true += count
        else:
            tf_false += count
    return tf_true, tf_false


def tf_score(tf: float, len_side: float, len_avg: float, k1: float = 2.0, b: float = 0.5) -> float:
    """Standardized term frequency: (k1+1)*tf / (k1*(1 - b + b*len_side/len_avg) + tf).

    Zero at tf = 0, strictly increasing in tf, saturating toward k1 + 1.
    """
    if len_avg <= 0:
        raise DomainError(f"len_avg must be positive, got {len_avg}")
    if tf == 0:
        return 0.0
    return (k1 + 1.0) * tf / (k1 * (1.0 - b + b * (len_side / len_avg)) + tf)


def tf_score_array(tf: np.ndarray, len_side: float, len_avg: float, k1: float, b: float) -> np.ndarray:
    """Vectorized tf_score for one side (len_side is constant per side)."""
    if len_avg <= 0:
        raise DomainError(f"len_avg must be positive, got {len_avg}")
    denom = k1 * (1.0 - b + b * (len_side / len_avg)) + tf
    return (k1 + 1.0) * tf / np.where(denom > 0.0, denom, 1.0)


def cohen_h_array(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cohen's h between the occurrence proportions of the two sides:
    arcsin(sqrt(a/(a+c))) - arcsin(sqrt(b/(b+d))), a side-less term being 0."""
    n_true = a + c
    n_false = b + d
    p_true = a / np.maximum(n_true, 1)
    p_false = b / np.maximum(n_false, 1)
    return np.where(n_true > 0, np.arcsin(np.sqrt(p_true)), 0.0) - np.where(
        n_false > 0, np.arcsin(np.sqrt(p_false)), 0.0
    )


def frequency_term_array(
    tf_score_true: np.ndarray, tf_score_false: np.ndarray, h3: float, tf_floor: float
) -> np.ndarray:
    """h3 * (T/F - F/T) on the floor-clamped frequency scores T and F."""
    t = np.maximum(tf_score_true, tf_floor)
    f = np.maximum(tf_score_false, tf_floor)
    return h3 * (t / f - f / t)


def direction_score_array(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    tf_score_true: np.ndarray,
    tf_score_false: np.ndarray,
    h3: float = 1.0,
    tf_floor: float = 1e-6,
) -> np.ndarray:
    """Signed direction of each token's association with correctness.

    Cohen's h term (cohen_h_array) plus frequency term
    (frequency_term_array). Antisymmetric under swapping the
    correct/incorrect columns together with the two frequency scores.
    """
    return cohen_h_array(a, b, c, d) + frequency_term_array(tf_score_true, tf_score_false, h3, tf_floor)


def direction_score(
    table: ContingencyTable,
    tf_score_true: float,
    tf_score_false: float,
    h3: float = 1.0,
    tf_floor: float = 1e-6,
) -> float:
    arrays = tuple(np.asarray([v], dtype=np.int64) for v in table)
    out = direction_score_array(
        *arrays,
        np.asarray([tf_score_true], dtype=np.float64),
        np.asarray([tf_score_false], dtype=np.float64),
        h3,
        tf_floor,
    )
    return float(out[0])
