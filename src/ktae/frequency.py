"""Term-frequency scores over the correct/incorrect rollout sides and the
two terms of the signed direction score that orients each token's association.

The frequency score is the BM25 saturation term only (no IDF, no query
structure): occurrences of a token on one side, saturating toward k1+1 and
normalized by that side's mean rollout length against the group mean.
Direction is Cohen's h between the two occurrence proportions
(cohen_h_array) plus the ratio difference of the two frequency scores
(frequency_term_array), antisymmetric under swapping the two sides. A token
concentrated on one side therefore gets a large signed value, with tf_floor
keeping the ratio finite when the other side never saw the token at all.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError


def tf_score_array(tf: np.ndarray, len_side: float, len_avg: float, k1: float, b: float) -> np.ndarray:
    """Standardized term frequency of one side: (k1+1)*tf / (k1*(1 - b + b*len_side/len_avg) + tf).

    Zero at tf = 0, strictly increasing in tf, saturating toward k1 + 1;
    len_side is constant per side.
    """
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
