"""Association-strength statistics per token: Fisher's exact test and
information gain over 2x2 contingency tables.

Fisher's p is computed from Python integers: the binomial coefficients of a
margin are built once per call, same-margin tables are compared by their
integer numerators over one shared denominator, and the one final
``int / int`` division is correctly rounded. So p is the nearest double to
the exact rational at any group size, ties are decided exactly, and no bit
depends on CPU dispatch; a chi-squared approximation would be unreliable at
the small sample counts (8-16 rollouts) this package is built for. Each
other statistic has exactly one kernel, vectorized over the four cell arrays
(a, b, c, d) of many tables; the exact references that certify them live in
``ktae.oracle``.
"""

from __future__ import annotations

import math

import numpy as np

# Smallest positive double: probabilities are floored here so a quotient that
# underflows (thousands of rollouts) is never an exact 0, which sits outside
# fisher_score_array's domain.
_TINY = math.nextafter(0.0, 1.0)


def _binomial_row(n: int) -> list[int]:
    """C(n, k) for k = 0 .. n, by the exact multiplicative recurrence."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def fisher_prob_array(n_true: int, n_false: int, a: np.ndarray, b: np.ndarray, fisher_mode: str) -> np.ndarray:
    """Fisher's test probability of each table (a, b, n_true - a, n_false - b)
    of one margin, where a and b count the correct and incorrect rollouts
    that contain a token.

    The point probability is C(n_true, a) * C(n_false, b) / C(n, a + b).
    "two_sided" sums it over every same-margin table (same a + b) no more
    likely than the observed one, ties included. Sums are exact, the one
    division is correctly rounded, and p is floored at the smallest positive
    double.
    """
    row_t, row_f, row_n = _binomial_row(n_true), _binomial_row(n_false), _binomial_row(n_true + n_false)
    numerators: dict[int, list[int]] = {}  # a + b -> the numerators of every table with that row sum
    p = []
    for ak, bk in zip(a.tolist(), b.tolist()):
        r = ak + bk
        mass = row_t[ak] * row_f[bk]
        if fisher_mode == "two_sided":
            if r not in numerators:
                numerators[r] = [row_t[k] * row_f[r - k] for k in range(max(0, r - n_false), min(r, n_true) + 1)]
            mass = sum(x for x in numerators[r] if x <= mass)
        p.append(mass / row_n[r])
    return np.maximum(np.array(p, dtype=np.float64), _TINY)


def fisher_score_array(p: np.ndarray) -> np.ndarray:
    """Map test probabilities in (0, 1] to association strengths in {0} U (e^-2, 1).

    Complete no-association (p = 1, within 1e-12) scores exactly 0; as p falls
    toward 0 the score exp(-2p) rises toward 1, amplifying differences between
    the small probabilities where the evidence actually lives.
    """
    return np.where(np.abs(p - 1.0) <= 1e-12, 0.0, np.exp(-2.0 * p))


def _xlog2x(p: np.ndarray) -> np.ndarray:
    # p * log2(p) with the 0 * log2(0) := 0 convention, no epsilon inside logs
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log2(safe), 0.0)


def binary_entropy_from_counts(k: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Entropy in bits of a (k, n-k) split; an empty split (n = 0) gives 0."""
    n_safe = np.maximum(n, 1)
    h = -(_xlog2x(k / n_safe) + _xlog2x((n - k) / n_safe))
    return np.where(n > 0, h, 0.0)


def info_gain_array(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Entropy reduction of correctness from observing token occurrence, clamped at 0.

    The conditional entropy is the mixture of the contains/omits branch
    entropies; a branch with zero weight contributes nothing.
    """
    n = a + b + c + d
    contains = a + b
    omits = c + d
    h_contains = binary_entropy_from_counts(a, contains)
    h_omits = binary_entropy_from_counts(c, omits)
    h_y = binary_entropy_from_counts(a + c, n)
    return np.maximum(h_y - ((contains / n) * h_contains + (omits / n) * h_omits), 0.0)
