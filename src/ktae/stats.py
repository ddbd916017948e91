"""Association-strength statistics per token: Fisher's exact test and
information gain over 2x2 contingency tables.

Factorials are evaluated in log space (sums and differences of ln-gamma) so
the point hypergeometric probability stays accurate for any group size; a
chi-squared approximation would be unreliable at the small sample counts
(8-16 rollouts) this package is built for. Each statistic has exactly one
kernel, vectorized over the four cell arrays (a, b, c, d) of many tables;
the exact references that certify them live in ``ktae.oracle``.
"""

from __future__ import annotations

import math

import numpy as np

# Smallest positive double: probabilities are floored here so exp underflow
# can never push them to an exact 0, which sits outside fisher_score_array's domain.
_TINY = math.nextafter(0.0, 1.0)

# Relative slack when deciding whether an enumerated table is "at most as
# likely" as the observed one; absorbs last-ulp noise on exact ties.
_TIE_SLACK = 1e-7


_ln_factorial = np.empty(0)  # ln(n!) = lgamma(n+1) for n = 0 .. len - 1, read-only


def _ln_factorials(max_n: int) -> np.ndarray:
    """The shared ln-factorial array, grown (never shrunk) to cover 0 .. max_n."""
    global _ln_factorial
    if len(_ln_factorial) <= max_n:
        size = max(max_n, 2 * (len(_ln_factorial) - 1)) + 1
        _ln_factorial = np.array([math.lgamma(i + 1) for i in range(size)], dtype=np.float64)
        _ln_factorial.flags.writeable = False
    return _ln_factorial


_ln_factorials(256)  # built at import, so no call pays for the common sizes


def _ln_comb(lf: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    return lf[n] - lf[k] - lf[n - k]


def fisher_point_prob_array(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Point hypergeometric probability, vectorized over tables.

    exp( lnC(a+b, a) + lnC(c+d, c) - lnC(n, a+c) ), clamped into (0, 1].
    Degenerate rows or columns cancel exactly and give 1.
    """
    n = a + b + c + d
    lf = _ln_factorials(int(n.max(initial=0)))
    log_p = _ln_comb(lf, a + b, a) + _ln_comb(lf, c + d, c) - _ln_comb(lf, n, a + c)
    return np.clip(np.exp(log_p), _TINY, 1.0)


def fisher_two_sided_prob_array(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Two-sided test probability: mass of all same-margin tables no more
    likely than the observed one (ties included up to a tiny relative slack).
    """
    n = a + b + c + d
    observed = fisher_point_prob_array(a, b, c, d)
    r1 = a + b
    c1 = a + c
    lo = np.maximum(0, r1 - (n - c1))
    hi = np.minimum(r1, c1)
    total = np.zeros(observed.shape, dtype=np.float64)
    for k in range(int(hi.max(initial=-1)) + 1):
        valid = (k >= lo) & (k <= hi)
        ak = np.where(valid, k, 0)
        bk = np.where(valid, r1 - k, 0)
        ck = np.where(valid, c1 - k, 0)
        dk = np.where(valid, n - r1 - c1 + k, 0)
        p_k = fisher_point_prob_array(ak, bk, ck, dk)
        total += np.where(valid & (p_k <= observed * (1.0 + _TIE_SLACK)), p_k, 0.0)
    return np.clip(total, _TINY, 1.0)


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
