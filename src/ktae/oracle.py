"""Slow, exact reference implementations for validating the fast paths.

Everything here runs on arbitrary-precision integers (``fractions.Fraction``,
``math.comb``) or naive per-rollout scans, trading speed for certainty. The
production code must agree with these answers; these never import from the
fast numeric paths they certify, except where a comparison harness
explicitly pits the two against each other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np

from .core import MAX_EXACT_N, DomainError, KtaeConfig, RolloutGroup, TokenStatsColumns


class ContingencyTable(NamedTuple):
    """2x2 occurrence-vs-correctness counts for one token type.

    a: correct rollouts containing the token    b: incorrect, containing
    c: correct rollouts omitting the token      d: incorrect, omitting
    """

    a: int
    b: int
    c: int
    d: int

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    def check(self) -> "ContingencyTable":
        if min(self) < 0:
            raise DomainError(f"contingency counts must be non-negative, got {self}")
        return self


def fisher_exact_rational(table: ContingencyTable) -> Fraction:
    """Point hypergeometric probability of a 2x2 table, as an exact rational.

    C(a+b, a) * C(c+d, c) / C(n, a+c) with the table margins held fixed.
    """
    a, b, c, d = table.check()
    return Fraction(comb(a + b, a) * comb(c + d, c), comb(table.n, a + c))


def same_margin_tables(table: ContingencyTable) -> list[ContingencyTable]:
    """All tables sharing the row and column margins of ``table``."""
    r1, c1, n = table.a + table.b, table.a + table.c, table.n
    lo = max(0, r1 - (n - c1))
    hi = min(r1, c1)
    return [ContingencyTable(k, r1 - k, c1 - k, n - r1 - c1 + k) for k in range(lo, hi + 1)]


def fisher_two_sided_enum(table: ContingencyTable) -> Fraction:
    """Two-sided test probability by exhaustive same-margin enumeration.

    Sums the point probabilities of every table (same margins) whose point
    probability is at most the observed one; comparisons are exact, so ties
    are included with no floating-point hedging.
    """
    observed = fisher_exact_rational(table)
    total = Fraction(0)
    for candidate in same_margin_tables(table):
        p = fisher_exact_rational(candidate)
        if p <= observed:
            total += p
    return total


def brute_force_stats(group: RolloutGroup, token: int) -> ContingencyTable:
    """Build one token's contingency table by naive membership scans.

    Rebuilds each rollout's token set from scratch on every call; exists to
    cross-check any optimized occurrence indexing.
    """
    a = b = c = d = 0
    for is_correct, rollout in zip(group.correct_mask, group.rollouts):
        present = token in set(rollout.tokens)
        if is_correct:
            a += present
            c += not present
        else:
            b += present
            d += not present
    return ContingencyTable(a, b, c, d)


def raw_term_frequencies(group: RolloutGroup, token: int) -> tuple[int, int]:
    """Total occurrence counts of ``token`` across the correct rollouts and
    across the incorrect rollouts, by one naive ``count`` per rollout."""
    tf_true = tf_false = 0
    for is_correct, rollout in zip(group.correct_mask, group.rollouts):
        count = rollout.tokens.count(token)
        if is_correct:
            tf_true += count
        else:
            tf_false += count
    return tf_true, tf_false


class ReferenceAdvantages(NamedTuple):
    """What reference_advantages computes for one group, with no grid snap."""

    rollout_advantages: tuple[float, ...]
    token_advantages: tuple[tuple[float, ...], ...]
    token_stats: TokenStatsColumns
    deltas: np.ndarray  # sigmoid(key_token_value) - 0.5, read-only float64 aligned with token_stats.tokens


def _entropy_bits(k: int, n: int) -> float:
    """Entropy of a (k, n - k) split; 0 for an empty or pure split."""
    if n == 0:
        return 0.0
    return -sum(x * math.log2(x) for x in (k / n, (n - k) / n) if x > 0.0)


def reference_advantages(group: RolloutGroup, config: KtaeConfig | None = None) -> ReferenceAdvantages:
    """The whole pipeline as a plain per-token loop, for checking the fast path.

    Each distinct token gets its table from brute_force_stats, its term
    frequencies from raw_term_frequencies, its Fisher
    probability as an exact Fraction (point or same-margin enumeration), and
    information gain, term-frequency scores, direction and key-token-value
    from direct float formulas. Nothing is snapped to a grid, so values agree
    with compute_advantages to rounding, not bit for bit. Degenerate groups
    go through the same math, as under degenerate_policy="zeros". Rewards
    whose exact-sum moments overflow float64 are first divided by their
    largest magnitude, and std_epsilon with them.
    """
    config = config if config is not None else KtaeConfig()
    rewards = [r.reward for r in group.rollouts]
    base = [0.0] * len(rewards)
    if any(r != rewards[0] for r in rewards):
        for scale in (1.0, max(map(abs, rewards))):
            scaled = [r / scale for r in rewards]
            try:
                mean = math.fsum(scaled) / len(scaled)
                std = math.sqrt(math.fsum((r - mean) ** 2 for r in scaled) / len(scaled))
            except OverflowError:
                continue
            if math.isfinite(std):  # r - mean itself can overflow to inf
                break
        base = [(r - mean) / max(std, config.std_epsilon / scale) for r in scaled]

    lengths = [len(r.tokens) for r in group.rollouts]
    len_avg = sum(lengths) / len(lengths)
    side_lengths = {
        side: [n for n, ok in zip(lengths, group.correct_mask) if ok == side] for side in (True, False)
    }
    len_side = {side: sum(ls) / len(ls) if ls else len_avg for side, ls in side_lengths.items()}

    def saturated_tf(tf: int, side: bool) -> float:
        if tf == 0:
            return 0.0
        return (config.k1 + 1.0) * tf / (config.k1 * (1.0 - config.b + config.b * len_side[side] / len_avg) + tf)

    rows: list[tuple] = []
    deltas: dict[int, float] = {}
    for token in sorted({t for r in group.rollouts for t in r.tokens}):
        table = brute_force_stats(group, token)
        a, b, c, d = table
        n = table.n
        exact_p = (fisher_two_sided_enum if config.fisher_mode == "two_sided" else fisher_exact_rational)(table)
        p = float(exact_p)
        fisher_score = 0.0 if exact_p == 1 else math.exp(-2.0 * p)
        cond = ((a + b) / n) * _entropy_bits(a, a + b) + ((c + d) / n) * _entropy_bits(c, c + d)
        info_gain = max(_entropy_bits(a + c, n) - cond, 0.0)

        tf_true, tf_false = raw_term_frequencies(group, token)
        score_true, score_false = saturated_tf(tf_true, True), saturated_tf(tf_false, False)
        cohen_h = (math.asin(math.sqrt(a / (a + c))) if a + c else 0.0) - (
            math.asin(math.sqrt(b / (b + d))) if b + d else 0.0
        )
        t, f = max(score_true, config.tf_floor), max(score_false, config.tf_floor)
        direction = cohen_h + config.h3 * (t / f - f / t)
        ktv = (config.h1 * fisher_score + config.h2 * info_gain) * direction

        rows.append((int(token), *table, p, fisher_score, info_gain, tf_true, tf_false,
                     score_true, score_false, direction, ktv))
        if ktv >= 0:
            deltas[token] = 1.0 / (1.0 + math.exp(-ktv)) - 0.5
        else:
            deltas[token] = math.exp(ktv) / (1.0 + math.exp(ktv)) - 0.5

    # Columns with the kernel's dtypes: the counts int64, the rest float64.
    token_stats = TokenStatsColumns(*(np.array(column, dtype=np.float64 if isinstance(column[0], float) else np.int64)
                                      for column in zip(*rows)))
    advantages = tuple(tuple(level + deltas[t] for t in r.tokens) for level, r in zip(base, group.rollouts))
    delta_column = np.fromiter(deltas.values(), dtype=np.float64, count=len(deltas))  # sorted token order
    delta_column.flags.writeable = False
    return ReferenceAdvantages(tuple(base), advantages, token_stats, delta_column)


def compare_fast_vs_exact(max_n: int) -> tuple[float, ContingencyTable | None]:
    """Exhaustively pit the package's Fisher point probability against the rational one.

    Returns the worst relative error over all tables with 1 <= n <= max_n and
    the table achieving it. ``stats.fisher_prob_array`` is called once per
    margin (n_true, n_false), on every table of that margin, as
    compute_advantages calls it.
    """
    from . import stats

    if max_n > MAX_EXACT_N:
        raise DomainError(f"max_n {max_n} exceeds exact bound {MAX_EXACT_N}")
    worst_err = 0.0
    worst_table: ContingencyTable | None = None
    for n in range(1, max_n + 1):
        for n_true in range(n + 1):
            n_false = n - n_true
            a, b = np.divmod(np.arange((n_true + 1) * (n_false + 1)), n_false + 1)
            fast = stats.fisher_prob_array(n_true, n_false, a, b, "point")
            for ak, bk, p in zip(a.tolist(), b.tolist(), fast.tolist()):
                table = ContingencyTable(ak, bk, n_true - ak, n_false - bk)
                exact = fisher_exact_rational(table)
                rel = abs(Fraction(p) - exact) / exact
                if rel > worst_err:
                    worst_err, worst_table = float(rel), table
    return worst_err, worst_table
