"""Correctness checks applied to every output the benchmark times.

Each function returns a list of human-readable problems; an empty list means
the output passed. The checks read only the advantage rows and the wire
records, never the program's in-memory per-token statistics, so they hold
across internal refactors.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from ktae.core import RolloutGroup
from ktae.oracle import brute_force_stats, fisher_exact_rational

FISHER_RTOL = 1e-9
FISHER_SAMPLES = 3  # tokens per --stats row checked against the exact oracle
LIBRARY_SAMPLES = 2  # rows per output compared with the library result


def advantage_problems(
    group: RolloutGroup,
    base,
    rows,
    degenerate: bool,
    positive: tuple[int, ...] = (),
    negative: tuple[int, ...] = (),
) -> list[str]:
    """The paper's invariants on one group's rollout baselines and token rows.

    Every |delta| < 0.5; all positions of a token id carry bit-identical
    deltas; a token present in every rollout has delta exactly 0; degenerate
    groups have zero deltas and baselines; otherwise planted tokens have the
    planted sign.
    """
    gid = group.group_id
    base = np.asarray(base, dtype=np.float64)
    if base.shape != (group.size,) or len(rows) != group.size:
        return [f"{gid}: expected {group.size} rollouts, got {base.size} baselines and {len(rows)} rows"]
    deltas = []
    for i, (rollout, row) in enumerate(zip(group.rollouts, rows)):
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (len(rollout.tokens),):
            return [f"{gid}: rollout {i} has {row.size} advantages for {len(rollout.tokens)} tokens"]
        deltas.append(row - base[i])
    delta = np.concatenate(deltas)
    tokens = np.concatenate([np.asarray(r.tokens, dtype=np.int64) for r in group.rollouts])
    rollout_of = np.repeat(np.arange(group.size), [len(r.tokens) for r in group.rollouts])

    problems = []
    if not np.all(np.abs(delta) < 0.5):
        problems.append(f"{gid}: a delta is not finite or has |delta| >= 0.5")
    uniq, first, inverse = np.unique(tokens, return_index=True, return_inverse=True)
    per_token = delta[first]
    if not np.array_equal(delta.view(np.uint64), per_token[inverse].view(np.uint64)):
        problems.append(f"{gid}: positions of one token id carry different deltas")
    pairs = np.unique(rollout_of * len(uniq) + inverse)
    presence = np.bincount(pairs % len(uniq), minlength=len(uniq))
    if np.any(per_token[presence == group.size] != 0.0):
        problems.append(f"{gid}: a token present in every rollout has a nonzero delta")
    if degenerate:
        if np.any(delta != 0.0) or np.any(base != 0.0):
            problems.append(f"{gid}: degenerate group has a nonzero delta or baseline")
        return problems
    for planted, sign, side in ((positive, 1.0, "positive"), (negative, -1.0, "negative")):
        at = np.minimum(np.searchsorted(uniq, planted), len(uniq) - 1)
        if not np.all((uniq[at] == planted) & (sign * per_token[at] > 0.0)):
            problems.append(f"{gid}: a planted {side} token is missing or has the wrong sign")
    return problems


def fisher_problems(group: RolloutGroup, token_stats: dict, tokens) -> list[str]:
    """Compare the wire-format table and Fisher p of ``tokens`` with the exact oracle."""
    problems = []
    for tok in tokens:
        entry = token_stats.get(str(tok))
        if entry is None:
            problems.append(f"{group.group_id}: token {tok} missing from token_stats")
            continue
        table = brute_force_stats(group, tok)
        if tuple(entry[k] for k in "abcd") != tuple(table):
            problems.append(f"{group.group_id}: token {tok} table {entry} != {tuple(table)}")
            continue
        exact = fisher_exact_rational(table)
        if abs(Fraction(entry["p"]) - exact) > FISHER_RTOL * exact:
            problems.append(f"{group.group_id}: token {tok} Fisher p {entry['p']!r} != {float(exact)!r}")
    return problems


def record_matches_library(record: dict, matrix) -> list[str]:
    """A `ktae compute` output row must equal the library result for the same group."""
    rows = [row.tolist() for row in matrix.token_advantages]
    if record["rollout_advantages"] != matrix.rollout_advantages.tolist() or record["token_advantages"] != rows:
        return [f"{record['group_id']}: CLI row differs from compute_advantages"]
    return []


def output_problems(path: Path, inputs, rng, library) -> list[str]:
    """Check one `ktae compute` output file against its inputs.

    Every row gets the invariants; rows with token_stats get the Fisher
    oracle on FISHER_SAMPLES sampled tokens; LIBRARY_SAMPLES sampled rows
    are compared with ``library(group)``.
    """
    problems = []
    sampled = set(rng.choice(len(inputs.groups), size=min(LIBRARY_SAMPLES, len(inputs.groups)),
                             replace=False).tolist())
    rows = 0
    with open(path, "r", encoding="utf-8") as handle:
        for index, (group, line) in enumerate(zip(inputs.groups, handle)):
            rows += 1
            try:
                record = json.loads(line)
                if record.get("group_id") != group.group_id:
                    return problems + [f"{path.name} row {index}: group_id {record.get('group_id')!r}, "
                                       f"expected {group.group_id!r}"]
                problems += advantage_problems(
                    group, record["rollout_advantages"], record["token_advantages"],
                    group.group_id in inputs.degenerate, inputs.positive, inputs.negative,
                )
                if "token_stats" in record:
                    distinct = sorted({t for r in group.rollouts for t in r.tokens})
                    picked = rng.choice(distinct, size=min(FISHER_SAMPLES, len(distinct)), replace=False).tolist()
                    problems += fisher_problems(group, record["token_stats"], picked)
                if index in sampled:
                    problems += record_matches_library(record, library(group))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                problems.append(f"{path.name} row {index}: malformed record: {exc!r}")
        rows += sum(1 for _ in handle)
    if rows != len(inputs.groups):
        problems.append(f"{path.name}: {rows} output rows for {len(inputs.groups)} input groups")
    return problems
