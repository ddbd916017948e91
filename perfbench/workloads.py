"""Seeded inputs for the benchmark workloads.

Every input is built from ``ktae.synth.generate`` plus this module's own
relabeling and JSONL writer; the program under test only ever receives the
resulting groups (library calls) or lines (``ktae compute``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ktae.core import Rollout, RolloutGroup, validate_group
from ktae.synth import SynthSpec, generate


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is recorded in BENCHMARK.json and README.md
    # "library": tokens_per_s is a closed loop of compute_advantages calls;
    # "cli": tokens_per_s is serial `ktae compute` passes over the JSONL.
    mode: str
    # SynthSpec fields other than seed and num_groups.
    spec: dict
    # Groups generated: each CLI pass reads all of them, the library loop
    # cycles over all of them.
    num_groups: int
    keep_texts: bool
    # group_ms_p50 over each group's fastest call in the run instead of over
    # every call. Only for calls far shorter than the host's fast and slow
    # spells, where the per-call median falls between the two (see README.md).
    p50_of_best: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide",
            mode="library",
            spec=dict(base_vocab=50_000, rollout_len_range=(1022, 1022), planted_positive=(50_001,),
                      planted_negative=(50_002,), planted_neutral=(50_003,)),
            num_groups=8,
            keep_texts=False,
        ),
        Workload(
            name="small",
            mode="cli",
            spec={},
            num_groups=128,
            keep_texts=True,
            p50_of_best=True,
        ),
    )
}


@dataclass
class Inputs:
    """One workload's generated groups and what the checks know about them."""

    workload: Workload
    groups: list[RolloutGroup]  # validated, in file order
    lines: list[str]  # the same groups as JSONL records
    degenerate: frozenset[str]  # ids of the relabeled groups
    positive: tuple[int, ...]  # planted tokens that must get a positive delta
    negative: tuple[int, ...]
    distinct: dict[str, int]  # group id -> distinct token ids
    sizes: list[int]  # response tokens of each group
    tokens: int  # response tokens over all groups


def build(workload: Workload, seed: int) -> Inputs:
    spec = SynthSpec(seed=seed, num_groups=workload.num_groups, **workload.spec)
    # Only the CLI workload (small) has degenerate groups: every fourth group is
    # relabeled all-correct or all-incorrect, alternating. Every wide group keeps
    # the criterion-9 labels, 12 of 16 correct.
    every = 4 if workload.mode == "cli" else 0
    groups, degenerate = [], set()
    for index, group in enumerate(generate(spec)):
        rewards = [r.reward for r in group.rollouts]
        if every and index % every == every - 1:
            uniform = 1.0 if (index // every) % 2 == 0 else 0.0
            rewards = [uniform] * group.size
            degenerate.add(group.group_id)
        rollouts = tuple(
            Rollout(r.tokens, reward, r.texts if workload.keep_texts else None)
            for r, reward in zip(group.rollouts, rewards)
        )
        groups.append(validate_group(RolloutGroup(group.group_id, rollouts)))
    sizes = [sum(len(r.tokens) for r in g.rollouts) for g in groups]
    return Inputs(
        workload=workload,
        groups=groups,
        lines=[group_line(g) for g in groups],
        degenerate=frozenset(degenerate),
        positive=spec.planted_positive,
        negative=spec.planted_negative,
        distinct={g.group_id: len({t for r in g.rollouts for t in r.tokens}) for g in groups},
        sizes=sizes,
        tokens=sum(sizes),
    )


def group_line(group: RolloutGroup) -> str:
    """The group's input record, written without the program's own serializer."""
    rollouts = []
    for r in group.rollouts:
        entry = {"tokens": list(r.tokens), "reward": r.reward}
        if r.texts is not None:
            entry["texts"] = list(r.texts)
        rollouts.append(entry)
    return json.dumps({"group_id": group.group_id, "rollouts": rollouts}, separators=(",", ":"))
