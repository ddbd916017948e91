"""Golden output: `ktae compute` on a pinned input must keep its exact bytes.

The input is a fixed SynthSpec with a small vocabulary (tokens repeat and
some appear in every rollout), plus relabeled groups that exercise the
degenerate path and graded rewards under a custom threshold. The hashes were
recorded from the scalar per-token implementation; any change to the
counting, the statistics, the grid snap or the serializer that moves a
single byte fails here.

The wide input is a few G=16 x ~300-token groups over a 20k vocabulary with
graded rewards, so most positions hold a token seen nowhere else in the group
and every rollout has its own baseline. Its hashes were recorded from the
dict + ``json.dumps`` record writer that preceded the dedupe-and-gather one.
"""

import hashlib

import pytest

from ktae import Rollout, RolloutGroup
from ktae.cli import main
from ktae.records import group_record_line
from ktae.synth import SynthSpec, generate

GOLDEN_SPEC = SynthSpec(seed=2024, num_groups=24, base_vocab=40, rollout_len_range=(6, 30))

GOLDEN_SHA256 = {
    "plain": "6adf0830506af76dbdb0fe4f51d4edc4a4991ce06830ef0b403f7235802508bf",
    "stats": "13548ba2c1cf4cfc02ff1ca5cea00df75a90b45035735ae861cc31cb785da4d6",
}

WIDE_SPEC = SynthSpec(
    seed=31, num_groups=4, base_vocab=20_000, rollout_len_range=(280, 320),
    planted_positive=(20_001,), planted_negative=(20_002,), planted_neutral=(20_003,),
)

WIDE_SHA256 = {
    "plain": "c584a0539e156a50b6e1fb2df9a77aea8bd1c979c37153207e40a1189dc28acb",
    "stats": "25b34891fbcc339e253f7aa25bf8d8b18bf98349eef537c113adba70bf1b9b67",
}


def golden_groups() -> list[RolloutGroup]:
    groups = []
    for index, group in enumerate(generate(GOLDEN_SPEC)):
        if index % 8 == 7:  # degenerate: every rollout correct
            group = RolloutGroup(group.group_id, tuple(Rollout(r.tokens, 1.0, r.texts) for r in group.rollouts))
        elif index % 8 == 3:  # graded rewards split by a custom threshold
            rewards = [i / (group.size - 1) for i in range(group.size)]
            group = RolloutGroup(
                group.group_id,
                tuple(Rollout(r.tokens, w, r.texts) for r, w in zip(group.rollouts, rewards)),
                correctness_threshold=0.4,
            )
        groups.append(group)
    return groups


def wide_groups() -> list[RolloutGroup]:
    groups = []
    for index, group in enumerate(generate(WIDE_SPEC)):
        rewards = [((i * 7 + index) % group.size) / (group.size - 1) for i in range(group.size)]
        groups.append(RolloutGroup(
            group.group_id,
            tuple(Rollout(r.tokens, w, r.texts) for r, w in zip(group.rollouts, rewards)),
            correctness_threshold=0.45,
        ))
    return groups


def compute_sha256(groups, mode, tmp_path) -> str:
    src = tmp_path / "golden.jsonl"
    src.write_text("".join(group_record_line(g) + "\n" for g in groups), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    extra = ["--stats"] if mode == "stats" else []
    assert main(["compute", "--input", str(src), "--output", str(out), *extra]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_compute_output_matches_golden_hash(mode, tmp_path):
    assert compute_sha256(golden_groups(), mode, tmp_path) == GOLDEN_SHA256[mode]


@pytest.mark.parametrize("mode", sorted(WIDE_SHA256))
def test_wide_compute_output_matches_golden_hash(mode, tmp_path):
    assert compute_sha256(wide_groups(), mode, tmp_path) == WIDE_SHA256[mode]
