"""Golden output: `ktae compute` on a pinned input must keep its exact bytes.

The input is a fixed SynthSpec with a small vocabulary (tokens repeat and
some appear in every rollout), plus relabeled groups that exercise the
degenerate path and graded rewards under a custom threshold. The hashes were
recorded from the scalar per-token implementation; any change to the
counting, the statistics, the grid snap or the serializer that moves a
single byte fails here.
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


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_compute_output_matches_golden_hash(mode, tmp_path):
    src = tmp_path / "golden.jsonl"
    src.write_text("".join(group_record_line(g) + "\n" for g in golden_groups()), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    extra = ["--stats"] if mode == "stats" else []
    assert main(["compute", "--input", str(src), "--output", str(out), *extra]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[mode]
