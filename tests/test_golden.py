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

On both inputs, a run under a non-default config (a ``--config`` file plus a
flag) has its own hashes, and a ``--parallel 2`` run must match the serial
hashes.
"""

import hashlib
import json

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

# A --config file and a flag that sets a field the file leaves alone.
CONFIG_FILE = {"fisher_mode": "two_sided", "h1": 0.3, "h2": 1.7}
CONFIG_FLAGS = ["--h3", "2"]

CONFIG_SHA256 = {
    ("golden", "plain"): "374d3735935e2a6b80fe6325ff860869f0e672a161ddcba849b5625b1f371580",
    ("golden", "stats"): "a9b90e263b39ab54aba0ff6fffb3d3a7af299049993def7dd7ba39ad5ae86635",
    ("wide", "plain"): "d751d3c01e819620ea8853bb06095098a349689af68a0357e9399abc1f7257ad",
    ("wide", "stats"): "5a8d2f3fc66014608fa669a00f2b1712ab93cbf5c65a5a2750c7218265ce6025",
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


INPUTS = {"golden": (golden_groups, GOLDEN_SHA256), "wide": (wide_groups, WIDE_SHA256)}


def compute_sha256(groups, mode, tmp_path, *flags) -> str:
    src = tmp_path / "golden.jsonl"
    src.write_text("".join(group_record_line(g) + "\n" for g in groups), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    extra = ["--stats"] if mode == "stats" else []
    assert main(["compute", "--input", str(src), "--output", str(out), *extra, *flags]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_compute_output_matches_golden_hash(mode, tmp_path):
    assert compute_sha256(golden_groups(), mode, tmp_path) == GOLDEN_SHA256[mode]


@pytest.mark.parametrize("mode", sorted(WIDE_SHA256))
def test_wide_compute_output_matches_golden_hash(mode, tmp_path):
    assert compute_sha256(wide_groups(), mode, tmp_path) == WIDE_SHA256[mode]


@pytest.mark.parametrize("name, mode", sorted(CONFIG_SHA256))
def test_config_file_and_flag_output_matches_golden_hash(name, mode, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG_FILE), encoding="utf-8")
    groups = INPUTS[name][0]()
    assert compute_sha256(groups, mode, tmp_path, "--config", str(config), *CONFIG_FLAGS) == CONFIG_SHA256[name, mode]


@pytest.mark.parametrize("name, mode", [(name, mode) for name in sorted(INPUTS) for mode in ("plain", "stats")])
def test_parallel_output_matches_the_serial_golden_hash(name, mode, tmp_path):
    make_groups, hashes = INPUTS[name]
    assert compute_sha256(make_groups(), mode, tmp_path, "--parallel", "2") == hashes[mode]
