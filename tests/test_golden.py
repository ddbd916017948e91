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

Every hash was re-recorded, with numpy 2.4.6, when Fisher p became exact
(integer binomials in place of log-gamma floats): p moved by up to 6.4e-15
relative, and with it the Fisher scores, key-token-values and some
advantages. The counts, information gain and direction kept their bytes.
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
    "plain": "aaed315197915f1ba131ce15667adbda2542fb0b5b585e0f142a4862bc083c8a",
    "stats": "1854b78e2f0db8e5424ec3536ab5b13aef9c5dfeb5b79873782bd7d95dc29cda",
}

WIDE_SPEC = SynthSpec(
    seed=31, num_groups=4, base_vocab=20_000, rollout_len_range=(280, 320),
    planted_positive=(20_001,), planted_negative=(20_002,), planted_neutral=(20_003,),
)

WIDE_SHA256 = {
    "plain": "23dc7542ec498d8ef082cbed0c729c91dc283ce219caa940be2d528b1b92d572",
    "stats": "eaef493bf10e9c5269b563f58ac4055de4cc712b5c7c793698cf1b3426b2f1cb",
}

# A --config file and a flag that sets a field the file leaves alone.
CONFIG_FILE = {"fisher_mode": "two_sided", "h1": 0.3, "h2": 1.7}
CONFIG_FLAGS = ["--h3", "2"]

CONFIG_SHA256 = {
    ("golden", "plain"): "db0587de01247305401877d1d0c372ed237ddf5069f0923f870f545edd00b2f2",
    ("golden", "stats"): "f30f4f799cd6e24810ccd9eccd3410c53e24782ec7caacdb4fd0637e678420ce",
    ("wide", "plain"): "48c2e2ec30bded93fa0c218ba7de262509b63aaa05abc9f37c4449212f75cc8a",
    ("wide", "stats"): "0c0b78b70d4709a460e93a85a46796dbf5370c03bf091b7d8fe6841e916fb626",
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
