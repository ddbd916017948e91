import argparse
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ktae.cli as cli
from ktae import ConfigError, KtaeConfig, RolloutGroup
from ktae.cli import _process_line, main
from ktae.oracle import ContingencyTable
from ktae.records import group_record_line, load_flat_mapping, parse_advantage_record
from ktae.synth import SynthSpec, generate

from conftest import rollout_groups

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def batch(tmp_path):
    spec = SynthSpec(num_groups=10, base_vocab=40, rollout_len_range=(6, 10))
    path = tmp_path / "groups.jsonl"
    with open(path, "w") as handle:
        for group in generate(spec):
            handle.write(group_record_line(group) + "\n")
    return path


def read_lines(path):
    return [line for line in Path(path).read_text().splitlines() if line]


def usable_cpus(monkeypatch, n):
    """Let ``ktae compute`` see ``n`` CPUs in its affinity set, and twice as many on the host."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2 * n)


def _exit_on_line_40(item, config, include_stats):
    """A worker that dies on input line 40, as one killed for memory would."""
    if item[0] == 40:
        os._exit(1)
    return _process_line(item, config, include_stats)


class TestCompute:
    def test_empty_input_gives_empty_output(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text("")
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(src), "--output", str(out)]) == 0
        assert out.read_text() == ""

    def test_one_record_per_input_line(self, batch, tmp_path):
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(out)]) == 0
        inputs = read_lines(batch)
        outputs = read_lines(out)
        assert len(outputs) == len(inputs)
        for raw_in, raw_out in zip(inputs, outputs):
            assert json.loads(raw_out)["group_id"] == json.loads(raw_in)["group_id"]

    def test_output_order_matches_input_even_in_parallel(self, batch, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(serial), "--stats"]) == 0
        assert main(["compute", "--input", str(batch), "--output", str(parallel), "--stats", "--parallel", "3"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_malformed_record_stops_with_line_number(self, batch, tmp_path, capsys):
        lines = read_lines(batch)
        lines.insert(1, json.dumps({"group_id": "tiny", "rollouts": [{"tokens": [1], "reward": 1.0}]}))
        src = tmp_path / "bad.jsonl"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(src), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "line 2: InvalidGroup: group 'tiny' has 1 rollout(s); need at least 2" in err
        assert len(read_lines(out)) == 1  # the record before the bad line

    def test_skip_bad_continues(self, batch, tmp_path, capsys):
        lines = read_lines(batch)
        lines.insert(0, "{broken")
        src = tmp_path / "bad.jsonl"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(src), "--output", str(out), "--skip-bad"]) == 0
        assert len(read_lines(out)) == len(lines) - 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_token_id_beyond_int64_is_a_bad_record(self, batch, tmp_path, capsys, parallel):
        lines = read_lines(batch)
        huge = {"group_id": "huge", "rollouts": [{"tokens": [1, 2**63], "reward": 1.0},
                                                 {"tokens": [1], "reward": 0.0}]}
        lines.insert(2, json.dumps(huge))
        src = tmp_path / "huge.jsonl"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        args = ["compute", "--input", str(src), "--output", str(out), "--parallel", parallel]
        assert main(args + ["--skip-bad"]) == 0
        assert "line 3: InvalidGroup: group 'huge': rollout 0 contains a token id above" in capsys.readouterr().err
        assert [json.loads(l)["group_id"] for l in read_lines(out)] == \
            [json.loads(l)["group_id"] for l in lines if '"huge"' not in l]
        assert main(args) == 1
        assert "line 3: InvalidGroup: group 'huge': rollout 0 contains a token id above" in capsys.readouterr().err
        assert len(read_lines(out)) == 2

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_reward_beyond_float64_is_a_bad_record(self, batch, tmp_path, capsys, parallel):
        lines = read_lines(batch)
        lines.insert(1, lines[0].replace('"reward":1.0', '"reward":1' + "0" * 400, 1))
        src = tmp_path / "big.jsonl"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        args = ["compute", "--input", str(src), "--output", str(out), "--parallel", parallel]
        assert main(args + ["--skip-bad"]) == 0
        assert "line 2: RecordError: rollouts[0].reward is out of float64 range" in capsys.readouterr().err
        assert len(read_lines(out)) == len(lines) - 1
        assert main(args) == 1
        assert "line 2: RecordError" in capsys.readouterr().err
        assert len(read_lines(out)) == 1

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_line_that_is_not_utf8_is_a_bad_record(self, batch, tmp_path, capsys, parallel):
        raw = batch.read_bytes().splitlines(keepends=True)
        raw.insert(1, b'{"group_id": "caf\xe9"}\n')
        src = tmp_path / "latin1.jsonl"
        src.write_bytes(b"".join(raw))
        out = tmp_path / "out.jsonl"
        args = ["compute", "--input", str(src), "--output", str(out), "--parallel", parallel]
        assert main(args + ["--skip-bad"]) == 0
        assert "line 2: RecordError: line is not valid UTF-8" in capsys.readouterr().err
        assert len(read_lines(out)) == len(raw) - 1
        assert main(args) == 1
        assert "line 2: RecordError" in capsys.readouterr().err
        assert len(read_lines(out)) == 1

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_deeply_nested_line_is_a_bad_record(self, batch, tmp_path, capsys, parallel):
        lines = read_lines(batch)
        lines.insert(1, "[" * 100_000)
        src = tmp_path / "deep.jsonl"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        args = ["compute", "--input", str(src), "--output", str(out), "--parallel", parallel]
        assert main(args + ["--skip-bad"]) == 0
        assert "line 2: RecordError: invalid JSON: nesting too deep" in capsys.readouterr().err
        assert len(read_lines(out)) == len(lines) - 1
        assert main(args) == 1
        assert "line 2: RecordError: invalid JSON: nesting too deep" in capsys.readouterr().err
        assert len(read_lines(out)) == 1

    def test_deeply_nested_config_file_exits_2(self, batch, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"h1":' + "[" * 100_000)
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(out), "--config", str(cfg)]) == 2
        assert "nesting too deep" in capsys.readouterr().err

    def test_config_value_beyond_float64_exits_2(self, batch, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"h1": 1' + "0" * 400 + "}")
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(out), "--config", str(cfg)]) == 2
        assert "h1 must be a finite number" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_exits_2(self, batch, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"k1": 1.5, "note": "\xff"}')
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(out), "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_blank_lines_are_ignored(self, batch, tmp_path):
        src = tmp_path / "gaps.jsonl"
        src.write_text("\n\n" + "\n\n".join(read_lines(batch)) + "\n\n")
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(src), "--output", str(out)]) == 0
        assert len(read_lines(out)) == len(read_lines(batch))

    def test_stats_flag_controls_diagnostics(self, batch, tmp_path):
        out = tmp_path / "out.jsonl"
        main(["compute", "--input", str(batch), "--output", str(out)])
        assert parse_advantage_record(read_lines(out)[0]).token_stats is None
        main(["compute", "--input", str(batch), "--output", str(out), "--stats"])
        assert parse_advantage_record(read_lines(out)[0]).token_stats

    def test_flags_override_config_file(self, tmp_path, capsys):
        # degenerate group: the file says zeros, the flag flips to error
        group = {"group_id": "all1", "rollouts": [{"tokens": [1], "reward": 1.0}, {"tokens": [2], "reward": 1.0}]}
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(group) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degenerate_policy": "zeros"}))
        out = tmp_path / "out.jsonl"
        args = ["compute", "--input", str(src), "--output", str(out), "--config", str(cfg)]
        assert main(args) == 0
        assert main(args + ["--degenerate-policy", "error"]) == 1
        assert "DegenerateGroup" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "bench"])
    def test_every_config_field_has_exactly_one_override_flag(self, command):
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        overrides = [a for a in subparsers.choices[command]._actions if a.dest.startswith("cfg_")]
        names = [f.name for f in dataclasses.fields(KtaeConfig)]
        assert sorted(a.dest for a in overrides) == sorted(f"cfg_{name}" for name in names)
        assert [a.option_strings for a in overrides] == [[f"--{name.replace('_', '-')}"] for name in names]
        assert {a.dest: a.choices for a in overrides if a.choices} == {
            "cfg_fisher_mode": ("point", "two_sided"), "cfg_degenerate_policy": ("zeros", "error")}
        # Each flag sets its own field.
        required = ["--input", "in.jsonl", "--output", "out.jsonl"] if command == "compute" else []
        for a in overrides:
            name = a.dest[len("cfg_"):]
            value = a.choices[-1] if a.choices else "0.25"
            args = subparsers.choices[command].parse_args([*required, a.option_strings[0], value])
            assert getattr(cli.resolve_config(args), name) == (value if a.choices else 0.25)

    def test_rewards_whose_moments_overflow_give_a_record(self, tmp_path):
        group = {"group_id": "huge", "rollouts": [{"tokens": [1, 2], "reward": 0.0},
                                                   {"tokens": [1, 3], "reward": 1e300}]}
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(group) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(src), "--output", str(out)]) == 0
        assert parse_advantage_record(read_lines(out)[0]).rollout_advantages == [-1.0, 1.0]

    def test_bad_config_file_exits_2(self, batch, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k1": -3}))
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(out), "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_file_is_validated_before_flags_apply(self, batch, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h1": -1}))
        out = tmp_path / "out.jsonl"
        args = ["compute", "--input", str(batch), "--output", str(out), "--config", str(cfg), "--h1", "1"]
        assert main(args) == 2
        assert "h1 and h2 must be non-negative" in capsys.readouterr().err

    def test_memory_error_is_one_error_line(self, batch, tmp_path, capsys, monkeypatch):
        def exhausted(line):
            raise MemoryError

        monkeypatch.setattr(cli, "parse_group_record", exhausted)
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_parallel_is_capped_at_the_cpu_count(self, batch, tmp_path, monkeypatch):
        pools = []

        class RecordingPool:
            """In-process stand-in for ProcessPoolExecutor: records its size and batches."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.batches = []
                self.chunks = []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                self.batches.append(len(items))
                self.chunks.append(-(-len(items) // chunksize))
                return map(fn, items)

        many = tmp_path / "many.jsonl"
        many.write_text(batch.read_text() * 20)  # 200 lines
        serial, capped = tmp_path / "serial.jsonl", tmp_path / "capped.jsonl"
        assert main(["compute", "--input", str(many), "--output", str(serial)]) == 0
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        usable_cpus(monkeypatch, 3)  # the affinity set caps, not the host's CPU count
        assert main(["compute", "--input", str(many), "--output", str(capped), "--parallel", "100000"]) == 0
        assert [pool.max_workers for pool in pools] == [3]
        assert pools[0].batches == [3 * 64, 200 - 3 * 64]
        # Every worker gets at least 4 chunks, or one line per chunk in a short batch.
        assert all(c >= min(3 * 4, n) for c, n in zip(pools[0].chunks, pools[0].batches))
        assert capped.read_bytes() == serial.read_bytes()

        usable_cpus(monkeypatch, 1)  # pinned to one CPU: run serially
        assert main(["compute", "--input", str(many), "--output", str(capped), "--parallel", "4"]) == 0
        assert len(pools) == 1
        assert capped.read_bytes() == serial.read_bytes()

        # A platform with no affinity call falls back to the CPU count.
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert main(["compute", "--input", str(many), "--output", str(capped), "--parallel", "4"]) == 0
        assert [pool.max_workers for pool in pools] == [3, 2]
        assert capped.read_bytes() == serial.read_bytes()

        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: one worker, run serially
        assert main(["compute", "--input", str(many), "--output", str(capped), "--parallel", "4"]) == 0
        assert len(pools) == 2
        assert capped.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("parallel", ["1", "2"])
    @pytest.mark.parametrize("skip_bad", [False, True])
    def test_bad_line_inside_a_chunk(self, tmp_path, capsys, monkeypatch, parallel, skip_bad):
        spec = SynthSpec(num_groups=102, base_vocab=40, rollout_len_range=(6, 10))
        good = [group_record_line(group) for group in generate(spec)]
        # 104 lines: on 2 workers, chunks of 13, so lines 37 and 70 fall
        # inside a chunk; --parallel 1 runs the same lines serially.
        lines = good[:36] + ["{broken"] + good[36:68] + [json.dumps({"group_id": "tiny", "rollouts": []})] + good[68:]
        src, good_src = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
        src.write_text("\n".join(lines) + "\n")
        good_src.write_text("\n".join(good) + "\n")
        expected, out = tmp_path / "expected.jsonl", tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(good_src), "--output", str(expected)]) == 0
        capsys.readouterr()
        usable_cpus(monkeypatch, 2)
        args = ["compute", "--input", str(src), "--output", str(out), "--parallel", parallel]
        assert main(args + ["--skip-bad"] * skip_bad) == (0 if skip_bad else 1)
        assert not multiprocessing.active_children()  # the pool is shut down on every exit
        named = [line.split(":")[0] for line in capsys.readouterr().err.splitlines()]
        if skip_bad:
            assert named == ["line 37", "line 70"]
            assert out.read_bytes() == expected.read_bytes()
        else:
            assert named == ["line 37"]
            assert out.read_text() == "".join(expected.read_text().splitlines(keepends=True)[:36])

    def test_dead_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        spec = SynthSpec(num_groups=100, base_vocab=40, rollout_len_range=(6, 10))
        src, expected, out = tmp_path / "groups.jsonl", tmp_path / "expected.jsonl", tmp_path / "out.jsonl"
        src.write_text("".join(group_record_line(group) + "\n" for group in generate(spec)))
        assert main(["compute", "--input", str(src), "--output", str(expected)]) == 0
        monkeypatch.setattr(cli, "_process_line", _exit_on_line_40)  # forked workers inherit it
        usable_cpus(monkeypatch, 2)
        assert main(["compute", "--input", str(src), "--output", str(out), "--parallel", "2"]) == 1
        assert not multiprocessing.active_children()
        err = capsys.readouterr().err
        assert err.startswith("error: BrokenProcessPool: ") and err.count("\n") == 1
        assert expected.read_text().startswith(out.read_text())
        assert len(read_lines(out)) < 40

    def test_invalid_parallel_exits_2(self, batch, tmp_path):
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(out), "--parallel", "0"]) == 2

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_output_that_is_the_input_exits_2_and_leaves_it_intact(self, batch, tmp_path, capsys, link):
        before = batch.read_bytes()
        out = tmp_path / "link.jsonl" if link else batch
        if link:
            out.symlink_to(batch)
        assert main(["compute", "--input", str(batch), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: --output {out} is the --input file; it would be overwritten\n"
        assert batch.read_bytes() == before

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(tmp_path / "absent.jsonl"), "--output", str(out)]) == 1
        assert "absent.jsonl" in capsys.readouterr().err

    def test_each_line_calls_the_stages_through_the_cli_module_names(self, batch, tmp_path, monkeypatch):
        # perfbench's tracer times a CLI run by wrapping exactly these names.
        calls = {"parse_group_record": [], "compute_advantages": [], "advantage_record_line": []}
        for name, seen in calls.items():
            original = getattr(cli, name)

            def recorder(*args, _original=original, _seen=seen, **kwargs):
                _seen.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, recorder)
        src = tmp_path / "three.jsonl"
        src.write_text("\n".join(read_lines(batch)[:3]) + "\n")
        assert main(["compute", "--input", str(src), "--output", str(tmp_path / "out.jsonl")]) == 0
        assert {name: len(seen) for name, seen in calls.items()} == dict.fromkeys(calls, 3)
        groups = [args[0] for args in calls["compute_advantages"]]
        assert all(isinstance(group, RolloutGroup) for group in groups)
        assert [group.group_id for group in groups] == [args[0] for args in calls["advantage_record_line"]]


class TestOutputNamingAnInput:
    FLAGS = {
        "compute": ("--input", "--config", "--output"),
        "visualize": ("--input", "--advantages", "--output"),
        "bench": ("--spec", "--report"),
    }

    @pytest.mark.parametrize("command, out_flag, in_flag", [
        ("visualize", "--output", "--input"),
        ("visualize", "--output", "--advantages"),
        ("compute", "--output", "--config"),
        ("bench", "--report", "--spec"),
    ], ids=["visualize-input", "visualize-advantages", "compute-config", "bench-spec"])
    def test_exits_2_and_leaves_the_input_intact(self, batch, tmp_path, capsys, command, out_flag, in_flag):
        paths = {"--input": batch, "--advantages": tmp_path / "adv.jsonl", "--config": tmp_path / "config.json",
                 "--spec": tmp_path / "spec.json", "--output": tmp_path / "out", "--report": tmp_path / "report.json"}
        assert main(["compute", "--input", str(batch), "--output", str(paths["--advantages"])]) == 0
        paths["--config"].write_text(json.dumps({"h1": 0.5}))
        paths["--spec"].write_text(json.dumps({"num_groups": 2, "base_vocab": 40, "rollout_len_range": [6, 10]}))
        paths[out_flag] = target = paths[in_flag]
        before = target.read_bytes()
        argv = [command] + [arg for flag in self.FLAGS[command] for arg in (flag, str(paths[flag]))]
        assert main(argv + (["--group", "synth-0000"] if command == "visualize" else [])) == 2
        assert capsys.readouterr().err == \
            f"config error: {out_flag} {target} is the {in_flag} file; it would be overwritten\n"
        assert target.read_bytes() == before


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)
MUTATION_PATHS = [
    ("group_id",), ("correctness_threshold",), ("rollouts",), ("rollouts", 1),
    ("rollouts", 0, "tokens"), ("rollouts", 0, "tokens", 0), ("rollouts", 1, "reward"), ("rollouts", 1, "texts"),
]


@st.composite
def mutated_groups(draw):
    """A valid group line, or one with a field set to an arbitrary JSON value
    (integers also drawn from beyond int64 and beyond float64)."""
    obj = json.loads(group_record_line(draw(rollout_groups(graded=True))))
    if draw(st.booleans()):
        *parents, key = draw(st.sampled_from(MUTATION_PATHS))
        target = obj
        for step in parents:
            target = target[step]
        target[key] = draw(json_values | st.integers(-2, 2**64) | st.integers(2**1024, 2**1100))
    return json.dumps(obj)


# Extremes random generation does not reach: nesting deeper than the decoder's
# recursion limit, and integers longer than Python's digit limit.
extreme_lines = st.builds(lambda depth, digits: "[" * depth + "1" * digits,
                          st.integers(0, 100_000), st.integers(1, 5000))
fuzz_lines = st.text() | json_values.map(json.dumps) | mutated_groups() | extreme_lines


class TestProcessLineFuzz:
    @given(fuzz_lines, st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_every_line_gives_an_output_line_or_a_diagnostic(self, line, include_stats):
        output, diagnostic = _process_line((7, line), KtaeConfig(), include_stats)
        assert (output is None) != (diagnostic is None)
        if diagnostic is not None:
            assert diagnostic.startswith("line 7: ")
        else:
            record = parse_advantage_record(output)
            assert (record.token_stats is not None) == include_stats


class TestVisualize:
    def render(self, tmp_path, batch, group_id, with_stats=True):
        adv = tmp_path / "adv.jsonl"
        args = ["compute", "--input", str(batch), "--output", str(adv)]
        main(args + (["--stats"] if with_stats else []))
        html_path = tmp_path / "heat.html"
        code = main(
            [
                "visualize",
                "--input", str(batch),
                "--advantages", str(adv),
                "--group", group_id,
                "--output", str(html_path),
            ]
        )
        return code, html_path

    def test_renders_to_standalone_html(self, batch, tmp_path):
        code, path = self.render(tmp_path, batch, "synth-0003")
        assert code == 0
        text = path.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "</html>" in text

    def test_works_without_embedded_stats(self, batch, tmp_path):
        code, path = self.render(tmp_path, batch, "synth-0001", with_stats=False)
        assert code == 0
        assert "rgba(34,139,34" in path.read_text()

    @pytest.mark.parametrize("group_id, texts, wanted", [
        ("g", '["a","\\ud800"]', "g"),  # a JSON-escaped lone surrogate in a display text
        ("\\udcff", '["a","b"]', "\udcff"),  # the id that --group $'\\xff' names, in the page title
    ], ids=["text", "group-id"])
    def test_text_that_utf8_cannot_encode_exits_1_and_writes_no_file(self, tmp_path, capsys, group_id, texts,
                                                                        wanted):
        src, adv, page = tmp_path / "in.jsonl", tmp_path / "adv.jsonl", tmp_path / "heat.html"
        src.write_text('{"group_id":"%s","rollouts":[{"tokens":[1,2],"reward":1.0,"texts":%s},'
                       '{"tokens":[3],"reward":0.0,"texts":["c"]}]}\n' % (group_id, texts))
        assert main(["compute", "--input", str(src), "--output", str(adv)]) == 0
        capsys.readouterr()
        code = main(["visualize", "--input", str(src), "--advantages", str(adv),
                     "--group", wanted, "--output", str(page)])
        assert code == 1
        assert capsys.readouterr().err == (f"error: InvalidGroup: group {wanted!r} has an id or display text "
                                           "that UTF-8 cannot encode\n")
        assert not page.exists()

    def test_unknown_group_exits_1(self, batch, tmp_path, capsys):
        code, path = self.render(tmp_path, batch, "synth-9999")
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: UnknownGroup: group 'synth-9999' not found in group records {batch}\n"
        assert not path.exists()

    def test_input_that_is_not_utf8_exits_1(self, batch, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\n" + batch.read_bytes())
        adv = tmp_path / "adv.jsonl"
        main(["compute", "--input", str(batch), "--output", str(adv)])
        code = main(["visualize", "--input", str(bad), "--advantages", str(adv),
                     "--group", "synth-0000", "--output", str(tmp_path / "heat.html")])
        assert code == 1
        assert "line 1: line is not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("field, raw, message", [
        ("ktv", '"abc"', "token_stats[{key}].ktv must be a finite number"),
        ("ktv", "null", "token_stats[{key}].ktv must be a finite number"),
        ("ktv", "[1]", "token_stats[{key}].ktv must be a finite number"),
        ("ktv", "1e400", "token_stats[{key}].ktv must be a finite number"),
        ("ktv", "true", "token_stats[{key}].ktv must be a finite number"),
        ("token_advantages", "NaN", "token_advantages[0] must be an array of finite numbers"),
        ("rollout_advantages", "-Infinity", "rollout_advantages must be an array of finite numbers"),
    ], ids=["ktv-string", "ktv-null", "ktv-array", "ktv-overflow", "ktv-bool", "token-nan", "rollout-infinity"])
    def test_bad_advantage_value_is_one_record_error(self, batch, tmp_path, capsys, field, raw, message):
        adv = tmp_path / "adv.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(adv), "--stats"]) == 0
        record = json.loads(read_lines(adv)[0])
        key = next(iter(record["token_stats"]))
        if field == "ktv":
            record["token_stats"][key]["ktv"] = "RAW"
        elif field == "token_advantages":
            record["token_advantages"][0][0] = "RAW"
        else:
            record["rollout_advantages"][0] = "RAW"
        adv.write_text(json.dumps(record).replace('"RAW"', raw) + "\n")
        capsys.readouterr()
        html_path = tmp_path / "heat.html"
        code = main(["visualize", "--input", str(batch), "--advantages", str(adv),
                     "--group", record["group_id"], "--output", str(html_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: RecordError: {adv} line 1: {message.format(key=key)}\n"
        assert not html_path.exists()

    @pytest.mark.parametrize("key", ["1_0", " 7 ", "010", "-3"])
    def test_non_canonical_stat_key_is_one_record_error(self, batch, tmp_path, capsys, key):
        adv = tmp_path / "adv.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(adv), "--stats"]) == 0
        record = json.loads(read_lines(adv)[0])
        record["token_stats"][key] = next(iter(record["token_stats"].values()))
        adv.write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        code = main(["visualize", "--input", str(batch), "--advantages", str(adv),
                     "--group", record["group_id"], "--output", str(tmp_path / "heat.html")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: RecordError: {adv} line 1: token_stats key {key!r} "
                                           "is not a token id in canonical decimal\n")

    def test_repeated_stat_key_is_one_record_error(self, batch, tmp_path, capsys):
        adv = tmp_path / "adv.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(adv), "--stats"]) == 0
        lines = read_lines(adv)
        key, entry = next(iter(json.loads(lines[1])["token_stats"].items()))
        # json.dumps cannot repeat a key, so the first entry is written twice by hand
        head = '"token_stats":{'
        lines[1] = lines[1].replace(head, head + json.dumps(key) + ":" + json.dumps(entry) + ",", 1)
        adv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["visualize", "--input", str(batch), "--advantages", str(adv),
                     "--group", json.loads(lines[1])["group_id"], "--output", str(tmp_path / "heat.html")])
        assert code == 1
        assert capsys.readouterr().err == f"error: RecordError: {adv} line 2: key {key!r} appears twice in one object\n"
        assert not (tmp_path / "heat.html").exists()

    def test_missing_texts_exits_1(self, tmp_path, capsys):
        group = {
            "group_id": "plain",
            "rollouts": [{"tokens": [1, 2], "reward": 1.0}, {"tokens": [2], "reward": 0.0}],
        }
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(group) + "\n")
        code, _ = self.render(tmp_path, src, "plain")
        assert code == 1
        assert "error: InvalidGroup: group 'plain' carries no display texts" in capsys.readouterr().err

    def test_invalid_group_names_its_line(self, batch, tmp_path, capsys):
        tiny = json.dumps({"group_id": "tiny", "rollouts": [{"tokens": [1], "reward": 1.0, "texts": ["a"]}]})
        src = tmp_path / "in.jsonl"
        src.write_text(tiny + "\n" + batch.read_text())
        code, path = self.render(tmp_path, src, "synth-0000")
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"error: InvalidGroup: {src} line 1: group 'tiny' has 1 rollout(s); need at least 2"
        assert not path.exists()


class TestBench:
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"num_groups": 6, "base_vocab": 40, "rollout_len_range": [6, 10]})
        )
        return path

    def test_report_and_summary(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["bench", "--spec", str(self.spec_file(tmp_path)), "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sign accuracy" in out
        report = json.loads(report_path.read_text())
        assert report["sign_accuracy"] == 1.0
        assert report["neutral_max_abs_delta"] == 0.0
        assert report["num_groups"] == 6

    def test_fixed_seed_reports_identically(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        spec = self.spec_file(tmp_path)
        main(["bench", "--spec", str(spec), "--report", str(a)])
        main(["bench", "--spec", str(spec), "--report", str(b)])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        for volatile in ("seconds_total", "seconds_per_group"):
            ra.pop(volatile), rb.pop(volatile)
        assert ra == rb

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"correct_fraction": 0.999}))
        assert main(["bench", "--spec", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [{"num_groups": 1.5}, {"base_vocab": 2.5}, {"num_groups": True},
                                      {"rollout_len_range": [3]}, {"seed": -1}])
    def test_spec_count_that_is_not_a_usable_integer_exits_2(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"num_groups": 2, **spec}))
        assert main(["bench", "--spec", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error")

    @pytest.mark.parametrize("spec", [{"group_size": 10**20}, {"planted_positive": [2**70]},
                                      {"rollout_len_range": 8}, {"correct_fraction": "high"}])
    def test_spec_rejected_before_any_group_is_generated_exits_2(self, tmp_path, capsys, monkeypatch, spec):
        monkeypatch.setattr("ktae.synth.generate", lambda spec: pytest.fail("generation started"))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"num_groups": 2, **spec}))
        assert main(["bench", "--spec", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error")


class TestSynthSpecFiles:
    def test_lists_become_tuples(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"rollout_len_range": [4, 8], "planted_positive": [901], "num_groups": 3,
                                    "base_vocab": 40, "planted_negative": [902], "planted_neutral": [903]}))
        spec = SynthSpec.from_dict(load_flat_mapping(path, "benchmark spec"))  # as cmd_bench reads it
        assert spec.rollout_len_range == (4, 8)
        assert spec.planted_positive == (901,)

    def test_invariant_violations_surface_as_spec_errors(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"correct_fraction": 0.99}))
        with pytest.raises(ConfigError, match="rounds to 16 correct rollouts of 16"):
            SynthSpec.from_dict(load_flat_mapping(path, "benchmark spec"))


@pytest.mark.parametrize("command, flag, unknown", [
    ("compute", "--config", "config field(s): alpha, num_groups, zeta"),
    ("bench", "--spec", "benchmark spec field(s): alpha, h1, zeta"),
])
def test_unknown_file_fields_exit_2_naming_them(tmp_path, capsys, command, flag, unknown):
    path = tmp_path / "fields.json"
    path.write_text(json.dumps({"zeta": 1, "num_groups": 2, "h1": 1.0, "alpha": 2}))
    io = ["--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")]
    assert main([command, flag, str(path), *(io if command == "compute" else [])]) == 2
    assert capsys.readouterr().err == f"config error: unknown {unknown}\n"


class TestOracleCheck:
    def test_passes_within_tolerance(self, capsys):
        assert main(["oracle-check", "--max-n", "8"]) == 0
        assert "worst relative error" in capsys.readouterr().out

    def test_vacuous_bound_passes(self):
        assert main(["oracle-check", "--max-n", "0"]) == 0

    def test_negative_bound_exits_2(self, capsys):
        assert main(["oracle-check", "--max-n", "-3"]) == 2
        assert capsys.readouterr().err == "config error: --max-n must be >= 0, got -3\n"

    def test_fault_is_reported_with_a_counterexample(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "ktae.oracle.compare_fast_vs_exact", lambda max_n: (3.5e-4, ContingencyTable(2, 0, 1, 3))
        )
        assert main(["oracle-check", "--max-n", "6"]) == 1
        captured = capsys.readouterr()
        assert "(2, 0, 1, 3)" in captured.out
        assert "FAIL" in captured.err

    def test_bound_above_exact_range_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("ktae.oracle.compare_fast_vs_exact", lambda max_n: pytest.fail("oracle check started"))
        assert main(["oracle-check", "--max-n", "65"]) == 2
        assert capsys.readouterr().err == "config error: --max-n must be <= 64, got 65\n"


def test_compute_in_a_fresh_process_does_not_import_numpy_ma(tmp_path):
    """np.unique without return_inverse imports numpy.ma on its first call,
    about 14 ms of every process's set-up."""
    src = tmp_path / "in.jsonl"
    src.write_text("".join(group_record_line(g) + "\n" for g in generate(SynthSpec(num_groups=4))), encoding="utf-8")
    code = ("import sys; from ktae.cli import main; "
            f"assert main(['compute', '--input', {str(src)!r}, '--output', {str(tmp_path / 'out.jsonl')!r}]) == 0; "
            "print('numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=SRC))
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_a_fresh_process_loads_only_what_a_serial_compute_runs(tmp_path):
    """The pool, the heatmap, the oracle and the synthetic benchmark load only
    in the commands that run them."""
    others = ["concurrent.futures.process", "ktae.heatmap", "ktae.oracle", "ktae.synth", "multiprocessing"]
    src, serial, parallel = (str(tmp_path / name) for name in ("in.jsonl", "serial.jsonl", "parallel.jsonl"))
    Path(src).write_text("".join(group_record_line(g) + "\n" for g in generate(SynthSpec(num_groups=8))),
                         encoding="utf-8")
    code = (f"import sys; loaded = lambda: [m for m in {others!r} if m in sys.modules]; "
            "import ktae.cli; print(loaded()); "
            f"assert ktae.cli.main(['compute', '--input', {src!r}, '--output', {serial!r}]) == 0; print(loaded())")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=SRC))
    assert (result.returncode, result.stdout) == (0, "[]\n[]\n"), result.stderr
    assert main(["compute", "--input", src, "--output", parallel, "--parallel", "2"]) == 0
    assert Path(parallel).read_bytes() == Path(serial).read_bytes()


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_parallel_writes_the_serial_bytes_under_each_start_method(tmp_path, method):
    """A --parallel 2 run whose workers start by fork, forkserver or spawn,
    whichever the platform offers, writes the bytes of the serial run."""
    src, serial, parallel = (tmp_path / name for name in ("in.jsonl", "serial.jsonl", "parallel.jsonl"))
    src.write_text("".join(group_record_line(g) + "\n" for g in generate(SynthSpec(num_groups=24))),
                   encoding="utf-8")
    assert main(["compute", "--input", str(src), "--output", str(serial), "--stats"]) == 0
    args = ["compute", "--input", str(src), "--output", str(parallel), "--parallel", "2", "--stats"]
    code = (f"import multiprocessing, os, sys; multiprocessing.set_start_method({method!r}); "
            "os.sched_getaffinity = lambda pid: {0, 1}; "  # a pool of two, even on one CPU
            f"import ktae.cli; assert ktae.cli.main({args!r}) == 0; "
            "print(multiprocessing.get_start_method(), 'concurrent.futures.process' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=SRC))
    assert (result.returncode, result.stdout) == (0, f"{method} True\n"), result.stderr
    assert parallel.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_dead_worker_is_one_error_line_under_each_start_method(tmp_path, method):
    """TestCompute.test_dead_worker_is_one_error_line in a subprocess whose
    workers start by fork, forkserver or spawn, whichever the platform offers."""
    spec = SynthSpec(num_groups=100, base_vocab=40, rollout_len_range=(6, 10))
    src, expected, out = tmp_path / "groups.jsonl", tmp_path / "expected.jsonl", tmp_path / "out.jsonl"
    src.write_text("".join(group_record_line(group) + "\n" for group in generate(spec)))
    assert main(["compute", "--input", str(src), "--output", str(expected)]) == 0
    # Spawned and forkserver workers import the worker by name, so it lives
    # in a module on their path, not in this process's monkeypatch.
    (tmp_path / "dead_worker.py").write_text(
        "import os\n"
        "from ktae.cli import _process_line\n\n\n"
        "def exit_on_line_40(item, config, include_stats):\n"
        '    """A worker that dies on input line 40, as one killed for memory would."""\n'
        "    if item[0] == 40:\n"
        "        os._exit(1)\n"
        "    return _process_line(item, config, include_stats)\n")
    args = ["compute", "--input", str(src), "--output", str(out), "--parallel", "2"]
    code = (f"import multiprocessing, os, sys; multiprocessing.set_start_method({method!r}); "
            "os.sched_getaffinity = lambda pid: {0, 1}; "  # a pool of two, even on one CPU
            "import dead_worker, ktae.cli; ktae.cli._process_line = dead_worker.exit_on_line_40; "
            f"status = ktae.cli.main({args!r}); "
            "print(multiprocessing.get_start_method(), multiprocessing.active_children()); sys.exit(status)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)])))
    assert (result.returncode, result.stdout) == (1, f"{method} []\n"), result.stderr
    assert result.stderr.startswith("error: BrokenProcessPool: ") and result.stderr.count("\n") == 1
    assert expected.read_text().startswith(out.read_text())
    assert len(read_lines(out)) < 40


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-m", "ktae", "oracle-check", "--max-n", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "worst relative error" in result.stdout
