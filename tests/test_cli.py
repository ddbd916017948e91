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
from ktae import ContingencyTable, KtaeConfig, SpecError
from ktae.cli import _process_line, main
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
        assert "line 2" in err
        assert "EmptyGroup" in err
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
        assert "line 3: InvalidToken" in capsys.readouterr().err
        assert [json.loads(l)["group_id"] for l in read_lines(out)] == \
            [json.loads(l)["group_id"] for l in lines if '"huge"' not in l]
        assert main(args) == 1
        assert "line 3: InvalidToken" in capsys.readouterr().err
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
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert main(["compute", "--input", str(many), "--output", str(capped), "--parallel", "100000"]) == 0
        assert [pool.max_workers for pool in pools] == [3]
        assert pools[0].batches == [3 * 64, 200 - 3 * 64]
        # Every worker gets at least 4 chunks, or one line per chunk in a short batch.
        assert all(c >= min(3 * 4, n) for c, n in zip(pools[0].chunks, pools[0].batches))
        assert capped.read_bytes() == serial.read_bytes()

        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: one worker, run serially
        assert main(["compute", "--input", str(many), "--output", str(capped), "--parallel", "4"]) == 0
        assert len(pools) == 1
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
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
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
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert main(["compute", "--input", str(src), "--output", str(out), "--parallel", "2"]) == 1
        assert not multiprocessing.active_children()
        err = capsys.readouterr().err
        assert err.startswith("error: BrokenProcessPool: ") and err.count("\n") == 1
        assert expected.read_text().startswith(out.read_text())
        assert len(read_lines(out)) < 40

    def test_invalid_parallel_exits_2(self, batch, tmp_path):
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(batch), "--output", str(out), "--parallel", "0"]) == 2

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["compute", "--input", str(tmp_path / "absent.jsonl"), "--output", str(out)]) == 1
        assert "absent.jsonl" in capsys.readouterr().err


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
        lineno, output, diagnostic = _process_line((7, line), KtaeConfig(), include_stats)
        assert lineno == 7
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

    def test_unknown_group_exits_1(self, batch, tmp_path, capsys):
        code, _ = self.render(tmp_path, batch, "synth-9999")
        assert code == 1
        assert "synth-9999" in capsys.readouterr().err

    def test_input_that_is_not_utf8_exits_1(self, batch, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\n" + batch.read_bytes())
        adv = tmp_path / "adv.jsonl"
        main(["compute", "--input", str(batch), "--output", str(adv)])
        code = main(["visualize", "--input", str(bad), "--advantages", str(adv),
                     "--group", "synth-0000", "--output", str(tmp_path / "heat.html")])
        assert code == 1
        assert "line 1: line is not valid UTF-8" in capsys.readouterr().err

    def test_missing_texts_exits_1(self, tmp_path, capsys):
        group = {
            "group_id": "plain",
            "rollouts": [{"tokens": [1, 2], "reward": 1.0}, {"tokens": [2], "reward": 0.0}],
        }
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(group) + "\n")
        code, _ = self.render(tmp_path, src, "plain")
        assert code == 1
        assert "MissingTexts" in capsys.readouterr().err


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
        monkeypatch.setattr(cli, "generate", lambda spec: pytest.fail("generation started"))
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
        with pytest.raises(SpecError):
            SynthSpec.from_dict(load_flat_mapping(path, "benchmark spec"))


class TestOracleCheck:
    def test_passes_within_tolerance(self, capsys):
        assert main(["oracle-check", "--max-n", "8"]) == 0
        assert "worst relative error" in capsys.readouterr().out

    def test_vacuous_bound_passes(self):
        assert main(["oracle-check", "--max-n", "0"]) == 0

    def test_negative_bound_exits_2(self, capsys):
        assert main(["oracle-check", "--max-n", "-3"]) == 2
        assert "--max-n must be >= 0" in capsys.readouterr().err

    def test_fault_is_reported_with_a_counterexample(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "compare_fast_vs_exact", lambda max_n: (3.5e-4, ContingencyTable(2, 0, 1, 3))
        )
        assert main(["oracle-check", "--max-n", "6"]) == 1
        captured = capsys.readouterr()
        assert "(2, 0, 1, 3)" in captured.out
        assert "FAIL" in captured.err

    def test_bound_above_exact_range_exits_1(self, capsys):
        assert main(["oracle-check", "--max-n", "65"]) == 1


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
