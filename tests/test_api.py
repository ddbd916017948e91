"""The public surface: the exact top-level names, and where the rest live."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ktae

# What a trainer calls, and the errors those calls raise.
TOP_LEVEL = {
    "AdvantageMatrix", "ConfigError", "DegenerateGroup", "InvalidGroup", "KtaeConfig", "KtaeError", "Rollout",
    "RolloutGroup", "compute_advantages", "dapo_admissible", "grpo_advantages",
}

# Names that are not top-level but stay importable from their own modules.
MODULE_LEVEL = [
    # The planted-token benchmark harness, which no trainer call uses.
    ("ktae.synth", "SynthSpec"),
    ("ktae.synth", "generate"),
    ("ktae.synth", "recovery_report"),
    # A kernel, next to the other array kernels; compute_advantages applies it.
    ("ktae.advantage", "sigmoid_shift"),
    # Per-token statistics of a group, which the advantages do not carry:
    # `ktae compute --stats`, the benchmark and diagnostics call it.
    ("ktae.advantage", "token_stats"),
    # Only the kernels and the oracle raise it: compute_advantages cannot.
    ("ktae.core", "DomainError"),
    # RolloutGroup's constructor runs it, so no caller needs it.
    ("ktae.core", "validate_group"),
    # Only the oracle functions take or return a table; the pipeline keeps
    # its counts as TokenStatsColumns' a-d columns.
    ("ktae.oracle", "ContingencyTable"),
    ("ktae.oracle", "brute_force_stats"),
    ("ktae.oracle", "compare_fast_vs_exact"),
    ("ktae.oracle", "fisher_exact_rational"),
    ("ktae.oracle", "fisher_two_sided_enum"),
    ("ktae.oracle", "raw_term_frequencies"),
    ("ktae.oracle", "reference_advantages"),
    ("ktae.stats", "fisher_prob_array"),
    ("ktae.stats", "fisher_score_array"),
    ("ktae.stats", "info_gain_array"),
    ("ktae.frequency", "tf_score_array"),
    ("ktae.frequency", "cohen_h_array"),
    ("ktae.frequency", "frequency_term_array"),
]

# Every public name each module defines itself; a new public helper shows up here.
DEFINED = {
    "ktae.core": {"AdvantageMatrix", "ConfigError", "DegenerateGroup", "DegeneratePolicy", "DomainError",
                  "FisherMode", "InvalidGroup", "KtaeConfig", "KtaeError", "MAX_EXACT_N", "MAX_TOKEN_ID",
                  "Rollout", "RolloutGroup", "TokenStatsColumns", "validate_group"},
    "ktae.advantage": {"DELTA_MAX", "compute_advantages", "dapo_admissible", "grpo_advantages", "sigmoid_shift",
                       "token_stats"},
    "ktae.synth": {"MAX_SPEC_TOKENS", "SynthSpec", "generate", "recovery_report"},
    "ktae.heatmap": {"UnknownGroup", "render_group_html", "token_values"},
    "ktae.stats": {"binary_entropy_from_counts", "fisher_prob_array", "fisher_score_array", "info_gain_array"},
    "ktae.frequency": {"cohen_h_array", "frequency_term_array", "tf_score_array"},
    "ktae.oracle": {"ContingencyTable", "ReferenceAdvantages", "brute_force_stats",
                    "compare_fast_vs_exact", "fisher_exact_rational", "fisher_two_sided_enum",
                    "raw_term_frequencies", "reference_advantages", "same_margin_tables"},
    "ktae.records": {"AdvantageRecord", "RecordError", "TOKEN_STAT_KEYS", "advantage_record_line",
                     "group_record_line", "load_flat_mapping", "parse_advantage_record",
                     "parse_group_record"},
    "ktae.cli": {"CHUNKS_PER_WORKER", "ORACLE_TOLERANCE", "build_parser", "cmd_bench", "cmd_compute",
                 "cmd_oracle_check", "cmd_visualize", "main", "resolve_config"},
}

# Scalar copies of the array kernels, and wrappers that only repackaged results.
REMOVED = [
    ("ktae.stats", "fisher_point_prob"),
    ("ktae.stats", "fisher_two_sided_prob"),
    ("ktae.stats", "fisher_score"),
    ("ktae.stats", "entropy_y"),
    ("ktae.stats", "cond_entropy"),
    ("ktae.stats", "cond_entropy_array"),
    ("ktae.stats", "info_gain"),
    ("ktae.frequency", "tf_score"),
    ("ktae.frequency", "direction_score"),
    ("ktae.frequency", "direction_score_array"),
    ("ktae.frequency", "raw_term_frequencies"),
    ("ktae.advantage", "key_token_value"),
    ("ktae.advantage", "GrpoBaseline"),
    ("ktae.oracle", "ExactRational"),
    ("ktae.records", "load_synth_spec"),
    # Used only by tests: an ln-gamma table and its default instance, and
    # loaders whose callers now call the from_dict constructors directly.
    ("ktae.stats", "LogGammaTable"),
    ("ktae.stats", "default_lngamma"),
    ("ktae.records", "config_from_mapping"),
    ("ktae.cli", "load_synth_spec"),
    # Second owners of a rule: compute_advantages takes the side lengths from
    # the sizes it holds, one error class covers too few rollouts, the
    # CLI builds its config with KtaeConfig.from_dict, JSON arrays reach the
    # from_dict constructors as parsed, and sigmoid_shift is the one sigmoid.
    ("ktae.frequency", "GroupLengths"),
    ("ktae.frequency", "group_lengths"),
    ("ktae.core", "TooFewRollouts"),
    ("ktae.records", "load_config"),
    ("ktae.cli", "load_config"),
    ("ktae.records", "_coerce_json_value"),
    ("ktae.advantage", "sigmoid"),
    # One error class per kind of input: InvalidGroup for a group or its
    # reward list, ConfigError for a config or spec file or a flag, and
    # DomainError for a kernel or oracle argument.
    ("ktae.core", "EmptyGroup"),
    ("ktae.core", "EmptyRollout"),
    ("ktae.core", "LengthMismatch"),
    ("ktae.core", "InvalidReward"),
    ("ktae.core", "InvalidToken"),
    ("ktae.synth", "SpecError"),
    ("ktae.oracle", "TableTooLarge"),
    ("ktae.heatmap", "MissingTexts"),
    # Per-token statistics have one form, TokenStatsColumns; its row view
    # went, and the table type moved to ktae.oracle.
    ("ktae.core", "TokenStats"),
    ("ktae.core", "ContingencyTable"),
    # Log-space float kernels: Fisher p comes exact from integer binomials,
    # one margin per fisher_prob_array call.
    ("ktae.stats", "fisher_point_prob_array"),
    ("ktae.stats", "fisher_two_sided_prob_array"),
    # Only tests enumerated tables by total; the helper lives in tests/conftest.py.
    ("ktae.oracle", "all_tables_with_total"),
]


def test_all_is_the_pinned_set():
    assert len(ktae.__all__) == len(TOP_LEVEL) == 11
    assert set(ktae.__all__) == TOP_LEVEL


@pytest.mark.parametrize("name", sorted(TOP_LEVEL))
def test_every_top_level_name_resolves(name):
    assert getattr(ktae, name) is not None


@pytest.mark.parametrize("module, name", MODULE_LEVEL)
def test_module_level_names_stay_importable(module, name):
    assert name not in ktae.__all__
    assert not hasattr(ktae, name)
    assert getattr(importlib.import_module(module), name) is not None


@pytest.mark.parametrize("module", sorted(DEFINED))
def test_public_names_defined_in_each_module_are_pinned(module):
    tree = ast.parse(inspect.getsource(importlib.import_module(module)))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert {n for n in names if not n.startswith("_")} == DEFINED[module]


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert not hasattr(ktae, name)


def test_an_advantage_matrix_holds_only_its_two_arrays():
    assert [f.name for f in dataclasses.fields(ktae.AdvantageMatrix)] == ["rollout_advantages", "token_advantages"]
    assert "__getattr__" not in vars(ktae.core.AdvantageMatrix)


def test_wire_format_module_does_not_import_the_pipeline():
    import ktae.records

    assert not hasattr(ktae.records, "SynthSpec")
    assert not hasattr(ktae.records, "compute_advantages")


def test_import_ktae_loads_only_the_estimator_modules():
    """The benchmark harness, the oracle, the wire format and the CLI load
    only when imported by name."""
    code = "import sys, ktae; print(sorted(m for m in sys.modules if m == 'ktae' or m.startswith('ktae.')))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['ktae', 'ktae.advantage', 'ktae.core', 'ktae.frequency', 'ktae.stats']\n"
