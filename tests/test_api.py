"""The public surface: the exact top-level names, and where the rest live."""

import ast
import importlib
import inspect

import pytest

import ktae

TOP_LEVEL = {
    "AdvantageMatrix", "ConfigError", "ContingencyTable", "DegenerateGroup", "DomainError", "EmptyGroup",
    "EmptyRollout", "InvalidReward", "InvalidToken", "KtaeConfig", "KtaeError", "LengthMismatch", "Rollout",
    "RolloutGroup", "SpecError", "SynthSpec", "TokenStats", "compute_advantages", "dapo_admissible",
    "generate", "grpo_advantages", "recovery_report", "sigmoid_shift", "validate_group",
}

# Names that are not top-level but stay importable from their own modules.
MODULE_LEVEL = [
    ("ktae.oracle", "TableTooLarge"),
    ("ktae.oracle", "brute_force_stats"),
    ("ktae.oracle", "compare_fast_vs_exact"),
    ("ktae.oracle", "fisher_exact_rational"),
    ("ktae.oracle", "fisher_two_sided_enum"),
    ("ktae.oracle", "raw_term_frequencies"),
    ("ktae.oracle", "reference_advantages"),
    ("ktae.stats", "fisher_point_prob_array"),
    ("ktae.stats", "fisher_two_sided_prob_array"),
    ("ktae.stats", "fisher_score_array"),
    ("ktae.stats", "info_gain_array"),
    ("ktae.frequency", "tf_score_array"),
    ("ktae.frequency", "cohen_h_array"),
    ("ktae.frequency", "frequency_term_array"),
]

# Every public name each module defines itself; a new public helper shows up here.
DEFINED = {
    "ktae.stats": {"binary_entropy_from_counts", "fisher_point_prob_array", "fisher_score_array",
                   "fisher_two_sided_prob_array", "info_gain_array"},
    "ktae.frequency": {"cohen_h_array", "frequency_term_array", "tf_score_array"},
    "ktae.oracle": {"MAX_EXACT_N", "ReferenceAdvantages", "TableTooLarge", "all_tables_with_total",
                    "brute_force_stats", "compare_fast_vs_exact", "fisher_exact_rational", "fisher_two_sided_enum",
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
    # Used only by tests: the ln-factorial cache is private to ktae.stats, and
    # the loaders call the from_dict constructors directly.
    ("ktae.stats", "LogGammaTable"),
    ("ktae.stats", "default_lngamma"),
    ("ktae.records", "config_from_mapping"),
    ("ktae.cli", "load_synth_spec"),
    # Second owners of a rule: compute_advantages takes the side lengths from
    # the sizes it holds, EmptyGroup is the one too-few-rollouts error, the
    # CLI builds its config with KtaeConfig.from_dict, JSON arrays reach the
    # from_dict constructors as parsed, and sigmoid_shift is the one sigmoid.
    ("ktae.frequency", "GroupLengths"),
    ("ktae.frequency", "group_lengths"),
    ("ktae.core", "TooFewRollouts"),
    ("ktae.records", "load_config"),
    ("ktae.cli", "load_config"),
    ("ktae.records", "_coerce_json_value"),
    ("ktae.advantage", "sigmoid"),
]


def test_all_is_the_pinned_set():
    assert len(ktae.__all__) == len(TOP_LEVEL) == 24
    assert set(ktae.__all__) == TOP_LEVEL


@pytest.mark.parametrize("name", sorted(TOP_LEVEL))
def test_every_top_level_name_resolves(name):
    assert getattr(ktae, name) is not None


@pytest.mark.parametrize("module, name", MODULE_LEVEL)
def test_module_level_names_stay_importable(module, name):
    assert name not in ktae.__all__
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


def test_wire_format_module_does_not_import_the_pipeline():
    import ktae.records

    assert not hasattr(ktae.records, "SynthSpec")
    assert not hasattr(ktae.records, "compute_advantages")
