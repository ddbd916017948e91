"""The public surface: the exact top-level names, and where the rest live."""

import importlib

import pytest

import ktae

TOP_LEVEL = {
    "AdvantageMatrix", "ConfigError", "ContingencyTable", "DegenerateGroup", "DomainError", "EmptyGroup",
    "EmptyRollout", "InvalidReward", "InvalidToken", "KtaeConfig", "KtaeError", "LengthMismatch", "Rollout",
    "RolloutGroup", "SpecError", "SynthSpec", "TokenStats", "TooFewRollouts", "compute_advantages",
    "dapo_admissible", "generate", "grpo_advantages", "recovery_report", "sigmoid", "sigmoid_shift",
    "validate_group",
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
    ("ktae.stats", "LogGammaTable"),
    ("ktae.stats", "fisher_point_prob_array"),
    ("ktae.stats", "fisher_two_sided_prob_array"),
    ("ktae.stats", "fisher_score_array"),
    ("ktae.stats", "info_gain_array"),
    ("ktae.frequency", "GroupLengths"),
    ("ktae.frequency", "group_lengths"),
    ("ktae.frequency", "tf_score_array"),
    ("ktae.frequency", "cohen_h_array"),
    ("ktae.frequency", "frequency_term_array"),
    ("ktae.cli", "load_synth_spec"),
]

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
]


def test_all_is_the_pinned_set():
    assert len(ktae.__all__) == len(TOP_LEVEL) == 26
    assert set(ktae.__all__) == TOP_LEVEL


@pytest.mark.parametrize("name", sorted(TOP_LEVEL))
def test_every_top_level_name_resolves(name):
    assert getattr(ktae, name) is not None


@pytest.mark.parametrize("module, name", MODULE_LEVEL)
def test_module_level_names_stay_importable(module, name):
    assert name not in ktae.__all__
    assert getattr(importlib.import_module(module), name) is not None


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert not hasattr(ktae, name)


def test_wire_format_module_does_not_import_the_pipeline():
    import ktae.records

    assert not hasattr(ktae.records, "SynthSpec")
    assert not hasattr(ktae.records, "compute_advantages")
