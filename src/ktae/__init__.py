"""Token-level advantage estimation for reward-labeled rollout groups.

Groups of sampled rollouts, each labeled with a scalar reward, come in; a
per-position advantage matrix comes out. The rollout-level baseline is the
group-normalized reward; on top of it, every distinct token id receives a
key-token-value built from contingency-table statistics (Fisher's exact
test, information gain), BM25-style term-frequency saturation, and a signed
direction score, then shifted through a sigmoid into a bounded per-position
delta.

The names below are the public API. The array kernels live in
``ktae.stats`` and ``ktae.frequency``, and the exact references that
certify them in ``ktae.oracle``.
"""

from .advantage import compute_advantages, dapo_admissible, grpo_advantages, sigmoid_shift
from .core import (
    AdvantageMatrix,
    ConfigError,
    ContingencyTable,
    DegenerateGroup,
    DomainError,
    EmptyGroup,
    EmptyRollout,
    InvalidReward,
    InvalidToken,
    KtaeConfig,
    KtaeError,
    LengthMismatch,
    Rollout,
    RolloutGroup,
    TokenStats,
    validate_group,
)
from .synth import SpecError, SynthSpec, generate, recovery_report

__version__ = "0.1.0"

__all__ = [
    "AdvantageMatrix",
    "ConfigError",
    "ContingencyTable",
    "DegenerateGroup",
    "DomainError",
    "EmptyGroup",
    "EmptyRollout",
    "InvalidReward",
    "InvalidToken",
    "KtaeConfig",
    "KtaeError",
    "LengthMismatch",
    "Rollout",
    "RolloutGroup",
    "SpecError",
    "SynthSpec",
    "TokenStats",
    "compute_advantages",
    "dapo_admissible",
    "generate",
    "grpo_advantages",
    "recovery_report",
    "sigmoid_shift",
    "validate_group",
]
