"""Token-level advantage estimation for reward-labeled rollout groups.

Groups of sampled rollouts, each labeled with a scalar reward, come in; a
per-position advantage matrix comes out. The rollout-level baseline is the
group-normalized reward; on top of it, every distinct token id receives a
key-token-value built from contingency-table statistics (Fisher's exact
test, information gain), BM25-style term-frequency saturation, and a signed
direction score, then shifted through a sigmoid into a bounded per-position
delta.

The names below are what a trainer calls and the errors those calls raise.
The array kernels live in ``ktae.stats``, ``ktae.frequency`` and
``ktae.advantage`` (``sigmoid_shift``), the kernels' ``DomainError`` in
``ktae.core``, the planted-token benchmark (``SynthSpec``, ``generate``,
``recovery_report``) in ``ktae.synth``, and the exact references that
certify the kernels in ``ktae.oracle``.
"""

from .advantage import compute_advantages, dapo_admissible, grpo_advantages
from .core import (AdvantageMatrix, ConfigError, DegenerateGroup, InvalidGroup, KtaeConfig, KtaeError, Rollout,
                   RolloutGroup)

__version__ = "0.1.0"

__all__ = [
    "AdvantageMatrix",
    "ConfigError",
    "DegenerateGroup",
    "InvalidGroup",
    "KtaeConfig",
    "KtaeError",
    "Rollout",
    "RolloutGroup",
    "compute_advantages",
    "dapo_admissible",
    "grpo_advantages",
]
