#!/usr/bin/env python3
"""Sweep the strength/direction weights on the planted-token benchmark.

Runs the recovery benchmark once per weight combination, including the
leave-one-out settings (h1=0 drops the Fisher score, h2=0 drops information
gain, h3=0 drops the frequency-ratio term), and prints a comparison table.
Useful for seeing which component carries the separation between planted
and filler tokens.

Usage:
    python scripts/weight_sweep.py [--groups N] [--seed S]
"""

import argparse

from ktae import KtaeConfig
from ktae.synth import SynthSpec, generate, recovery_report

COMBOS = [
    ("full (1,2,1)", dict(h1=1.0, h2=2.0, h3=1.0)),
    ("no fisher (0,2,1)", dict(h1=0.0, h2=2.0, h3=1.0)),
    ("no info gain (1,0,1)", dict(h1=1.0, h2=0.0, h3=1.0)),
    ("no tf ratio (1,2,0)", dict(h1=1.0, h2=2.0, h3=0.0)),
    ("equal weights (1,1,1)", dict(h1=1.0, h2=1.0, h3=1.0)),
    ("heavy gain (1,4,1)", dict(h1=1.0, h2=4.0, h3=1.0)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = SynthSpec(seed=args.seed, num_groups=args.groups)
    groups = generate(spec)
    print(f"{args.groups} groups, G={spec.group_size}, "
          f"{spec.num_correct} correct / {spec.group_size - spec.num_correct} incorrect per group\n")
    header = f"{'weights':<24} {'sign acc':>8} {'rank mean':>10} {'rank worst':>10} {'plant/filler-p95':>17}"
    print(header)
    print("-" * len(header))
    for label, weights in COMBOS:
        report = recovery_report(groups, spec, KtaeConfig(**weights))
        p95 = report["filler_abs_ktv_p95"]
        separation = report["plant_mean_abs_ktv"] / p95 if p95 > 0 else float("inf")
        print(
            f"{label:<24} {report['sign_accuracy']:>8.4f} {report['plant_rank_mean']:>10.2f} "
            f"{report['plant_rank_worst']:>10d} {separation:>16.2f}x"
        )


if __name__ == "__main__":
    main()
