#!/usr/bin/env python3
"""Randomized-translation study on a planar diagonal affine system.

Draws several independent realizations of the translations (uniform box
draws and a jittered finite vector set), fits the empirical correlation
dimension per realization, and compares against the level-sum exponent.
The backing statements are almost-sure, so realizations are reported one by
one with no aggregation.

Usage:
  python scripts/random_translation_study.py --out out/random --seed 0
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qdims.harness import ExperimentConfig, emit_report, run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/random")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--realizations", type=int, default=5)
    args = parser.parse_args()

    for name in ("affine_random_box", "affine_finite_gamma"):
        config = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, f"{name}.json"))
        # through from_dict, so overrides get the same checks as the file
        config = ExperimentConfig.from_dict({**config.to_dict(), "seed": args.seed,
                                             "realizations": args.realizations})
        report = run_experiment(config)
        paths = emit_report(report, args.out, stem=name)
        print(f"{name} (norm bound {report.meta.get('operator_norm_bound', 'n/a')}):")
        for i, row in enumerate(report.rows):
            print(f"  realization {i}: q={row.q:g} theory={row.d_theory:.5f} "
                  f"empirical={row.d_empirical:.5f} pass={str(row.passed).lower()}")
        print(f"  -> {paths['csv']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
