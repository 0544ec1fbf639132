#!/usr/bin/env python3
"""Weighted middle-third Cantor measure: theory vs empirical q-dimensions.

Runs the strong-separation similarity benchmark with a (3/4, 1/4) weighting
and the uniform-interval control, writing both comparison reports.

Usage:
  python scripts/cantor_comparison.py --out out/cantor --seed 7
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qdims.harness import ExperimentConfig, emit_report, run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/cantor")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=int, default=1_000_000)
    args = parser.parse_args()

    for name in ("cantor", "uniform"):
        config = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, f"{name}.json"))
        # through from_dict, so overrides get the same checks as the file
        config = ExperimentConfig.from_dict({**config.to_dict(), "seed": args.seed,
                                             "samples": args.samples})
        report = run_experiment(config)
        paths = emit_report(report, args.out, stem=name)
        print(f"{name}:")
        for row in report.rows:
            print(f"  q={row.q:g} theory={row.d_theory:.5f} empirical={row.d_empirical:.5f} "
                  f"pass={str(row.passed).lower()}")
        print(f"  -> {paths['csv']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
