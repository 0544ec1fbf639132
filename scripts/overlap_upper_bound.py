#!/usr/bin/env python3
"""Overlapping similarity systems: the upper-bound direction.

Generates randomized stationary similarity systems whose first two branches
overlap (so no open-set certificate exists), then checks that the fitted
correlation dimension never exceeds the clamped critical exponent.

Usage:
  python scripts/overlap_upper_bound.py --trials 10 --seed 42
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qdims import (
    BernoulliMeasure,
    FiniteTranslationSet,
    SimilarSystem,
    check_separation,
    estimate_spectrum,
    sample_measure,
    stationary_dimension,
)


def overlapping_system(rng):
    n = int(rng.integers(2, 4))
    c = rng.uniform(0.1, 0.45, size=n)
    offsets = np.zeros(n)
    offsets[1] = c[0] * rng.uniform(0.2, 0.8)
    for j in range(2, n):
        offsets[j] = rng.uniform(0.0, 1.0 - c[j])
    p = rng.uniform(0.2, 1.0, size=n)
    p /= p.sum()
    return c, offsets, p


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=500_000)
    parser.add_argument("--q", type=float, default=2.0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    scales = tuple(2.0**-e for e in range(4, 11))
    worst = -np.inf
    for trial in range(args.trials):
        c, offsets, p = overlapping_system(rng)
        system = SimilarSystem([c])
        scheme = FiniteTranslationSet(vectors=[[o] for o in offsets])
        measure = BernoulliMeasure([p])
        osc = check_separation(system, scheme, depth=1, kind="osc")
        d_q = stationary_dimension(c, p, args.q)
        sample = sample_measure(system, scheme, measure, count=args.samples,
                                seed=args.seed + trial, target_resolution=min(scales))
        [(_, est)] = estimate_spectrum(sample, (args.q,), scales)
        excess = est.dimension - min(d_q, 1.0)
        worst = max(worst, excess)
        print(f"trial {trial}: n={len(c)} osc={str(osc.holds_at_depth).lower()} "
              f"d_q={d_q:.4f} empirical={est.dimension:.4f} excess={excess:+.4f}")
    print(f"worst excess over the clamped exponent: {worst:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
