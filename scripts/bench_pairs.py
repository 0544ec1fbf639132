#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent checkout against a changed one.

Usage:
  python scripts/bench_pairs.py PARENT CHANGE --workload cantor_spectrum --pairs 10 --seconds 8
  python scripts/bench_pairs.py PARENT CHANGE --workload all --pairs 10 --seconds 4

Runs ``perfbench/run.py`` of each checkout, from inside that checkout, one
child process at a time. Pair i runs the parent first when i is even and
the change first when i is odd, so a slow spell of the host does not fall
on one side. ``--workload all`` makes one ``run.py --workload all`` call
per side per pair. Each pair prints the end-to-end metrics of both runs,
one line per workload; the end prints one table per workload with, per
metric, both medians, the parent's interquartile range (IQR, from
``statistics.quantiles(values, n=4)``) and in how many pairs the change
read better (ties count for neither side). Exits 1 as soon as a run fails
or reports ``correct: false`` on any workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# the end-to-end metrics of BENCHMARK.json; lower is better for each
METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


class RunError(RuntimeError):
    pass


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """Workload name -> metric name -> value of one ``perfbench/run.py`` run in
    ``checkout``; ``all`` runs every workload, and ``run.py`` then prints one
    result per workload, keyed by its name."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{checkout}: exit code {proc.returncode}\n{proc.stderr}")
    results = json.loads(lines[-1])
    if workload != "all":
        results = {workload: results}
    for name, result in results.items():
        if not result["correct"]:
            raise RunError(f"{checkout}: {name}: {result['failed']} of "
                           f"{result['attempted']} checks failed")
    return {name: {metric: result["metrics"][metric]["value"] for metric in METRICS}
            for name, result in results.items()}


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Per metric: both medians, the parent's IQR and the pairs the change won.

    ``parent[i]`` and ``change[i]`` are the runs of pair i; at least two pairs.
    """
    table = {}
    for name in METRICS:
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        q1, _, q3 = statistics.quantiles(old, n=4)
        table[name] = {
            "parent_median": statistics.median(old),
            "change_median": statistics.median(new),
            "parent_iqr": q3 - q1,
            "wins": sum(b < a for a, b in zip(old, new)),
            "pairs": len(old),
        }
    return table


def _format(run: dict) -> str:
    return " ".join(f"{name}={run[name]:.6g}" for name in METRICS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the parent's IQR")

    # each side's runs, one {workload: metrics} per pair
    parent, change = [], []
    try:
        for i in range(args.pairs):
            sides = [(args.parent, parent), (args.change, change)]
            for checkout, runs in (sides if i % 2 == 0 else sides[::-1]):
                runs.append(run_once(checkout, args.workload, args.seed, args.seconds))
            first = "parent" if i % 2 == 0 else "change"
            for name in parent[-1]:
                print(f"pair {i} ({first} first) {name}: parent {_format(parent[-1][name])} "
                      f"| change {_format(change[-1][name])}", flush=True)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    for name in parent[0]:
        print(f"{name}:")
        print(f"{'metric':12s} {'parent':>11s} {'change':>11s} {'parent IQR':>11s} "
              f"{'change wins':>11s}")
        table = summarize([run[name] for run in parent], [run[name] for run in change])
        for metric, row in table.items():
            print(f"{metric:12s} {row['parent_median']:11.6g} "
                  f"{row['change_median']:11.6g} {row['parent_iqr']:11.6g} "
                  f"{row['wins']:>5d} of {row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
