"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py --workload theory_levels --seeds 0-9 --seconds 20

Runs ``run.py`` once per seed and prints, per metric, the median of the
per-run values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound in BENCHMARK.json. The per-run values are appended to
``.perfbench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def relative_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} checks failed",
                  file=sys.stderr)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append(values)
        with open(os.path.join(ROOT, ".perfbench_out", "spread.jsonl"), "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **values}) + "\n")
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in values.items()),
              flush=True)
    if len(runs) < 2:
        return 0
    print(f"{'metric':12s} {'median':>10s} {'IQR/median':>11s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        print(f"{name:12s} {statistics.median(values):10.5g} "
              f"{relative_spread(values):11.4f} {bound:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
