"""qdims benchmark: one entry point for the three pipeline workloads.

    python3 perfbench/run.py --workload cantor_spectrum --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run it from anywhere in a checkout; it imports qdims from ``src/``. Every
measurement happens in a fresh interpreter (``worker.py``), with BLAS and
OpenMP threads capped at the number of usable cores:

- ``setup_s`` is the median over five fresh interpreters (two before, the
  one that times the passes, and two after) of the time to import qdims,
  build config, system, measure and scheme, and warm each layer with a tiny
  call;
- ``wall_s`` and ``cpu_s`` are medians over the passes of one process that
  repeats the workload's pipeline pass for ``--seconds``;
- these three are in reference seconds: each time is scaled by how long a
  fixed reference kernel took beside it (``calibrate.py``), so that the
  drift of a shared host's speed over minutes drops out;
- ``peak_rss_mb`` is the ``ru_maxrss`` of the last of the five, which sets
  up, runs and checks one pass, and reads it before the reference kernel;
- every pass's outputs are checked, and ``failed`` over ``attempted`` is the
  fail fraction.

With ``--trace 1`` the passes alternate between traced and untraced, and the
metrics are the per-layer self times and counts of ``tracing.py`` plus the
tracing overhead. The last line of standard output is one JSON object.
Spans and a full record with the environment go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
# the names of workloads.WORKLOADS, listed here so that this process never
# imports numpy or qdims and fails cleanly where the sources are missing
WORKLOADS = ("cantor_spectrum", "theory_levels", "sample_export")
# a run must end within 180 s; leave room for the final report
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    # import from cached bytecode, as an installed package would; the first
    # interpreter of a fresh checkout writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "platform": sys.platform}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return info
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            info[parts[0].lower()] = int(parts[1])
    return info


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and parse its result line."""
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--t0", repr(t0), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float, host: dict) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    env = child_env(host["nproc"])
    common = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    try:
        setup = [*common, "--mode", "setup"]
        peak = [*common, "--mode", "peak"]
        measure = ["--mode", "measure", "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            measure += ["--spans", os.path.join(OUT, f"spans-{tag}.json")]
        # set-up runs before and after the timed passes, so that a slow spell
        # of the machine moves at most two of the five
        before = [spawn(setup, env, deadline), spawn(setup, env, deadline)]
        res = spawn([*common, *measure], env, deadline)
        after = [spawn(setup, env, deadline), spawn(peak, env, deadline)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "wall_s" not in res or (trace and "traced_wall_s" not in res):
        raise BenchError(f"{workload}: no pass completed; failures: {res['failures'][:5]}")
    res["peak_rss_mb"] = after[-1]["peak_rss_mb"]
    for key in ("attempted", "failed", "failures"):
        res[key] += after[-1][key]
    setups = [*before, res, *after]
    res["setup_runs_s"] = [r["measured_setup_s"] for r in setups]
    res["setup_runs_ref_s"] = [r["setup_s"] for r in setups]
    res["machine"] = host
    res["workload"], res["seed"], res["trace"] = workload, seed, int(trace)
    if trace:
        metrics = dict(res["layers"])
        metrics["trace.overhead_s"] = res["traced_measured_wall_s"] - res["measured_wall_s"]
    else:
        metrics = {
            "setup_s": statistics.median(res["setup_runs_ref_s"]),
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    res["metrics"] = metrics
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def summary(res: dict, units: dict) -> dict:
    """The result object of the benchmark contract, for one workload run."""
    if set(res["metrics"]) != set(units):
        raise BenchError(f"metrics {sorted(set(res['metrics']) ^ set(units))} "
                         "do not match BENCHMARK.json")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()},
    }


def print_report(res: dict, units: dict) -> None:
    frac = res["failed"] / res["attempted"]
    timed = [p for p in res["passes"] if not p["traced"]]
    print(f"== {res['workload']} seed={res['seed']} trace={res['trace']}: "
          f"{len(res['passes'])} passes ({len(timed)} untraced)")
    for name, value in res["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':32s} {frac:14.6g} ratio "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    if res["failures"]:
        print(f"  failures: {sorted(set(res['failures']))}")
    if res["trace"]:
        layers = res["layers"]
        self_sum = sum(v for k, v in layers.items()
                       if k.endswith("_s") and k != "trace.wall_s")
        # within each traced pass the two agree exactly; medians need not add up
        print(f"  sum of per-layer median self times {self_sum:.6g} s, "
              f"median traced pass {layers['trace.wall_s']:.6g} s")
    print(f"  env: {json.dumps({**res['machine'], **res['env']}, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qdims", "__init__.py")):
        print(f"qdims sources not found under {ROOT}/src; run from a qdims checkout",
              file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    host = machine()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    try:
        for name in names:
            budget = RUN_BUDGET_S if args.workload != "all" else RUN_BUDGET_S * len(names)
            res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               start + budget, host)
            results[name] = summary(res, units)
            print_report(res, units)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
