"""One benchmark process: set up a workload, time its passes, check outputs.

``run.py`` starts this file in a fresh interpreter for every measurement,
because ``ru_maxrss`` never decreases within a process. It prints one JSON
object as its last line of standard output.

  --mode setup    set up only, report the set-up time
  --mode peak     set up, run and check one pass, report the peak RSS
  --mode measure  set up, then run passes for --seconds; with --trace 1
                  every other pass runs with the layer wrappers installed

Each mode times the reference kernel of ``calibrate.py`` after set-up, to
scale the set-up time; ``peak`` reads its peak RSS before that, because the
kernel's own memory would otherwise set it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 3


def pass_medians(passes: list[dict], kernel_before: float) -> dict:
    """Median wall and CPU seconds over untraced and over traced passes.

    ``wall_s`` and ``cpu_s`` are in reference seconds: each pass's time is
    divided by the mean time of the reference kernel run just before and
    just after it, and the median of those ratios is scaled by
    ``REFERENCE_S`` (see ``calibrate.py``). The medians of the times as
    measured are kept as ``measured_wall_s`` and ``measured_cpu_s``. A pass
    that raised has no timing and is left out.
    """
    from calibrate import REFERENCE_S

    kernels = [kernel_before] + [p["kernel_s"] for p in passes]
    out = {"kernel_s": statistics.median(kernels)}
    for key, traced in (("", False), ("traced_", True)):
        chosen = [(p, (k0 + p["kernel_s"]) / 2) for p, k0 in zip(passes, kernels)
                  if p["traced"] == traced and math.isfinite(p["wall_s"])]
        if chosen:
            for name in ("wall_s", "cpu_s"):
                out[f"{key}measured_{name}"] = statistics.median(p[name] for p, _ in chosen)
                out[f"{key}{name}"] = REFERENCE_S * statistics.median(
                    p[name] / kernel for p, kernel in chosen)
    return out


def tally(checks: list[tuple[str, bool]], totals: dict) -> None:
    """Add one pass's checks to the running attempted/failed totals."""
    totals["attempted"] += len(checks)
    for label, ok in checks:
        if not ok:
            totals["failed"] += 1
            totals["failures"].append(label)


def layer_medians(per_pass: list[dict]) -> dict:
    return {name: statistics.median(layers[name] for layers in per_pass)
            for name in per_pass[0]}


def _empty_out(workload) -> None:
    os.makedirs(workload.out, exist_ok=True)
    for name in os.listdir(workload.out):
        os.remove(os.path.join(workload.out, name))


def _run_passes(workload, seconds: float, trace: bool, totals: dict):
    import calibrate
    from tracing import DETERMINISTIC_COUNTS, Tracer, installed, pass_layers

    tracer = Tracer() if trace else None
    passes, per_pass_layers, first_counts, missing = [], [], None, set()
    # a traced run needs at least two passes of each kind
    min_passes = MIN_PASSES + 1 if trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        _empty_out(workload)
        try:
            if traced:
                with installed(tracer) as sites:
                    missing.update(sites.missing)
                    tracer.begin_pass(len(passes))
                    t0, c0 = time.perf_counter(), time.process_time()
                    try:
                        result = workload.run_pass()
                    finally:
                        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                        tracer.end_pass()
            else:
                t0, c0 = time.perf_counter(), time.process_time()
                result = workload.run_pass()
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            tally(workload.check(result), totals)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally([("pass raised", False)], totals)
            wall = cpu = float("nan")
        passes.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "kernel_s": calibrate.measure()})
        if traced:
            pass_id = len(passes) - 1
            counts = tracer.counts[pass_id]
            spans = [s for s in tracer.spans if s.pass_id == pass_id]
            per_pass_layers.append(pass_layers(spans, counts))
            # the named counts must repeat exactly from pass to pass
            key = {name: counts.get(name, 0) for name in DETERMINISTIC_COUNTS}
            if first_counts is None:
                first_counts = key
            else:
                tally([("deterministic counts repeat", key == first_counts)], totals)
        elapsed = time.perf_counter() - start
        mean_pass = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + mean_pass > seconds:
            break
    if missing:
        print(f"trace sites not found: {sorted(missing)}", file=sys.stderr)
    return passes, per_pass_layers, tracer


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "peak", "measure"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    # set-up time counts from the parent's clock reading taken just before it
    # started this interpreter (CLOCK_MONOTONIC is shared across processes)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.workdir, args.seed)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    result = {"measured_setup_s": setup_s}
    totals = {"attempted": 0, "failed": 0, "failures": []}
    if args.mode == "peak":
        _empty_out(workload)
        try:
            tally(workload.check(workload.run_pass()), totals)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally([("pass raised", False)], totals)
        result.update(totals)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import calibrate

    calibrate.kernel()  # builds the kernel's inputs outside any timing
    kernel_s = calibrate.measure()
    # set-up in reference seconds, scaled by the kernel timed right after it
    result.update(setup_kernel_s=kernel_s, setup_s=setup_s * calibrate.REFERENCE_S / kernel_s)
    if args.mode == "measure":
        passes, per_pass_layers, tracer = _run_passes(
            workload, args.seconds, bool(args.trace), totals)
        result.update(totals, passes=passes, env=environment(),
                      **pass_medians(passes, kernel_s))
        if tracer is not None:
            result["layers"] = layer_medians(per_pass_layers)
            if args.spans:
                tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
