"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark times this kernel before the first pipeline pass, after
every pass and after each set-up, and reports times in reference seconds:
a time scaled by ``REFERENCE_S`` over the kernel time beside it. On a
shared host the speed of the same code drifts by tens of percent over
minutes; the kernel slows with the pass, so the ratio keeps what the
program changed and drops most of what the host did.

The kernel touches no qdims code, so a change to qdims cannot move it. It
mixes the kinds of work the pipeline does: a Python loop that formats and
writes CSV rows, batched 2x2 singular values, and a gather, a cumulative
sum and a sort over arrays of 24 MB, larger than a core's share of the
cache. Like the pipeline, it maps fresh memory for its results on every
call, so it feels the host's memory contention as the passes do. That
memory, about 130 MB at its peak, is why ``peak_rss_mb`` is taken in a
process that never runs the kernel before it reads its peak.

    python3 perfbench/calibrate.py     # time the kernel five times
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

# the median kernel time, in seconds, on the 2-vCPU virtual machine the
# benchmark was tuned on (Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31);
# a pass time in reference seconds is what it would read on that machine at
# the speed the kernel saw
REFERENCE_S = 0.2

_ROWS = 8_000
_MATRICES = 60_000
_CELLS = 3_000_000


class _Inputs:
    def __init__(self):
        rng = np.random.default_rng(20241126)
        self.points = rng.random((_ROWS, 3))
        self.mats = rng.random((_MATRICES, 2, 2))
        self.letters = rng.integers(0, 3, _CELLS)
        self.table = rng.random((3, 4))
        self.keys = rng.integers(0, 1 << 40, _CELLS)


_inputs: _Inputs | None = None


def kernel() -> float:
    """Run the reference work once; return a checksum so none of it is skipped."""
    global _inputs
    if _inputs is None:
        _inputs = _Inputs()
    data = _inputs
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in data.points:
        writer.writerow([repr(float(v)) for v in row])
    sv = np.linalg.svd(data.mats, compute_uv=False)
    gathered = data.table[data.letters, data.letters[::-1]]
    walk = np.cumsum(gathered)
    order = np.sort(data.keys)
    return len(buf.getvalue()) + float(sv.sum()) + float(walk[-1]) + float(order[_CELLS // 2])


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def main() -> int:
    kernel()
    times = [measure() for _ in range(5)]
    print(" ".join(f"{t:.4f}" for t in times), f"median {statistics.median(times):.4f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
