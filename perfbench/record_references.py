"""Record the theory_levels reference exponents into references.json.

    python3 perfbench/record_references.py

The references pin what the solvers return at the commit that recorded
them; the benchmark then checks every theory_levels pass against them
within the solver's truncated-bisection tolerance. Re-record only when a
change is meant to move the exponents, and say so where the change is
described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        wl = workloads.TheoryLevels(ROOT, workdir, seed=0)
        wl.build()
        affine, rc, cutsets = wl.run_pass()
        if rc != 0:
            raise SystemExit(f"theory CLI exited with {rc}")
        rows = workloads.read_theory_csv(os.path.join(wl.out, "theory.csv"))
        values = workloads.theory_values(affine, rows, cutsets)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(values, fh, indent=2)
        fh.write("\n")
    print(json.dumps(values, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
