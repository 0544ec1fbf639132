#!/usr/bin/env python3
"""The functions under ``src/qdims`` that no command, script or benchmark workload calls.

Usage:
  python scripts/reach.py > scripts/reach.json
  python scripts/reach.py --check scripts/reach.json

Runs these entry points in this process under ``sys.setprofile``, with this
checkout's ``src`` first on the path: ``compare``, ``theory`` and
``check-separation --kind ssc/osc`` on every ``configs/*.json``; ``sample``
then ``estimate`` on cantor and affine_finite_gamma;
``scripts/overlap_upper_bound.py``; and the setup, one pass and the check of
each perfbench workload. Prints the sorted JSON list of the ``module:qualname``
of every function defined in ``src/qdims`` (comprehensions and lambdas aside)
that none of them called. With ``--check FILE`` it also prints one
``unreached: NAME`` line to stderr for each unreached name that FILE does not
list, and exits 1 if there is any. A failed command ends the script with
its exception.
"""

import argparse
import contextlib
import glob
import inspect
import io
import json
import os
import runpy
import sys
import tempfile
import types

ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
SRC = os.path.join(ROOT, "src", "qdims")


def functions() -> dict:
    """``(file, qualname)`` -> ``module:qualname`` of every def under ``src/qdims``."""
    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = "qdims." + os.path.basename(path)[:-3]
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            # a function body has its own locals, where a module or class body has none
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out[path, code.co_qualname] = f"{module}:{code.co_qualname}"
    return out


def _entry_points(tmp: str) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import qdims.cli
    from workloads import WORKLOADS

    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        name = os.path.basename(path)[:-5]
        out = os.path.join(tmp, name)
        runs = [["compare", "--config", path, "--out", out],
                ["theory", "--config", path, "--out", out],
                *(["check-separation", "--config", path, "--kind", kind]
                  for kind in ("ssc", "osc"))]
        if name in ("cantor", "affine_finite_gamma"):
            runs += [["sample", "--config", path, "--out", out],
                     ["estimate", os.path.join(out, "points.csv"), "--out", out]]
        for argv in runs:
            if qdims.cli.main(argv) != 0:
                raise RuntimeError(f"qdims {' '.join(argv)} failed")
    overlap = runpy.run_path(os.path.join(ROOT, "scripts", "overlap_upper_bound.py"))
    sys.argv = ["overlap_upper_bound.py", "--trials", "3", "--samples", "20000"]
    overlap["main"]()
    for name, cls in WORKLOADS.items():
        workload = cls(ROOT, os.path.join(tmp, "perfbench", name), 0)
        os.makedirs(workload.workdir)
        workload.setup()
        workload.check(workload.run_pass())


def unreached() -> list[str]:
    """Sorted ``module:qualname`` of the defs that no entry point calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    argv = sys.argv
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            _entry_points(tmp)
        finally:
            sys.setprofile(None)
            sys.argv = argv
    reached = {(os.path.realpath(code.co_filename), code.co_qualname) for code in called}
    return sorted(name for key, name in functions().items() if key not in reached)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="stored unreached names")
    args = parser.parse_args(argv)
    names = unreached()
    print(json.dumps(names, indent=2))
    if not args.check:
        return 0
    with open(args.check) as fh:
        allowed = set(json.load(fh))
    new = [name for name in names if name not in allowed]
    for name in new:
        print(f"unreached: {name}", file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
