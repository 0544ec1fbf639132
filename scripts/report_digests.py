#!/usr/bin/env python3
"""SHA-256 digests of the reports that ``qdims compare`` writes for every config.

Usage:
  python scripts/report_digests.py > scripts/report_digests.json
  python scripts/report_digests.py --check scripts/report_digests.json

Runs ``python -m qdims compare`` on each ``configs/*.json`` of this
checkout, with this checkout's ``src`` on the path, one config at a time,
each in its own child process and temporary output directory. Prints one
JSON object: config name -> {"report.csv": digest, "report.txt": digest},
in name order. With ``--check FILE`` it also reads the digests stored in
FILE, prints one ``differs: CONFIG/REPORT`` line per report whose digest is
not the stored one (or that only one side has) to stderr, and exits 1 if
there is any. A failed ``compare`` ends the script with exit status 1
and that run's stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
REPORTS = ("report.csv", "report.txt")


class CompareError(RuntimeError):
    pass


def config_digests(path: str) -> dict:
    """Report name -> SHA-256 hex digest of one ``compare`` run on the config at ``path``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-m", "qdims", "compare", "--config", path,
                               "--out", out], capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            raise CompareError(f"compare on {path} exited {proc.returncode}\n{proc.stderr}")
        digests = {}
        for name in REPORTS:
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def differences(want: dict, got: dict) -> list[str]:
    """``CONFIG/REPORT`` of every report whose digest differs, or that one side lacks,
    in name order."""
    names = sorted({(config, report)
                    for digests in (want, got)
                    for config, reports in digests.items() for report in reports})
    return [f"{config}/{report}" for config, report in names
            if want.get(config, {}).get(report) != got.get(config, {}).get(report)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="stored digests to compare against")
    args = parser.parse_args(argv)
    want = None
    if args.check:
        with open(args.check) as fh:
            want = json.load(fh)

    config_dir = os.path.join(ROOT, "configs")
    got = {}
    try:
        for name in sorted(os.listdir(config_dir)):
            if name.endswith(".json"):
                got[name[:-5]] = config_digests(os.path.join(config_dir, name))
    except CompareError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(got, indent=2))
    if want is None:
        return 0
    changed = differences(want, got)
    for entry in changed:
        print(f"differs: {entry}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
