#!/usr/bin/env python3
"""SHA-256 digests of the files that ``qdims compare`` and ``qdims sample`` write for every config.

Usage:
  python scripts/report_digests.py > scripts/report_digests.json
  python scripts/report_digests.py --check scripts/report_digests.json

Runs ``python -m qdims compare`` and then ``python -m qdims sample`` on
each ``configs/*.json`` of this checkout, with this checkout's ``src`` on
the path, one config at a time, each command in its own child process and
one temporary output directory per config. Prints one JSON object: config
name -> {"points.csv": digest, "report.csv": digest, "report.txt": digest},
in name order. With ``--check FILE`` it also reads the digests stored in
FILE, prints one ``differs: CONFIG/FILE`` line per file whose digest is
not the stored one (or that only one side has) to stderr, and exits 1 if
there is any. A failed command ends the script with exit status 1 and that
run's stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
# the files each command writes into its output directory
OUTPUTS = {"compare": ("report.csv", "report.txt"), "sample": ("points.csv",)}


class CommandError(RuntimeError):
    pass


def config_digests(path: str) -> dict:
    """File name -> SHA-256 hex digest of what ``compare`` and ``sample`` write
    for the config at ``path``, in name order."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as out:
        for command in OUTPUTS:
            proc = subprocess.run([sys.executable, "-m", "qdims", command, "--config", path,
                                   "--out", out], capture_output=True, text=True, env=env)
            if proc.returncode != 0:
                raise CommandError(f"{command} on {path} exited {proc.returncode}\n"
                                   f"{proc.stderr}")
        digests = {}
        for name in sorted(name for names in OUTPUTS.values() for name in names):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def differences(want: dict, got: dict) -> list[str]:
    """``CONFIG/FILE`` of every file whose digest differs, or that one side lacks,
    in name order."""
    names = sorted({(config, name)
                    for digests in (want, got)
                    for config, files in digests.items() for name in files})
    return [f"{config}/{name}" for config, name in names
            if want.get(config, {}).get(name) != got.get(config, {}).get(name)]


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
    except CommandError as exc:
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
