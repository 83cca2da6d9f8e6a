#!/usr/bin/env python3
"""Print one digest per CLI output, for byte-identity checks across a refactor.

For each bundled problem file (all nine, or the names given) runs in
process ``jflow check --seed 7`` at the defaults, ``jflow check --seed 7
--samples 4 --T 0.2`` and ``jflow run --seed 7 --T 0.5``, and prints the
exit code and one SHA-256 over the files the command wrote:
``report.json`` without its ``timestamp`` line, ``summary.json`` and
``trajectory.csv``.  Two trees produce the same outputs when they print
the same lines.

    PYTHONPATH=src python3 scripts/output_digest.py [robin_p2 tv_chain32 ...]
"""

import argparse
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from jflow.cli import main as jflow

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
COMMANDS = (
    ("check", ["check", "--seed", "7"]),
    ("check-s4-T0.2", ["check", "--seed", "7", "--samples", "4", "--T", "0.2"]),
    ("run-T0.5", ["run", "--seed", "7", "--T", "0.5"]),
)
OUTPUTS = ("report.json", "summary.json", "trajectory.csv")


def digest(out: Path) -> str:
    sha = hashlib.sha256()
    for name in OUTPUTS:
        path = out / name
        if not path.is_file():
            continue
        lines = path.read_text().splitlines(keepends=True)
        sha.update(name.encode() + b"\0")
        sha.update("".join(l for l in lines if '"timestamp"' not in l).encode())
    return sha.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("names", nargs="*", help="bundled problem names (default: all)")
    args = ap.parse_args()
    names = args.names or sorted(p.stem for p in PROBLEMS.glob("*.json"))

    print(f"{'problem':14s} {'command':14s} exit sha256")
    for name in names:
        for label, argv in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = jflow(argv + ["--problem", str(PROBLEMS / f"{name}.json"), "--out", tmp])
                print(f"{name:14s} {label:14s} {code:4d} {digest(Path(tmp))}", flush=True)


if __name__ == "__main__":
    main()
