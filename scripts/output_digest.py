#!/usr/bin/env python3
"""Print one digest per CLI output, for byte-identity checks across a refactor.

For each bundled problem file (all nine, or the names given) runs in
process ``jflow check --seed 7`` at the defaults, ``jflow check --seed 7
--samples 4 --T 0.2`` and ``jflow run --seed 7 --T 0.5``, and prints the
exit code and one SHA-256 over the files the command wrote:
``report.json`` without its ``timestamp`` line, ``summary.json`` and
``trajectory.csv``.  Two trees produce the same outputs when they print
the same lines.

With ``--against REV`` the tree of the git revision ``REV`` is unpacked
(``git archive``) into a temporary directory and digested in a subprocess
on its own ``src`` and ``problems``; only the rows that differ from this
tree's are printed, and the exit code is 1 when any does.

    PYTHONPATH=src python3 scripts/output_digest.py [robin_p2 tv_chain32 ...]
    PYTHONPATH=src python3 scripts/output_digest.py --against HEAD~1 [names ...]
"""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (
    ("check", ["check", "--seed", "7"]),
    ("check-s4-T0.2", ["check", "--seed", "7", "--samples", "4", "--T", "0.2"]),
    ("run-T0.5", ["run", "--seed", "7", "--T", "0.5"]),
)
OUTPUTS = ("report.json", "summary.json", "trajectory.csv")
HEADER = f"{'problem':14s} {'command':14s} exit sha256"


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


def rows(names, problems: Path):
    """Yield the row of each problem and command: ``(problem, command, exit code, digest)``."""
    from jflow.cli import main as jflow

    for name in names:
        for label, argv in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = jflow(argv + ["--problem", str(problems / f"{name}.json"), "--out", tmp])
                yield name, label, code, digest(Path(tmp))


def line(row) -> str:
    name, label, code, sha = row
    return f"{name:14s} {label:14s} {code:4d} {sha}"


def against(rev: str, names, problems: Path) -> int:
    """Print the rows in which the tree of ``rev`` (``-``) and this tree (``+``) differ; 1 when any does."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        proc = subprocess.run([sys.executable, __file__, "--problems", str(Path(tmp) / "problems"), *names],
                              env=env, capture_output=True, text=True, check=True)
    theirs = {tuple(l.split()[:2]): l for l in proc.stdout.splitlines()[1:]}
    differ = 0
    for row in rows(names, problems):
        ours = line(row)
        other = theirs.get(row[:2], f"{row[0]:14s} {row[1]:14s} (no row)")
        if other != ours:
            print(f"- {other}\n+ {ours}", flush=True)
            differ += 1
    print(f"{differ} of {len(names) * len(COMMANDS)} rows differ from {rev}")
    return 1 if differ else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("names", nargs="*", help="bundled problem names (default: all)")
    ap.add_argument("--against", metavar="REV", help="print only the rows that differ from the tree of git revision REV")
    ap.add_argument("--problems", type=Path, default=ROOT / "problems", help="directory of the problem files")
    args = ap.parse_args()
    names = args.names or sorted(p.stem for p in args.problems.glob("*.json"))

    if args.against:
        return against(args.against, names, args.problems)
    print(HEADER)
    for row in rows(names, args.problems):
        print(line(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
