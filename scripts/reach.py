#!/usr/bin/env python3
"""Print the functions of the ``jflow`` package that no user path calls.

Runs the paths by which jflow is used, in this process and under one
``sys.setprofile`` hook that records every Python function called:

- every run of ``scripts/output_digest.py`` (``rows`` over the bundled
  problems: two ``jflow check`` and one ``jflow run`` each);
- ``jflow list-problems``;
- the four sweeps of ``scripts/`` at the sizes CI runs them, through
  ``runpy`` with ``sys.argv`` set;
- the quick round of each workload of ``perfbench/workloads.py``, through
  ``jflow.cli.main``.  Its problem files are written to a temporary
  directory.  With ``tv_sweep.py`` it is a path to the TV fibre of a
  subregion (``solvers.constrained_tv_min``), which no bundled problem has.

Then prints every function and method defined in the package's modules
(nested ones included, lambdas and comprehensions not) that none of these
called, as ``module:line qualname (lines)``, and their total; the lines
count the definitions, decorators included, and a nested definition only
once.  What it lists is reached by tests alone, if at all.

    PYTHONPATH=src python3 scripts/reach.py
"""

import ast
import contextlib
import importlib.util
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEPS = (
    ("rescue_sweep.py", "--orbits", "3"),
    ("tv_sweep.py", "--orbits", "3"),
    ("property_sweep.py", "--samples", "2", "--T", "0.1"),
    ("decay_profiles.py", "--T", "0.1"),
)


def definitions(package: Path):
    """``{(file, first line, name): (module, qualname, last line)}`` of every
    ``def`` in the package; the first line is that of the first decorator,
    as in the function's code object."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, prefix + child.name
                yield from walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    found = {}
    for path in sorted(package.glob("*.py")):
        module = f"{package.name}.{path.stem}" if path.stem != "__init__" else package.name
        for node, qualname in walk(ast.parse(path.read_text()), ""):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[(str(path.resolve()), first, node.name)] = (module, qualname, node.end_lineno)
    return found


def user_paths():
    """Run every user path once, their output discarded."""
    from jflow.cli import main as jflow

    sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]
    import output_digest
    from workloads import WORKLOADS, make_round

    problems = ROOT / "problems"
    for _ in output_digest.rows(sorted(p.stem for p in problems.glob("*.json")), problems):
        pass
    jflow(["list-problems"])
    for script, *args in SWEEPS:
        sys.argv = [str(ROOT / "scripts" / script), *args]
        try:
            runpy.run_path(sys.argv[0], run_name="__main__")
        except SystemExit:
            pass
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            for op in make_round(workload, 0, 1, Path(tmp), quick=True):
                jflow(op["argv"])


def main():
    package = Path(importlib.util.find_spec("jflow").submodule_search_locations[0])
    defined = definitions(package)
    called = {}

    def record(frame, event, arg):  # keyed by id: hashing a code object hashes its bytecode, on every call
        if event == "call":
            called[id(frame.f_code)] = frame.f_code

    argv = sys.argv
    sink = io.StringIO()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            user_paths()
    finally:
        sys.setprofile(None)
        sys.argv = argv
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in called.values()}

    lines = set()
    unreached = sorted((module, key[1], qualname, last, key[0]) for key, (module, qualname, last) in defined.items()
                       if key not in reached)
    for module, first, qualname, last, path in unreached:
        print(f"{module}:{first} {qualname} ({last - first + 1})")
        lines.update((path, n) for n in range(first, last + 1))
    print(f"{len(unreached)} of {len(defined)} functions, {len(lines)} lines, are called by no user path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
