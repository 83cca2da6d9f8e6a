"""The measured process: it runs one workload and nothing else.

    python3 perfbench/worker.py setup <workdir>
        import jflow, load every problem of round 1, print ``ready``.
    python3 perfbench/worker.py measure <workdir> <seconds> <trace>
        round 0 untimed (warm-up, on quick inputs), then whole rounds
        until ``seconds`` have passed, at least one; writes
        ``result.json`` to the workdir.

``run.py`` writes ``<workdir>/plan.json`` (workload, seed, quick) and
round 1's inputs, and starts this with BLAS pinned to one thread.  Each
operation is one ``jflow.cli.main`` call, timed by wall clock; a round's
inputs are written before its first operation starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _run_round(cli, ops):
    """Run every operation once; return [(wall seconds, exit code or error)]."""
    out = []
    for op in ops:
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(op["argv"])
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            code = f"{type(exc).__name__}: {exc}"
        out.append((time.perf_counter() - t0, code))
    return out


def measure(workdir: Path, seconds: float, trace: bool):
    plan = json.loads((workdir / "plan.json").read_text())
    from jflow import cli
    from workloads import make_round

    tracer = None
    if trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()

    rounds = []

    def next_round():
        return make_round(plan["workload"], plan["seed"], len(rounds), workdir, plan["quick"])

    def record(kind, times_codes, layers=None):
        rounds.append({"kind": kind, "wall": [t for t, _ in times_codes], "codes": [c for _, c in times_codes],
                       "layers": layers})

    record("warmup", _run_round(cli, next_round()))
    start = time.perf_counter()
    # with tracing, traced rounds alternate with untraced ones, whose
    # difference is the tracing overhead; at least one of each
    while (time.perf_counter() - start < seconds or len(rounds) < 2
           or (trace and len({r["kind"] for r in rounds}) < 3)):
        ops = next_round()
        if tracer is not None and rounds[-1]["kind"] != "traced":
            first = tracer.mark()
            tracer.install()
            try:
                result = _run_round(cli, ops)
            finally:
                tracer.uninstall()
            record("traced", result, layer_metrics(tracer.spans, first, tracer.mark()))
        else:
            record("timed", _run_round(cli, ops))
    if tracer is not None:
        tracer.write(workdir / "trace.json")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (workdir / "result.json").write_text(json.dumps({"rounds": rounds, "peak_rss_kb": peak_kb}))


def setup(workdir: Path):
    import jflow.cli  # noqa: F401 - the import a user pays for
    from jflow.problems import load_problem

    for path in sorted((workdir / "r001" / "problems").glob("*.json")):
        load_problem(path)
    print("ready", flush=True)


if __name__ == "__main__":
    role, workdir = sys.argv[1], Path(sys.argv[2])
    if role == "setup":
        setup(workdir)
    else:
        measure(workdir, float(sys.argv[3]), sys.argv[4] == "1")
