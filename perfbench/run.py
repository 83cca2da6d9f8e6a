#!/usr/bin/env python3
"""jflow benchmark: `jflow check` and `jflow run`, end to end, per workload.

    python3 perfbench/run.py --workload p_ge_2 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --quick        # every workload's checks, reduced inputs

One run times a fresh interpreter's set-up several times, then starts
one worker process that runs only this workload: an untimed warm-up
round on quick inputs, then whole rounds of the same `jflow` invocations, each round on
its own inputs made from ``--seed``, until ``--seconds`` have passed.
Every round's outputs are checked against computations made apart from
jflow (``oracle.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (operations, i.e.
invocations) and ``metrics``.  With ``--trace 0`` these are the
end-to-end metrics, medians over rounds; with ``--trace 1`` traced
rounds alternate with untraced ones and the per-layer metrics are
reported instead, with the tracing overhead.

BLAS runs on one thread: with two, this benchmark's checks and runs were
slower on a 2-core machine (see README.md).
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from oracle import check_round, failed  # noqa: E402
from workloads import WORKLOADS, make_round  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = (2, 3)  # timed fresh-interpreter set-ups before and after the worker
WORKER_MARGIN = 90.0  # beyond --seconds: start-up, a warm-up round and the last round


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _setup_time(workdir):
    """Seconds from starting a fresh interpreter until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "setup", str(workdir)],
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        proc.stdout.close()
        if proc.poll() is None:  # this process is being stopped
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or code != 0:
        _fail(f"set-up process failed (exit code {code})")
    return elapsed


def _measure(workdir, seconds, trace):
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "measure", str(workdir), str(seconds),
                             "1" if trace else "0"], cwd=ROOT)
    try:
        code = proc.wait(timeout=seconds + WORKER_MARGIN)
    except subprocess.TimeoutExpired:
        _fail("worker timed out")
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.wait()
    if code != 0:
        _fail(f"worker failed (exit code {code})")
    return json.loads((workdir / "result.json").read_text())


def _correctness(plan, result):
    """Check failures over every round, operations attempted and failed."""
    errors, attempted, n_failed = [], 0, 0
    for r, rnd in enumerate(result["rounds"]):
        ops = make_round(plan["workload"], plan["seed"], r, plan["workdir"], plan["quick"], write=False)
        errors += [f"round {r}: {e}" for e in check_round(ops, rnd["codes"])]
        attempted += len(ops)
        n_failed += sum(failed(op, code) for op, code in zip(ops, rnd["codes"]))
    return errors, attempted, n_failed


def _end_to_end(plan, result, setups):
    """Medians over timed rounds, and over set-up starts."""
    ops = make_round(plan["workload"], plan["seed"], 1, plan["workdir"], plan["quick"], write=False)
    # each run evolves three orbits: its own and the two of the contraction test
    steps = sum(3 * op["steps"] for op in ops if op["kind"] == "run")
    check_s, steps_per_s = [], []
    for rnd in result["rounds"]:
        if rnd["kind"] == "timed":
            check_s.append(sum(t for op, t in zip(ops, rnd["wall"]) if op["kind"] == "check"))
            steps_per_s.append(steps / sum(t for op, t in zip(ops, rnd["wall"]) if op["kind"] == "run"))
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "check_s": {"value": statistics.median(check_s), "unit": "s"},
        "run_steps_per_s": {"value": statistics.median(steps_per_s), "unit": "steps/s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


LAYER_UNITS = {"_calls": "count", "_iterations": "count", "_evals": "count", "_ms_p50": "ms", "_share": "ratio"}


def _per_layer(result):
    rounds = result["rounds"]
    traced = [r for r in rounds if r["kind"] == "traced"]
    plain = [sum(r["wall"]) for r in rounds if r["kind"] == "timed"]
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        unit = next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "s")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced_s = statistics.median(sum(r["wall"]) for r in traced)
    metrics["trace.round_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - statistics.median(plain), "unit": "s"}
    return metrics


def run_workload(workload, seed, seconds, trace, quick=False):
    workdir = HERE / "out" / f"{workload}-{seed}{'-quick' if quick else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = {"workload": workload, "seed": seed, "quick": quick, "workdir": str(workdir)}
    (workdir / "plan.json").write_text(json.dumps(plan))
    make_round(workload, seed, 1, workdir, quick)  # the set-up starts load its problems

    setups = []
    if not trace and not quick:
        _setup_time(workdir)  # untimed: compiles bytecode, fills the file cache
        setups += [_setup_time(workdir) for _ in range(SETUP_STARTS[0])]
    result = _measure(workdir, seconds, trace)
    if setups:
        # spread over the run, so that one slow spell of the machine
        # does not decide the median
        setups += [_setup_time(workdir) for _ in range(SETUP_STARTS[1])]
    errors, attempted, n_failed = _correctness(plan, result)
    for e in errors:
        print(f"{workload}: {e}", file=sys.stderr)
    if quick:
        metrics = {}
    elif trace:
        metrics = _per_layer(result)
    else:
        metrics = _end_to_end(plan, result, setups)
    return {"correct": not errors, "attempted": attempted, "failed": n_failed, "metrics": metrics}


def main():
    # a stop request unwinds through the finally clauses that end the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="every workload once on reduced inputs, checks only")
    args = parser.parse_args()
    if not (ROOT / "src" / "jflow" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        _fail(f"no jflow sources under {ROOT}")

    if args.quick:
        ok = True
        for workload in WORKLOADS:
            t0 = time.perf_counter()
            out = run_workload(workload, args.seed, 0.0, False, quick=True)
            ok &= out["correct"] and out["failed"] == 0
            print(f"{workload:13s} correct={out['correct']} attempted={out['attempted']} failed={out['failed']} "
                  f"({time.perf_counter() - t0:.1f} s)")
        sys.exit(0 if ok else 1)
    if args.workload not in WORKLOADS:
        _fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
