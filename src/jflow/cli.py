"""Command-line front end: run orbits, run property suites, emit tables.

Exit codes: 0 success / all checks pass, 1 property violation, solver
failure or failed checker hypothesis, 2 usage or configuration error, 3
inapplicable request (e.g. a domination suite without a reference
problem in the file).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import checks
from .flow import EvolveError, evolve
from .hilbert import positive_cone
from .problems import PROBLEM_KINDS, _reject_unread, builtin_problems, load_problem

SUITES = ("positivity", "order", "linf", "complete", "domination", "comparison")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate one orbit and write trajectory.csv / summary.json")
    run.add_argument("--problem", required=True, help="problem file (JSON)")
    run.add_argument("--T", type=float, default=1.0)
    run.add_argument("--tau", type=float, default=0.05)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--tol", type=float, default=None, help="solver tolerance override")
    run.add_argument("--out", default=".", help="output directory")

    chk = sub.add_parser("check", help="run the applicable property suite and write report.json")
    chk.add_argument("--problem", required=True)
    chk.add_argument("--seed", type=int, required=True)
    chk.add_argument("--suite", choices=SUITES + ("all",), default="all")
    chk.add_argument("--samples", type=int, default=30)
    chk.add_argument("--T", type=float, default=0.5)
    chk.add_argument("--tau", type=float, default=0.05)
    chk.add_argument("--out", default=".")

    sub.add_parser("list-problems", help="list problem kinds and bundled configurations")
    return parser


def _load(path_str: str):
    path = Path(path_str)
    if not path.exists():
        print(f"jflow: problem file not found: {path}", file=sys.stderr)
        return None
    try:
        return load_problem(path)
    except (KeyError, TypeError, ValueError) as exc:  # KeyError: an unknown problem kind
        print(f"jflow: bad problem file: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return None


def _bad_steps(args, pairs) -> bool:
    """Report step arguments that no solve of ``pairs`` can take; called before any solve."""
    omega = max(pair.omega for pair in pairs)
    if not 0 < args.tau <= args.T < math.inf:
        why = "need 0 < tau <= T < inf"
    elif omega > 0 and args.tau > 0.9 / omega:
        why = f"step tau = {args.tau:g} exceeds 0.9/omega = {0.9 / omega:g}"
    elif vars(args).get("tol") is not None and not args.tol > 0:
        why = "need tol > 0"
    elif vars(args).get("samples", 1) < 1:
        why = "need samples >= 1"
    else:
        return False
    print(f"jflow: {why}", file=sys.stderr)
    return True


_INITIAL_KEYS = {"gaussian": ("kind", "scale"), "constant": ("kind", "value"), "values": ("kind", "values")}


def _initial_state(bundle, seed: int) -> np.ndarray:
    cfg = {"kind": "gaussian"} if bundle.meta.get("initial") is None else bundle.meta["initial"]
    if not isinstance(cfg, dict):
        raise ValueError(f"need an object, got {cfg!r}")
    if cfg["kind"] not in _INITIAL_KEYS:
        raise ValueError(f"unknown initial kind {cfg['kind']!r}")
    _reject_unread(cfg, _INITIAL_KEYS[cfg["kind"]], cfg["kind"])
    dim = bundle.pair.space.dim
    if cfg["kind"] == "gaussian":
        rng = np.random.default_rng(seed)
        return checks.sample_states(bundle.pair, 1, rng, scale=float(cfg.get("scale", 1.0)))[0]
    if cfg["kind"] == "constant":
        return np.full(dim, float(cfg["value"]))
    vals = np.asarray(cfg["values"], float)
    if vals.shape != (dim,):
        raise ValueError(f"initial values must have length {dim}")
    return vals


def _write_trajectory(path: Path, traj) -> None:
    m = traj.states.shape[1]
    header = ["t"] + [f"node_{i}" for i in range(m)] + ["energy", "step_residual"]
    lines = [",".join(header)]
    for k in range(traj.states.shape[0]):
        energy = traj.energies[k] if traj.energies is not None else math.nan
        row = [f"{traj.times[k]:.12g}"]
        row += [f"{x:.16g}" for x in traj.states[k]]
        row += [f"{energy:.16g}", f"{traj.step_residuals[k]:.6g}"]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    bundle = _load(args.problem)
    if bundle is None or _bad_steps(args, [bundle.pair]):
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        u0 = _initial_state(bundle, args.seed)
    except (KeyError, TypeError, ValueError) as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"jflow: bad problem file: initial state: {why}", file=sys.stderr)
        return 2

    # the contraction test pairs the run's own orbit with one from a perturbed start: one batch of two
    rng = np.random.default_rng(args.seed + 1)
    v0 = u0 + 0.1 * checks.sample_states(bundle.pair, 1, rng, scale=1.0)[0]
    try:
        traj, other = evolve(bundle.pair, np.array([u0, v0]), args.T, args.tau, tol=args.tol,
                             record_energies=(True, False))
    except EvolveError as exc:
        if exc.orbit:  # the perturbed orbit
            raise
        _write_trajectory(out / "trajectory.csv", exc.partial)
        print(f"jflow: {exc} (partial trajectory flushed)", file=sys.stderr)
        return 1
    _write_trajectory(out / "trajectory.csv", traj)

    energies = traj.energies
    diffs = np.diff(traj.states, axis=0)
    w = bundle.pair.space.weights
    step_norms2 = (diffs * diffs) @ w
    dissipation_gap = float(
        np.max(energies[1:] + step_norms2 / (2.0 * args.tau) - energies[:-1], initial=-math.inf)
    )

    diff = traj.states - other.states
    dists = np.sqrt(np.maximum((diff * diff) @ w, 0.0))
    contraction_gap = float(np.max(np.diff(dists), initial=-math.inf))

    summary = {
        "problem": bundle.name,
        "kind": bundle.kind,
        "T": args.T,
        "tau": args.tau,
        "seed": args.seed,
        "final_energy": float(energies[-1]),
        "dissipation": {"max_gap": dissipation_gap, "passed": dissipation_gap <= 1e-7},
        "contraction": {
            "max_distance_increase": contraction_gap,
            "passed": bool(contraction_gap <= 1e-8) if bundle.pair.omega == 0 else None,
        },
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    return 0


def _applicable_suites(bundle) -> list[str]:
    suites = ["positivity", "order", "linf", "complete"]
    if bundle.reference is not None:
        suites += ["comparison", "domination"]
    return suites


def _plan_suite(bundle, suite: str, args, memo) -> list:
    pair = bundle.pair
    kw = dict(samples=args.samples, T=args.T, tau=args.tau, seed=args.seed, memo=memo)
    if suite == "positivity":
        return checks.plan_invariance(pair, positive_cone(), **kw)
    if suite == "order":
        return checks.plan_order_preserving(pair, **kw)
    if suite == "linf":
        return checks.plan_linf_contractivity(pair, **kw)
    if suite == "complete":
        return checks.plan_complete_contractivity(pair, **{**kw, "samples": min(args.samples, 6)})
    if suite == "comparison":
        return checks.plan_comparison(bundle.reference, pair, **kw)
    if suite == "domination":
        return checks.plan_domination(bundle.reference, pair, **kw)
    raise ValueError(f"unknown suite {suite!r}")


def cmd_check(args) -> int:
    bundle = _load(args.problem)
    if bundle is None:
        return 2
    suites = _applicable_suites(bundle)
    if args.suite != "all":
        if args.suite not in suites:
            print(f"jflow: suite {args.suite!r} is not applicable (no reference pair)", file=sys.stderr)
            return 3
        suites = [args.suite]
    uses_reference = {"comparison", "domination"} & set(suites)
    if _bad_steps(args, [bundle.pair] + ([bundle.reference] if uses_reference else [])):
        return 2

    # every suite is planned, then all are settled at once: they share one memo of lifted values
    # and orbits, and one batch of each per pair; suite by suite where that settle fails
    planned, failure, memo = [], None, {}
    for suite in suites:
        try:
            planned.append((suite, _plan_suite(bundle, suite, args, memo)))
        except (RuntimeError, ValueError) as exc:  # met once the suites planned before it have finished
            failure = (suite, exc)
            break
    reports = []
    finished = checks.run_plans([plan for _, plan in planned])
    for suite, _ in planned:
        try:
            report = next(finished)
        except (RuntimeError, ValueError) as exc:  # a solver failure or a failed checker hypothesis
            failure = (suite, exc)
            break
        reports.append(report)
        status = "pass" if report.passed else "FAIL"
        print(f"{suite:12s} {status}  max_violation={report.max_violation:.3g} tol={report.tolerance:.3g}")
        for name, part in report.details.items():
            if isinstance(part, dict) and part.get("trials") == 0:
                print(f"{suite:12s} part {name!r} ran no trial")
    if failure is not None:
        suite, exc = failure
        print(f"jflow: suite {suite!r} failed: {exc}", file=sys.stderr)
        failure = {"suite": suite, "error": str(exc)}

    consistency = checks.consistency(reports)
    for entry in consistency:
        if not entry["holds"]:
            verdicts = ", ".join(f"{k} {'pass' if v else 'FAIL'}" for k, v in entry["verdicts"].items())
            print(f"{'consistency':12s} {entry['rule']} does not hold: {verdicts}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "problem": bundle.name,
        "kind": bundle.kind,
        "seed": args.seed,
        "suites": suites,
        "checks": [r.to_dict() for r in reports],
        "consistency": consistency,
        "passed": failure is None and all(r.passed for r in reports),
        "failure": failure,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if payload["passed"] else 1


def cmd_list() -> int:
    print("problem kinds:", ", ".join(PROBLEM_KINDS))
    print("bundled configurations:")
    for name, cfg in builtin_problems().items():
        grid_cfg = cfg["grid"]
        if grid_cfg["topology"] == "chain":
            shape = f"chain({grid_cfg['n']})"
        else:
            shape = f"grid({grid_cfg['nx']}x{grid_cfg['ny']})"
        extra = f" p={cfg['p']:g}" if "p" in cfg else ""
        ref = " +reference" if cfg.get("reference") else ""
        print(f"  {name:16s} {cfg['problem']:9s} {shape}{extra}{ref}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            return cmd_run(args)
        except RuntimeError as exc:  # a failed fiber or paired-orbit solve
            print(f"jflow: {exc}", file=sys.stderr)
            return 1
    if args.command == "check":
        return cmd_check(args)
    return cmd_list()


if __name__ == "__main__":
    sys.exit(main())
