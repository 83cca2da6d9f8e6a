#!/usr/bin/env python3
"""Run the full property battery over the bundled problems and print a
verdict matrix (rows: problems, columns: checks).  Problems with a
``reference`` also run ``comparison`` and ``domination`` against it.  The
``consistent`` column reads ``checks.consistency`` off the row's reports:
FAIL when an implication among their verdicts does not hold (on
coupled_p2/p3, the functional part of ``comparison`` passes while its
orbit part fails)."""

import argparse

from jflow import checks
from jflow.hilbert import positive_cone
from jflow.problems import builtin_problems, load_problem


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--T", type=float, default=0.5)
    ap.add_argument("--tau", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    kw = dict(samples=args.samples, T=args.T, tau=args.tau, seed=args.seed, dynamic_samples=4)
    names = ("positive", "order", "supnorm", "complete", "comparison", "domination", "consistent")
    print(f"{'problem':16s} " + " ".join(f"{n:>10s}" for n in names))
    for name, cfg in builtin_problems().items():
        bundle = load_problem(cfg)
        pair = bundle.pair
        reports = {
            "positive": checks.check_invariance(pair, positive_cone(), resolvent_samples=4, **kw),
            "order": checks.check_order_preserving(pair, **kw),
            "supnorm": checks.check_linf_contractivity(pair, **kw),
            "complete": checks.check_complete_contractivity(pair, samples=4, T=args.T, tau=args.tau, seed=args.seed),
        }
        if bundle.reference is not None:
            reports["comparison"] = checks.check_comparison(bundle.reference, pair, **kw)
            reports["domination"] = checks.check_domination(bundle.reference, pair, **kw)
        row = {n: r.passed for n, r in reports.items()}
        row["consistent"] = all(e["holds"] for e in checks.consistency(list(reports.values())))
        cells = " ".join(f"{('-' if row.get(n) is None else 'pass' if row[n] else 'FAIL'):>10s}" for n in names)
        print(f"{name:16s} {cells}")


if __name__ == "__main__":
    main()
