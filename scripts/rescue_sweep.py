#!/usr/bin/env python3
"""Sweep sub-quadratic backward steps for the rescue that follows Newton.

Runs ``evolve`` for 20 steps from each initial state
``default_rng(100 + i).normal`` (i < --orbits) at tau = 0.05 and 0.2 on
robin_p1.5 and on the dtn_p2 and coupled_p2 configs rebuilt with p = 1.5,
and prints per problem and tau the failed steps, the calls of the rescue
(``solvers._try_snap``), how many of them certified the step tolerance,
the worst step residual and the wall time.  Exits 1 when a step fails.

    PYTHONPATH=src python3 scripts/rescue_sweep.py [--orbits 20]
"""

import argparse
import sys
import time

import numpy as np

from jflow import solvers
from jflow.flow import EvolveError, evolve
from jflow.problems import builtin_problems, load_problem

_STEPS = 20
_TAUS = (0.05, 0.2)
_PROBLEMS = ("robin_p1.5", "dtn_p2", "coupled_p2")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--orbits", type=int, default=20)
    args = ap.parse_args()

    rescue = solvers._try_snap
    rescues = certified = 0

    def counted(problem, x, gn):
        nonlocal rescues, certified
        out = rescue(problem, x, gn)
        rescues += 1
        certified += out[1] <= problem.tol
        return out

    solvers._try_snap = counted
    failed_any = False
    print("problem,tau,orbits,failed_steps,snap_calls,snap_certified,worst_residual,wall_s")
    for name in _PROBLEMS:
        pair = load_problem(dict(builtin_problems()[name], p=1.5)).pair
        for tau in _TAUS:
            rescues, certified, failed, worst = 0, 0, 0, 0.0
            t0 = time.perf_counter()
            for i in range(args.orbits):
                u0 = np.random.default_rng(100 + i).normal(size=pair.space.dim)
                try:
                    traj = evolve(pair, u0, _STEPS * tau, tau, record_energies=False)
                except EvolveError as err:
                    failed += 1
                    residuals = err.partial.step_residuals
                else:
                    residuals = traj.step_residuals
                worst = max(worst, float(np.max(residuals, initial=0.0)))
            wall = time.perf_counter() - t0
            failed_any |= failed > 0
            print(f"{name},{tau:g},{args.orbits},{failed},{rescues},{certified},{worst:.3g},{wall:.2f}")
    sys.exit(1 if failed_any else 0)


if __name__ == "__main__":
    main()
