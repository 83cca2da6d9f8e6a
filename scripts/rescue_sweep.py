#!/usr/bin/env python3
"""Sweep sub-quadratic backward steps for the rescue that follows Newton.

Runs ``evolve`` on robin_p1.5 for 20 steps from each initial state
``default_rng(100 + i).normal`` (i < --orbits) at tau = 0.05 and 0.2, and
prints per tau the failed steps, the calls of the Barzilai-Borwein rescue
(``solvers._bb_descent``), the worst step residual and the wall time.
Exits 1 when a step fails.

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


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--orbits", type=int, default=20)
    args = ap.parse_args()

    pair = load_problem(builtin_problems()["robin_p1.5"]).pair
    rescue = solvers._bb_descent
    rescues = 0

    def counted(*a, **kw):
        nonlocal rescues
        rescues += 1
        return rescue(*a, **kw)

    solvers._bb_descent = counted
    failed_any = False
    print("tau,orbits,failed_steps,bb_descent_calls,worst_residual,wall_s")
    for tau in _TAUS:
        rescues, failed, worst = 0, 0, 0.0
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
        print(f"{tau:g},{args.orbits},{failed},{rescues},{worst:.3g},{wall:.2f}")
    sys.exit(1 if failed_any else 0)


if __name__ == "__main__":
    main()
