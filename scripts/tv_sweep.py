#!/usr/bin/env python3
"""Sweep total-variation backward steps and the HiGHS problems their polish needs.

Runs ``evolve`` for 10 steps at tau = 0.05 from each of --orbits seeded
smooth starts, ``default_rng(200 + i)`` coefficients of the modes
``sin(k pi x)`` (chain) or ``sin(k1 pi x) sin(k2 pi y)`` (grid),
``k = 1..3``, times 2, on two pairs built with the ``problems`` API:
tv_chain32, where every node is observed (full-anchor steps,
``solvers.tv_prox``), and the 16x16 grid observed on its 6x6 centre
block (``solvers.partial_anchor_tv``).  Prints per problem the orbits,
the steps, the failed steps, the HiGHS feasibility problems of the
plateau polish (``linprog`` with equality rows), the worst step
certificate (duality gap on the chain, KKT residual on the grid) and the
wall time.  Exits 1 when a step fails.

    PYTHONPATH=src python3 scripts/tv_sweep.py [--orbits 20]
"""

import argparse
import sys
import time

import numpy as np
import scipy.optimize

from jflow.flow import EvolveError, evolve
from jflow.problems import builtin_problems, load_problem

_STEPS = 10
_TAU = 0.05
_GRID, _SIDE = 16, 6


def _problems():
    """``(name, pair, start)``, ``start(rng)`` a smooth state on the pair's data nodes."""
    chain = load_problem(builtin_problems()["tv_chain32"]).pair
    s = np.linspace(0.0, 1.0, chain.space.dim + 2)[1:-1]  # the interior of the chain
    chain_modes = np.sin(np.pi * np.arange(1, 4)[:, None] * s[None, :])

    lo = (_GRID - _SIDE) // 2
    block = [r * _GRID + c for r in range(lo, lo + _SIDE) for c in range(lo, lo + _SIDE)]
    grid = {"topology": "grid", "nx": _GRID, "ny": _GRID, "h": 1.0 / (_GRID - 1)}
    sub = load_problem({"problem": "tv", "grid": grid, "subdomain": block}).pair
    t = np.linspace(0.0, 1.0, _GRID)
    grid_modes = np.sin(np.pi * np.arange(1, 4)[:, None] * t[None, :])

    return (
        ("tv_chain32", chain, lambda rng: 2.0 * rng.normal(size=3) @ chain_modes),
        (f"tv_{_GRID}x{_GRID}_sub{_SIDE}", sub,
         lambda rng: (2.0 * grid_modes.T @ rng.normal(size=(3, 3)) @ grid_modes).ravel()[block]),
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--orbits", type=int, default=20)
    args = ap.parse_args()

    linprog = scipy.optimize.linprog
    feasibility = 0

    def counted(*a, **kw):
        nonlocal feasibility
        feasibility += "A_eq" in kw
        return linprog(*a, **kw)

    scipy.optimize.linprog = counted  # the TV solvers import it from scipy.optimize at each call
    failed_any = False
    print("problem,tau,orbits,steps,failed_steps,highs_feasibility_calls,worst_certificate,wall_s")
    for name, pair, start in _problems():
        feasibility, steps, failed, worst = 0, 0, 0, 0.0
        t0 = time.perf_counter()
        for i in range(args.orbits):
            u0 = start(np.random.default_rng(200 + i))
            try:
                traj = evolve(pair, u0, _STEPS * _TAU, _TAU, record_energies=False)
            except EvolveError as err:
                failed += 1
                steps += 1  # the step that failed
                residuals = err.partial.step_residuals
            else:
                residuals = traj.step_residuals
            steps += residuals.size - 1
            worst = max(worst, float(np.max(residuals, initial=0.0)))
        wall = time.perf_counter() - t0
        failed_any |= failed > 0
        print(f"{name},{_TAU:g},{args.orbits},{steps},{failed},{feasibility},{worst:.3g},{wall:.2f}")
    sys.exit(1 if failed_any else 0)


if __name__ == "__main__":
    main()
