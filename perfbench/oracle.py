"""Correctness checks on jflow's outputs, computed apart from jflow.

Nothing here imports jflow.  Graphs, weights and energies are rebuilt in
numpy from the problem configs, by the discretization convention that
``jflow.problems`` documents; the expected results follow from the
method, not from stored outputs:

* every ``check`` returns the verdict the theory fixes for its pair;
* every orbit satisfies the energy-dissipation inequality, and two
  orbits of one problem never move apart (the resolvent is a
  contraction in the data norm, since every pair here has omega = 0);
* ``coupled_p2`` (p = 2, no nodewise law): each backward step is one
  linear solve with the Schur complement of the weighted Laplacian;
* total-variation steps with every node anchored: a dual edge field in
  the subdifferential of the weighted total variation at the returned
  step certifies optimality; ``scipy.optimize.linprog`` looks for it.

Each check returns a list of failure messages (empty when it holds).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse

from workloads import data_nodes

ALL_SUITES = ["positivity", "order", "linf", "complete"]
ENERGY_RTOL = 1e-7  # energies of inexact steps (gradient residual <= 1e-7)
DISTANCE_TOL = 1e-7  # orbit distances of inexact steps
LP_RTOL = 1e-11  # refined dual residual, relative to the data-term scale


def read_trajectory(out_dir):
    lines = (Path(out_dir) / "trajectory.csv").read_text().strip().split("\n")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {"t": rows[:, 0], "u": rows[:, 1:-2], "energy": rows[:, -2], "residual": rows[:, -1]}


def _graph(cfg):
    """For the source space of a ``coupled`` or ``tv`` config (the interior
    nodes; the zero ring is eliminated): the source index of every grid
    node (-1 on the ring), the signed edge incidence (an edge to the ring
    keeps one entry), the spacing ``h`` and the dimension ``d``."""
    g = cfg["grid"]
    if g["topology"] == "chain":
        d, shape = 1, (g["n"],)
        ids = np.arange(g["n"])
        pairs = np.column_stack([ids[:-1], ids[1:]])
    else:
        d, shape = 2, (g["nx"], g["ny"])
        ids = np.arange(g["nx"] * g["ny"]).reshape(shape)
        pairs = np.vstack([np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()]),
                           np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])])
    nodes, _ = data_nodes({"problem": "robin", "grid": g})  # the interior: the source space
    local = -np.ones(int(np.prod(shape)), dtype=int)
    local[nodes] = np.arange(nodes.size)
    rows, cols, vals = [], [], []
    m = 0
    for a, b in local[pairs]:
        if a < 0 and b < 0:
            continue  # both ends on the eliminated zero ring
        for node, sign in ((a, 1.0), (b, -1.0)):
            if node >= 0:
                rows.append(m)
                cols.append(node)
                vals.append(sign)
        m += 1
    D = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(m, nodes.size))
    return local, D, g["h"], d


def check_report(op):
    """The verdict of a ``jflow check``: every suite passes."""
    errors = []
    report = json.loads((Path(op["out"]) / "report.json").read_text())
    expected = ALL_SUITES if op["suite"] == "all" else [op["suite"]]
    if report["suites"] != expected:
        errors.append(f"suites {report['suites']} != {expected}")
    for rep in report["checks"]:
        if not rep["passed"]:
            errors.append(f"{rep['name']} FAILs: violation {rep['max_violation']:.3g} > {rep['tolerance']:.3g}")
    return errors


def check_orbit(op, traj, energies=None):
    """The program's own summary verdicts, and the energy-dissipation
    inequality ``E(u_k+1) + |u_k+1 - u_k|^2 / (2 tau) <= E(u_k)``."""
    errors = []
    summary = json.loads((Path(op["out"]) / "summary.json").read_text())
    for key in ("dissipation", "contraction"):
        if summary[key]["passed"] is not True:
            errors.append(f"summary {key} verdict {summary[key]['passed']}")
    _, weights = data_nodes(op["config"])
    E = traj["energy"] if energies is None else energies
    step2 = (np.diff(traj["u"], axis=0) ** 2) @ weights
    excess = E[1:] + step2 / (2.0 * op["tau"]) - E[:-1]
    worst = float(np.max(excess / (1.0 + np.abs(E[:-1]))))
    if worst > ENERGY_RTOL:
        errors.append(f"energy dissipation violated by {worst:.3g} (relative)")
    if len(traj["t"]) != op["steps"] + 1:
        errors.append(f"{len(traj['t']) - 1} steps, expected {op['steps']}")
    return errors


def check_pair(op, traj_u, traj_v):
    """Two orbits of one problem never move apart in the data norm."""
    _, weights = data_nodes(op["config"])
    dist = np.sqrt(((traj_u["u"] - traj_v["u"]) ** 2) @ weights)
    growth = float(np.max(np.diff(dist)))
    if growth > DISTANCE_TOL * (1.0 + dist[0]):
        return [f"orbit distance grows by {growth:.3g}"]
    return []


def schur_steps(op, traj):
    """coupled_p2: exact steps ``(S + M/tau) u = M g / tau`` and lifted energy ``u^T S u / 2``.

    The edge weights are ``h^(d-p)``; ``S`` is the Schur complement of the
    grounded Laplacian onto the observed nodes.  A step certified to
    gradient residual ``r`` lies within ``r / mu`` of the exact one, with
    ``mu`` the least eigenvalue of the step Hessian ``L + P M P^T / tau``.
    Returns the failures and the exact lifted energies along the orbit.
    """
    cfg, tau = op["config"], op["tau"]
    local, D, h, d = _graph(cfg)
    c = h ** (d - cfg["p"])
    L = (D.T @ D).toarray() * c
    obs = local[np.asarray(cfg["subdomain"])]
    free = np.setdiff1d(np.arange(L.shape[0]), obs)
    S = L[np.ix_(obs, obs)] - L[np.ix_(obs, free)] @ np.linalg.solve(L[np.ix_(free, free)], L[np.ix_(free, obs)])
    M = np.full(obs.size, h**d)
    H = L.copy()
    H[obs, obs] += M / tau
    mu = float(np.linalg.eigvalsh(H)[0])
    A = S + np.diag(M / tau)
    errors = []
    u = traj["u"]
    for k in range(1, u.shape[0]):
        exact = np.linalg.solve(A, M * u[k - 1] / tau)
        err = float(np.linalg.norm(u[k] - exact))
        bound = 1.001 * traj["residual"][k] / mu + 1e-12 * (1.0 + float(np.linalg.norm(exact)))
        if err > bound:
            errors.append(f"step {k}: {err:.3g} from the exact Schur step (bound {bound:.3g})")
    energies = 0.5 * np.einsum("ki,ij,kj->k", u, S, u)
    gap = float(np.max(np.abs(energies - traj["energy"]) / (1.0 + np.abs(energies))))
    if gap > ENERGY_RTOL:
        errors.append(f"energy column {gap:.3g} from u^T S u / 2 (relative)")
    return errors, energies


def tv_lp_steps(op, traj):
    """Full-anchor TV steps: optimality certified by an edge field ``z``.

    ``x`` minimizes ``lam sum_e w_e |(Dx)_e| + 1/2 |x - g|_M^2`` iff some
    ``z`` has ``z_e = lam w_e sign((Dx)_e)`` on edges with a jump,
    ``|z_e| <= lam w_e`` on flat edges, and ``M (x - g) + D^T z = 0``.
    In units ``zeta = z / (lam w)`` and relative to the data-term scale, a
    HiGHS LP minimizes the largest residual of the last equation over the
    free ``zeta`` in ``[-1, 1]``; its solution, exact only to the LP's
    feasibility tolerance (~1e-7), is refined by least squares over the
    edges strictly inside the box, and the refined residual must vanish
    to rounding.  Returns the failures and the exact total-variation
    energies along the orbit.
    """
    cfg, lam = op["config"], op["tau"]
    _, D, h, d = _graph(cfg)
    w = np.full(D.shape[0], h ** (d - 1))
    M = np.full(D.shape[1], h**d)
    u = traj["u"]
    errors = []
    for k in range(1, u.shape[0]):
        g, x = u[k - 1], u[k]
        jump = D @ x
        flat = jump == 0.0  # plateaus of an exact step are exactly flat
        bound = lam * w
        b = -M * (x - g) - D[~flat].T @ (bound[~flat] * np.sign(jump[~flat]))
        scale = max(float(np.max(np.abs(M * (x - g)))), float(np.max(bound)))
        A = (D[flat].T @ scipy.sparse.diags(bound[flat])).toarray() / scale
        beta = b / scale
        n, nf = A.shape
        ones = np.ones((n, 1))
        res = scipy.optimize.linprog(np.r_[np.zeros(nf), 1.0], A_ub=np.block([[A, -ones], [-A, -ones]]),
                                     b_ub=np.r_[beta, -beta], bounds=[(-1.0, 1.0)] * nf + [(0, None)],
                                     method="highs")
        if res.status != 0:
            errors.append(f"step {k}: no optimality certificate (LP status {res.status})")
            continue
        zeta = np.clip(res.x[:nf], -1.0, 1.0)
        inner = np.abs(zeta) < 1.0 - 1e-6
        zeta[inner] -= np.linalg.lstsq(A[:, inner], A @ zeta - beta, rcond=None)[0]
        residual = float(np.max(np.abs(A @ zeta - beta), initial=0.0))
        excess = float(np.max(np.abs(zeta), initial=0.0)) - 1.0
        if residual > LP_RTOL or excess > LP_RTOL:
            errors.append(f"step {k}: no optimality certificate (residual {residual:.3g}, box excess {excess:.3g})")
    energies = np.abs(u @ D.T.toarray()) @ w
    gap = float(np.max(np.abs(energies - traj["energy"]) / (1.0 + energies)))
    if gap > ENERGY_RTOL:
        errors.append(f"energy column {gap:.3g} from the total variation (relative)")
    return errors, energies


def failed(op, code):
    """Whether an invocation failed: it raised, or a run exited nonzero.

    A ``check`` that exits 1 completed and reported a FAIL verdict; that is
    a wrong answer, which ``check_report`` flags, not a failed operation.
    """
    return code != 0 and not (op["kind"] == "check" and code == 1)


def check_round(ops, codes):
    """Every check of one round's operations against their output files.

    Failed operations are counted apart; their partial outputs are not
    checked.
    """
    errors = []
    trajs = {}
    for i, (op, code) in enumerate(zip(ops, codes)):
        tag = Path(op["out"]).name
        if failed(op, code):
            continue
        if op["kind"] == "check":
            errors += [f"{tag}: {e}" for e in check_report(op)]
            continue
        traj = read_trajectory(op["out"])
        exact = None
        if op["oracle"] == "schur":
            errs, exact = schur_steps(op, traj)
            errors += [f"{tag}: {e}" for e in errs]
        elif op["oracle"] == "tv_lp":
            errs, exact = tv_lp_steps(op, traj)
            errors += [f"{tag}: {e}" for e in errs]
        errors += [f"{tag}: {e}" for e in check_orbit(op, traj, exact)]
        trajs[i] = traj
        if op["start"] == "v" and i - 1 in trajs:
            errors += [f"{tag}: {e}" for e in check_pair(op, trajs[i - 1], traj)]
    return errors
