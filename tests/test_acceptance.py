"""Desk-scale acceptance suite.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
live).  Tolerances are fixed here and match the package's contract; the
direct sparse solves, Schur complements and closed forms used as
oracles are assembled inside this module, independently of the solver
path they certify.
"""

import json

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from jflow import checks
from jflow import problems as P
from jflow.energy import ExtendedFunctional, QuadraticTerm, TotalVariationTerm
from jflow.flow import cyclic_monotonicity_gap, evolve, resolvent
from jflow.hilbert import WeightedSpace, positive_cone, power, threshold_excess, huber
from jflow.pairs import (
    JEllipticPair,
    JMap,
    lifted_value,
    subgradient_residual,
    support_envelope_value,
)
from jflow.solvers import tv_prox


def criterion(num, passed, desc):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}  {desc}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def suite():
    cfgs = P.builtin_problems()
    return {name: P.load_problem(cfg) for name, cfg in cfgs.items()}


STOCK = [
    "robin_p1.5",
    "robin_p2",
    "robin_p3",
    "dtn_p2",
    "dtn_p3",
    "coupled_p2",
    "coupled_p3",
    "tv_chain32",
]


def weighted_norm(space, v):
    return float(np.sqrt(np.sum(space.weights * v * v)))


def graph_stiffness(gridspec, coeff):
    n = gridspec.node_count
    K = np.zeros((n, n))
    for a, b in gridspec.edges():
        K[a, a] += coeff
        K[b, b] += coeff
        K[a, b] -= coeff
        K[b, a] -= coeff
    return K


def direct_linear_resolvent(pair, K_euclid, lam, g):
    J = pair.j.matrix
    W = np.diag(pair.space.weights)
    A = scipy.sparse.csc_matrix(K_euclid + (J.T @ W @ J) / lam)
    return J @ scipy.sparse.linalg.spsolve(A, (J.T @ W @ g) / lam)


def resolvent_samples(pair, count, lam=0.1, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = rng.normal(size=pair.space.dim)
        r = resolvent(pair, lam, g)
        out.append((r.u, r.f))
    return out


# --- 1. resolvent nonexpansiveness -----------------------------------------


def test_criterion_1_resolvent_nonexpansiveness(suite):
    worst = -np.inf
    for name in STOCK:
        pair = suite[name].pair
        rng = np.random.default_rng(101)
        gs = rng.normal(size=(51, pair.space.dim))
        for lam in (0.01, 0.1, 1.0):
            us = np.array([resolvent(pair, lam, g).u for g in gs])
            for i in range(50):
                lhs = weighted_norm(pair.space, us[i + 1] - us[i])
                rhs = weighted_norm(pair.space, gs[i + 1] - gs[i])
                worst = max(worst, lhs - rhs)
    criterion(1, worst <= 1e-8, f"nonexpansiveness over 50 pairs x 3 steps x 8 problems (worst gap {worst:.2e})")


# --- 2. linear oracle exactness ---------------------------------------------


def test_criterion_2_linear_oracle(suite):
    h_grid = 1.0 / 7.0
    grid8 = P.grid(8, 8, h_grid)
    chain16 = P.chain(16, 1.0 / 15.0)
    chain34 = P.chain(34, 1.0 / 33.0)
    cases = []

    robin0 = P.build_robin(grid8, 2.0, P.ScalarLaw(beta=P.beta_linear(2.0)))
    K = graph_stiffness(grid8, 1.0)  # d=2, p=2: unit edge coefficient
    for node in grid8.boundary_nodes():
        K[node, node] += 2.0 * h_grid
    cases.append(("robin g=0", robin0, K))

    robin_lin = P.build_robin(grid8, 2.0, P.ScalarLaw(g=P.g_linear(0.7), beta=P.beta_linear(1.0)))
    K = graph_stiffness(grid8, 1.0)
    for node in grid8.boundary_nodes():
        K[node, node] += 1.0 * h_grid
    for node in grid8.interior_nodes():
        K[node, node] += 0.7 * h_grid**2
    cases.append(("robin g linear", robin_lin, K))

    cases.append(("dtn", suite["dtn_p2"].pair, graph_stiffness(chain16, 15.0)))

    interior = chain34.interior_nodes()
    K = graph_stiffness(chain34, 33.0)[np.ix_(interior, interior)]
    cases.append(("coupled", suite["coupled_p2"].pair, K))

    chain18 = P.chain(18, 1.0 / 33.0)
    interior18 = chain18.interior_nodes()
    cases.append(
        ("dirichlet", P.build_dirichlet(chain18, 2.0), graph_stiffness(chain18, 33.0)[np.ix_(interior18, interior18)])
    )
    cases.append(("neumann", P.build_neumann(chain16, 2.0), graph_stiffness(chain16, 15.0)))

    worst = 0.0
    for label, pair, K_mat in cases:
        rng = np.random.default_rng(202)
        for _ in range(10):
            g = rng.normal(size=pair.space.dim)
            lam = float(rng.choice([0.1, 1.0]))
            direct = direct_linear_resolvent(pair, K_mat, lam, g)
            r = resolvent(pair, lam, g, tol=1e-11)
            rel = np.linalg.norm(r.u - direct) / (1.0 + np.linalg.norm(direct))
            worst = max(worst, rel)
    criterion(2, worst <= 1e-7, f"quadratic resolvents match direct sparse solves (worst rel err {worst:.2e})")


# --- 3. identification of the lifted functional ------------------------------


def test_criterion_3_identification(suite):
    pair = suite["dtn_p2"].pair
    grid = P.chain(16, 1.0 / 15.0)
    K = graph_stiffness(grid, 15.0)
    b_nodes, i_nodes = grid.boundary_nodes(), grid.interior_nodes()
    S = K[np.ix_(b_nodes, b_nodes)] - K[np.ix_(b_nodes, i_nodes)] @ np.linalg.solve(
        K[np.ix_(i_nodes, i_nodes)], K[np.ix_(i_nodes, b_nodes)]
    )
    rng = np.random.default_rng(303)
    worst_schur = 0.0
    for _ in range(20):
        u = rng.normal(size=2)
        worst_schur = max(worst_schur, abs(lifted_value(pair, u, tol=1e-10).value - 0.5 * u @ S @ u))

    support = resolvent_samples(pair, 50, lam=0.2, seed=304)
    points = resolvent_samples(pair, 20, lam=0.5, seed=305)
    worst_env = 0.0
    for u, f in points:
        e3 = support_envelope_value(pair, u, support + [(u, f)], lifted_tol=1e-10)
        e0 = lifted_value(pair, u, tol=1e-10).value
        worst_env = max(worst_env, abs(e3 - e0))
    ok = worst_schur <= 1e-6 and worst_env <= 1e-4
    criterion(3, ok, f"lifted value vs Schur oracle ({worst_schur:.2e}) and support envelope ({worst_env:.2e})")


# --- 4. cyclic monotonicity ---------------------------------------------------


def test_criterion_4_cyclic_monotonicity(suite):
    worst = np.inf
    for name in STOCK:
        pair = suite[name].pair
        samples = resolvent_samples(pair, 15, lam=0.1, seed=404)
        gap = cyclic_monotonicity_gap(pair.space, samples, n_cycles=100, max_len=6, seed=405)
        worst = min(worst, gap)
    criterion(4, worst >= -1e-8, f"cycle sums of operator samples stay nonnegative (worst {worst:.2e})")


# --- 5. shift identity ----------------------------------------------------------


def test_criterion_5_shift_identity(suite):
    pair = suite["robin_sine_p2"].pair
    J, W = pair.j.matrix, pair.space.weights
    shifted = JEllipticPair(
        ExtendedFunctional(list(pair.E.terms) + [QuadraticTerm(pair.omega * (J.T * W) @ J)], pair.E.dim),
        pair.j,
        pair.space,
        omega=0.0,
    )
    rng = np.random.default_rng(505)
    worst = 0.0
    for k in range(20):
        g = rng.normal(size=pair.space.dim)
        r = resolvent(pair, 0.5, g, tol=1e-10)
        res_a = subgradient_residual(pair, r.u, r.f, directions=60, seed=k, extension_tol=1e-10)
        res_b = subgradient_residual(
            shifted, r.u, r.f + pair.omega * r.u, directions=60, seed=k, extension_tol=1e-10
        )
        worst = max(worst, abs(res_a - res_b))
    criterion(5, worst <= 1e-7, f"shifted-pair memberships agree at 20 points (worst gap {worst:.2e})")


# --- 6. positivity ----------------------------------------------------------------


def test_criterion_6_positivity(suite):
    worst = np.inf
    for name in ("robin_p2", "robin_p3", "dtn_p2", "dtn_p3"):
        pair = suite[name].pair
        rng = np.random.default_rng(606)
        for _ in range(20):
            u0 = np.abs(rng.normal(size=pair.space.dim))
            traj = evolve(pair, u0, 1.0, 0.05, record_energies=False)
            worst = min(worst, float(traj.states.min()))
    criterion(6, worst >= -1e-6, f"nonnegative data stay nonnegative along orbits (worst {worst:.2e})")


# --- 7. order preservation and sup-norm contraction -------------------------------


def test_criterion_7_order_and_supnorm(suite):
    all_ok = True
    detail = []
    for name in ("robin_p2", "robin_p3", "dtn_p2", "dtn_p3"):
        pair = suite[name].pair
        order = checks.check_order_preserving(
            pair, samples=50, T=1.0, tau=0.05, seed=707, dynamic_samples=20,
            tol_fun=1e-8, tol_dyn=1e-6,
        )
        supnorm = checks.check_linf_contractivity(
            pair, samples=50, T=1.0, tau=0.05, seed=708, dynamic_samples=20,
            tol_fun=1e-8, tol_dyn=1e-6,
        )
        all_ok = all_ok and order.passed and supnorm.passed
        detail.append(f"{name}:{order.max_violation:.1e}/{supnorm.max_violation:.1e}")
    criterion(7, all_ok, "order preservation and sup-norm contraction (" + " ".join(detail) + ")")


# --- 8. domination -------------------------------------------------------------------


def test_criterion_8_domination(suite):
    all_ok = True
    detail = []
    for name in ("coupled_p2", "coupled_p3"):
        bundle = suite[name]
        rep = checks.check_domination(
            bundle.reference, bundle.pair, samples=50, T=1.0, tau=0.05, seed=808,
            dynamic_samples=20, tol_fun=1e-8, tol_dyn=1e-6, hypothesis_samples=8,
        )
        all_ok = all_ok and rep.passed
        detail.append(f"{name}:{rep.max_violation:.1e}")
    criterion(8, all_ok, "pinned flow dominated by the coupled flow (" + " ".join(detail) + ")")


# --- 9. gauge contraction family -----------------------------------------------------


def test_criterion_9_gauge_family(suite):
    family = [power(q) for q in (1.0, 1.5, 2.0, 4.0)] + [threshold_excess(k) for k in (0.1, 1.0)] + [huber(0.5)]
    all_ok = True
    detail = []
    for name in ("robin_p2", "robin_p3"):
        pair = suite[name].pair
        contraction = checks.check_complete_contractivity(
            pair, psi_family=family, samples=10, T=1.0, tau=0.05, seed=909, tol=1e-6
        )
        op_pairs = resolvent_samples(pair, 8, lam=0.2, seed=910)
        agree = True
        for psi in family:
            rep = checks.check_psi_accretive(
                pair,
                checks.integral_functional(pair.space, psi),
                op_pairs,
                seed=911,
                T=0.5,
                tau=0.05,
                verify_tol=None,  # samples come straight from resolvent steps
                crosscheck_samples=2,
                psi_name=psi.tag,
            )
            agree = agree and rep.details["crosscheck_agrees"] and rep.passed
        all_ok = all_ok and contraction.passed and agree
        detail.append(f"{name}:{contraction.max_violation:.1e}")
    criterion(9, all_ok, "modular contraction for the gauge family + accretivity agreement (" + " ".join(detail) + ")")


# --- 10. energy dissipation ------------------------------------------------------------


def test_criterion_10_energy_dissipation(suite):
    worst = -np.inf
    for name in STOCK:
        pair = suite[name].pair
        rng = np.random.default_rng(1010)
        tau = 0.05
        for _ in range(3):
            u0 = rng.normal(size=pair.space.dim)
            traj = evolve(pair, u0, 1.0, tau)
            diffs = np.diff(traj.states, axis=0)
            steps2 = (diffs * diffs) @ pair.space.weights
            gap = float(np.max(traj.energies[1:] + steps2 / (2 * tau) - traj.energies[:-1]))
            worst = max(worst, gap)
    criterion(10, worst <= 1e-7, f"implicit-step energy inequality at every step (worst gap {worst:.2e})")


# --- 11. 1-homogeneous flow sanity -------------------------------------------------------


def test_criterion_11_tv_flow(suite):
    x = tv_prox([(0, 1)], [1.0], np.array([0.0, 2.0]), 0.5, tol=1e-16).x
    closed_form_gap = float(np.max(np.abs(x - [0.5, 1.5])))

    E = ExtendedFunctional([TotalVariationTerm([(0, 1)], [1.0])], 2)
    two_node = JEllipticPair(E, JMap(np.eye(2)), WeightedSpace(np.ones(2)))
    r = resolvent(two_node, 0.5, np.array([0.0, 2.0]), tol=1e-12)
    step_gap = float(np.max(np.abs(r.u - [0.5, 1.5])))

    pair = suite["tv_chain32"].pair
    traj = evolve(pair, np.ones(pair.space.dim), 1.0, 0.05)
    mono = bool(np.all(np.diff(traj.energies) <= 1e-9))
    decayed = float(np.max(np.abs(traj.states[-1]))) < 1e-6

    ok = closed_form_gap <= 1e-9 and step_gap <= 1e-9 and mono and decayed
    criterion(
        11,
        ok,
        f"two-node shrink ({closed_form_gap:.1e}/{step_gap:.1e}), constant data decays to zero with nonincreasing variation",
    )


# --- 12. determinism ------------------------------------------------------------------------


def test_criterion_12_determinism(suite):
    pair = suite["robin_p2"].pair
    kw = dict(samples=50, T=1.0, tau=0.05, seed=707, dynamic_samples=20, tol_fun=1e-8, tol_dyn=1e-6)
    a = checks.check_order_preserving(pair, **kw).to_dict()
    b = checks.check_order_preserving(pair, **kw).to_dict()
    identical = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    criterion(12, identical, "repeated checks with one seed produce identical reports")
