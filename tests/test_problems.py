import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from jflow import checks
from jflow import problems as P
from jflow.energy import TotalVariationTerm, ExtendedFunctional
from jflow.flow import evolve, resolvent
from jflow.hilbert import WeightedSpace
from jflow.pairs import JEllipticPair, JMap, lifted_value


def graph_stiffness(gridspec, coeff):
    """Independent assembly: weighted graph Laplacian over all nodes."""
    n = gridspec.node_count
    K = np.zeros((n, n))
    for a, b in gridspec.edges():
        K[a, a] += coeff
        K[b, b] += coeff
        K[a, b] -= coeff
        K[b, a] -= coeff
    return K


def linear_resolvent_oracle(pair, K_euclid, lam, g):
    """Direct sparse solve of the stationarity system for quadratic energies."""
    J = pair.j.matrix
    W = np.diag(pair.space.weights)
    A = scipy.sparse.csc_matrix(K_euclid + (J.T @ W @ J) / lam)
    rhs = (J.T @ W @ g) / lam
    x = scipy.sparse.linalg.spsolve(A, rhs)
    return J @ x


# --- robin -------------------------------------------------------------------


def test_robin_matrix_oracle_three_node_chain():
    h, b = 0.5, 2.0
    grid = P.chain(3, h)
    pair = P.build_robin(grid, 2.0, P.ScalarLaw(beta=P.beta_linear(b)))
    # hand-eliminated boundary: u0 = u1 / (1 + b h), flux through both ends
    lam = 0.3
    g = np.array([1.7])
    r = resolvent(pair, lam, g, tol=1e-12)
    a_robin = 2.0 * b / (h * (1.0 + b * h))  # operator on the single interior value
    expected = g / (1.0 + lam * a_robin)
    assert r.u == pytest.approx(expected, abs=1e-9)


def test_robin_neumann_type_constants_are_equilibria():
    pair = P.build_robin(P.grid(4, 4, 0.25), 2.0, P.ScalarLaw())
    c = 0.37 * np.ones(pair.space.dim)
    r = resolvent(pair, 0.5, c, tol=1e-11)
    assert np.allclose(r.u, c, atol=1e-8)
    assert np.max(np.abs(r.f)) <= 1e-8


def test_robin_constant_energy_value():
    h = 0.25
    grid = P.grid(4, 4, h)
    law = P.ScalarLaw(g=P.g_arctan(0.5), beta=P.beta_linear(1.0))
    pair = P.build_robin(grid, 2.0, law)
    c = 0.8
    u_hat = np.full(grid.node_count, c)
    interior, boundary = grid.interior_nodes(), grid.boundary_nodes()
    expected = interior.size * h**2 * float(law.g.value(c)) + boundary.size * h * float(
        law.beta.value(c)
    )
    assert pair.E.value(u_hat) == pytest.approx(expected, rel=1e-12)


def test_robin_rejects_p_at_most_one():
    with pytest.raises(ValueError, match="build_tv"):
        P.build_robin(P.chain(5, 0.2), 1.0, P.ScalarLaw())


def test_robin_shift_declaration():
    law = P.ScalarLaw(g=P.g_sine(0.8), beta=P.beta_linear(1.0))
    pair = P.build_robin(P.grid(4, 4, 0.25), 2.0, law)
    assert pair.omega == pytest.approx(0.8 + P.COERCIVITY_MARGIN)
    monotone = P.build_robin(P.grid(4, 4, 0.25), 2.0, P.ScalarLaw(g=P.g_arctan(0.5)))
    assert monotone.omega == 0.0


# --- trace-data flow ----------------------------------------------------------


def test_dtn_lifted_value_is_schur_complement(dtn_chain16):
    grid = P.chain(16, 1.0 / 15.0)
    K = graph_stiffness(grid, 1.0 / grid.h)
    b_nodes, i_nodes = grid.boundary_nodes(), grid.interior_nodes()
    S = K[np.ix_(b_nodes, b_nodes)] - K[np.ix_(b_nodes, i_nodes)] @ np.linalg.solve(
        K[np.ix_(i_nodes, i_nodes)], K[np.ix_(i_nodes, b_nodes)]
    )
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.normal(size=2)
        lv = lifted_value(dtn_chain16, u, tol=1e-10)
        assert lv.value == pytest.approx(0.5 * u @ S @ u, abs=1e-8)


def test_dtn_constant_boundary_extension(dtn_chain16):
    u = np.array([0.9, 0.9])
    lv = lifted_value(dtn_chain16, u, tol=1e-10)
    assert lv.value <= 1e-12
    assert np.allclose(lv.minimizer, 0.9, atol=1e-6)


def test_dtn_positivity_of_trajectories(dtn_chain16):
    rng = np.random.default_rng(1)
    for _ in range(3):
        u0 = np.abs(rng.normal(size=2))
        traj = evolve(dtn_chain16, u0, 0.5, 0.05, record_energies=False)
        assert traj.states.min() >= -1e-8


def test_dtn_kernel_dimension_is_interior_count():
    grid = P.chain(16, 1.0 / 15.0)
    pair = P.build_dtn(grid, 3.0)
    assert pair.j.kernel_basis().shape[1] == grid.interior_nodes().size


def test_dtn_needs_p_above_one():
    with pytest.raises(ValueError):
        P.build_dtn(P.chain(8, 0.2), 1.0)


# --- coupled evolution ---------------------------------------------------------


def test_coupled_linear_oracle(coupled_small):
    grid = P.chain(10, 0.2)
    interior = grid.interior_nodes()
    K_full = graph_stiffness(grid, 1.0 / grid.h)
    K = K_full[np.ix_(interior, interior)]  # zero ring eliminated
    rng = np.random.default_rng(2)
    for lam in (0.1, 1.0):
        g = rng.normal(size=4)
        direct = linear_resolvent_oracle(coupled_small, K, lam, g)
        r = resolvent(coupled_small, lam, g, tol=1e-12)
        assert np.linalg.norm(r.u - direct) <= 1e-7 * (1 + np.linalg.norm(direct))


def test_coupled_extension_satisfies_maximum_principle(coupled_small):
    u = np.array([1.0, 2.0, 1.5, 0.5])
    ext = lifted_value(coupled_small, u, tol=1e-11).minimizer
    # off-region values interpolate between zero ring and region boundary
    assert ext.min() >= -1e-9
    assert ext.max() <= 2.0 + 1e-9


def test_coupled_full_region_reduces_to_dirichlet():
    grid = P.chain(6, 0.2)
    coupled = P.build_coupled(grid, grid.interior_nodes(), 2.0)
    dirichlet = P.build_dirichlet(grid, 2.0)
    g = np.array([0.3, -1.0, 0.7, 0.2])
    ra = resolvent(coupled, 0.5, g, tol=1e-11)
    rb = resolvent(dirichlet, 0.5, g, tol=1e-11)
    assert np.linalg.norm(ra.u - rb.u) <= 1e-8


def test_coupled_rejects_region_on_ring():
    grid = P.chain(8, 0.2)
    with pytest.raises(ValueError, match="ring"):
        P.build_coupled(grid, [0, 1, 2], 2.0)
    with pytest.raises(ValueError, match="empty"):
        P.build_coupled(grid, [], 2.0)


# --- classical references ------------------------------------------------------


def test_dirichlet_matrix_oracle():
    h = 0.5
    grid = P.chain(5, h)
    pair = P.build_dirichlet(grid, 2.0)
    K = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) / h
    rng = np.random.default_rng(3)
    g = rng.normal(size=3)
    tau = 0.4
    direct = linear_resolvent_oracle(pair, K, tau, g)
    r = resolvent(pair, tau, g, tol=1e-12)
    assert np.linalg.norm(r.u - direct) <= 1e-9


def test_neumann_constants_stationary():
    pair = P.build_neumann(P.chain(6, 0.3), 2.5)
    c = -1.4 * np.ones(6)
    traj = evolve(pair, c, 0.4, 0.1, record_energies=False)
    assert np.allclose(traj.states[-1], c, atol=1e-8)


def test_dirichlet_dominated_by_neumann_chain():
    h = 0.2
    dirichlet = P.build_dirichlet(P.chain(10, h), 2.0)  # 8 interior nodes
    neumann = P.build_neumann(P.chain(8, h), 2.0)
    rep = checks.check_domination(
        dirichlet, neumann, samples=10, T=0.4, tau=0.05, seed=4, dynamic_samples=3, hypothesis_samples=5
    )
    assert rep.passed


# --- 1-homogeneous flow ---------------------------------------------------------


def test_tv_two_node_resolvent_closed_form():
    # bare two-node edge with unit masses reproduces the pairwise shrink
    E = ExtendedFunctional([TotalVariationTerm([(0, 1)], [1.0])], 2)
    pair = JEllipticPair(E, JMap(np.eye(2)), WeightedSpace(np.ones(2)))
    r = resolvent(pair, 0.5, np.array([0.0, 2.0]), tol=1e-12)
    assert r.u == pytest.approx([0.5, 1.5], abs=1e-9)


def test_tv_constant_data_decays_toward_zero():
    pair = P.build_tv(P.chain(10, 0.2))
    traj = evolve(pair, np.ones(8), 1.0, 0.1)
    assert np.all(np.diff(traj.energies) <= 1e-9)
    assert np.max(np.abs(traj.states[-1])) < 1.0
    assert traj.states.min() >= -1e-10


def test_tv_scaling_one_homogeneous():
    pair = P.build_tv(P.chain(10, 0.2))
    u = np.random.default_rng(5).normal(size=8)
    assert pair.E.value(-2.5 * u) == pytest.approx(2.5 * pair.E.value(u), rel=1e-12)


def test_tv_subregion_resolvent_runs():
    grid = P.chain(10, 0.2)
    pair = P.build_tv(grid, subdomain=[4, 5])
    g = np.array([1.0, -0.5])
    r = resolvent(pair, 0.5, g, tol=1e-8)
    assert r.u.shape == (2,)
    assert np.max(np.abs(r.u)) <= np.max(np.abs(g)) + 1e-6


# --- linear oracle across builders (quadratic case) ----------------------------


@pytest.mark.parametrize("kind", ["robin", "dtn", "coupled", "dirichlet", "neumann"])
def test_linear_oracle_every_builder(kind):
    h = 0.25
    grid = P.chain(8, h)
    if kind == "robin":
        b = 1.5
        pair = P.build_robin(grid, 2.0, P.ScalarLaw(beta=P.beta_linear(b)))
        K = graph_stiffness(grid, 1.0 / h)
        for node in grid.boundary_nodes():
            K[node, node] += b  # boundary law, d-1 weight is 1 on a chain
    elif kind == "dtn":
        pair = P.build_dtn(grid, 2.0)
        K = graph_stiffness(grid, 1.0 / h)
    elif kind == "coupled":
        pair = P.build_coupled(grid, [3, 4], 2.0)
        interior = grid.interior_nodes()
        K = graph_stiffness(grid, 1.0 / h)[np.ix_(interior, interior)]
    elif kind == "dirichlet":
        pair = P.build_dirichlet(grid, 2.0)
        interior = grid.interior_nodes()
        K = graph_stiffness(grid, 1.0 / h)[np.ix_(interior, interior)]
    else:
        pair = P.build_neumann(grid, 2.0)
        K = graph_stiffness(grid, 1.0 / h)
    rng = np.random.default_rng(6)
    for _ in range(3):
        g = rng.normal(size=pair.space.dim)
        direct = linear_resolvent_oracle(pair, K, 0.5, g)
        r = resolvent(pair, 0.5, g, tol=1e-12)
        assert np.linalg.norm(r.u - direct) <= 1e-7 * (1.0 + np.linalg.norm(direct))


def test_builders_validate(robin_small, dtn_chain16, coupled_small):
    robin_small.validate(seed=1)
    dtn_chain16.validate(seed=2)
    coupled_small.validate(seed=3)


# --- problem files --------------------------------------------------------------


def test_load_problem_roundtrip(tmp_path):
    cfg = P.builtin_problems()["coupled_p2"]
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(cfg))
    bundle = P.load_problem(path)
    assert bundle.kind == "coupled"
    assert bundle.reference is not None
    assert bundle.pair.space.dim == 16


def test_load_problem_unknown_kind():
    with pytest.raises(KeyError):
        P.load_problem({"problem": "wave", "grid": {"topology": "chain", "n": 8, "h": 0.1}, "p": 2.0})


CHAIN10 = {"topology": "chain", "n": 10, "h": 0.1}


@pytest.mark.parametrize(
    "cfg, named",
    [
        ({"problem": "tv", "grid": CHAIN10, "subdomian": [4, 5]}, "tv problem: unknown key 'subdomian'"),
        ({"problem": "dirichlet", "grid": CHAIN10, "p": 2.0, "law": {"g": {"kind": "sine", "a": 5}}},
         "dirichlet problem: unknown key 'law'; it reads problem, grid, p, omega_override, name, initial, reference"),
        ({"problem": "dirichlet", "grid": {**CHAIN10, "nx": 4}, "p": 2.0}, "grid: unknown key 'nx'; it reads topology, n, h"),
        ({"problem": "dirichlet", "grid": CHAIN10, "p": 2.0, "reference": {"problem": "neumann", "grid": CHAIN10,
          "p": 2.0, "initial": {"kind": "constant", "value": 1.0}}}, "neumann problem: unknown key 'initial'"),
        ({"problem": "robin", "grid": CHAIN10, "p": 2.0, "law": {"bta": {"kind": "zero"}}}, "law: unknown key 'bta'"),
        ({"grid": CHAIN10, "p": 2.0}, "missing key 'problem'"),
    ],
    ids=["subdomian", "law-on-dirichlet", "grid-key", "reference-key", "law-key", "no-problem"],
)
def test_load_problem_rejects_keys_the_kind_does_not_read(cfg, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        P.load_problem(cfg)


def test_load_problem_reads_every_documented_key(tmp_path):
    # the bundled files, and each kind with every key it reads (the keys the benchmark writes among them)
    for path in sorted((Path(__file__).parent.parent / "problems").glob("*.json")):
        P.load_problem(path)
    law = {"g": {"kind": "arctan", "a": 0.5, "L": 0.5, "monotone": True}, "beta": {"kind": "power", "a": 1.0, "r": 3.0, "alpha": 3.0}}
    grid4 = {"topology": "grid", "nx": 4, "ny": 4, "h": 0.25}
    common = {"name": "x", "initial": {"kind": "constant", "value": 1.0}, "omega_override": 0.5}
    reference = {"problem": "dirichlet", "grid": grid4, "p": 2.0, "omega_override": 0.0}
    for cfg in [
        {"problem": "robin", "grid": grid4, "p": 2.0, "law": law},
        {"problem": "dtn", "grid": CHAIN10, "p": 3.0, "law": law},
        {"problem": "coupled", "grid": {**grid4, "nx": 5, "ny": 5}, "subdomain": [6, 7, 11, 12], "p": 2.0},
        {"problem": "dirichlet", "grid": grid4, "p": 2.0, "reference": reference},
        {"problem": "neumann", "grid": CHAIN10, "p": 2.0},
        {"problem": "tv", "grid": grid4, "subdomain": [5, 6], "reference": None},
    ]:
        path = tmp_path / f"{cfg['problem']}.json"
        path.write_text(json.dumps({**common, **cfg}))
        assert P.load_problem(path).pair.omega == 0.5


def test_load_problem_reference_space_mismatch():
    cfg = {
        "problem": "dirichlet",
        "grid": {"topology": "chain", "n": 8, "h": 0.1},
        "p": 2.0,
        "reference": {"problem": "neumann", "grid": {"topology": "chain", "n": 8, "h": 0.1}, "p": 2.0},
    }
    with pytest.raises(ValueError, match="share the data space"):
        P.load_problem(cfg)


def test_load_problem_omega_override():
    cfg = {"problem": "neumann", "grid": {"topology": "chain", "n": 6, "h": 0.2}, "p": 2.0, "omega_override": 0.25}
    bundle = P.load_problem(cfg)
    assert bundle.pair.omega == 0.25


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        P.chain(2, 0.1)
    with pytest.raises(ValueError):
        P.grid(3, 2, 0.1)
    with pytest.raises(ValueError):
        P.GridSpec("chain", (5,), -0.1)
    g = P.grid(3, 4, 0.5)
    assert g.node_count == 12
    assert g.edges().shape == (2 * 4 + 3 * 3, 2)
    assert set(g.boundary_nodes()) | set(g.interior_nodes()) == set(range(12))


@pytest.mark.parametrize(
    "rule",
    [
        P.g_zero(),
        P.g_linear(-1.5),
        P.g_affine(2.0, 0.3),
        P.g_arctan(0.5),
        P.g_sine(0.7),
        P.beta_linear(1.0),
        P.beta_power(0.8, 2.0),
        P.beta_power(1.3, 3.0),
        P.beta_power(0.6, 4.5),
    ],
    ids=lambda rule: rule.tag,
)
def test_rule_curvature_matches_central_differences(rule):
    z = np.random.default_rng(11).uniform(0.2, 3.0, size=20) * np.resize([1.0, -1.0], 20)
    h = 1e-5
    fd = (rule.deriv(z + h) - rule.deriv(z - h)) / (2.0 * h)
    np.testing.assert_allclose(rule.curvature_fn(z), fd, rtol=1e-7, atol=1e-9)


def test_subquadratic_power_rule_keeps_difference_curvature():
    rule = P.beta_power(1.0, 1.5)
    assert rule.curvature_fn is None
    assert rule.curvature(np.array([1.0]))[0] == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize(
    "rule, omega",
    [
        (P.g_zero(), 0.0),
        (P.g_arctan(0.5), 0.0),
        (P.g_linear(0.0), 0.0),
        (P.g_linear(2.0), 0.0),
        (P.g_affine(1.0, 0.8), 0.0),
        (P.beta_zero(), 0.0),
        (P.beta_linear(1.0), 0.0),
        (P.beta_power(0.8, 2.0), 0.0),
        (P.beta_power(1.0, 1.5), 0.0),
        (P.g_linear(-1.5), 1.5),
        (P.g_affine(-2, 0.3), 2.0),
        (P.g_sine(0.7), 0.7),
    ],
    ids=[
        "g_zero", "g_arctan", "g_linear_0", "g_linear_2", "g_affine_1", "beta_zero", "beta_linear",
        "beta_power_r2", "beta_power_r1.5", "g_linear_-1.5", "g_affine_-2", "g_sine",
    ],
)
def test_law_omega_is_zero_when_monotone_else_lipschitz(rule, omega):
    # omega carries what monotonicity and the Lipschitz constant used to
    assert rule.omega == omega
    shift = P.ScalarLaw(g=rule).shift
    assert shift == (omega + P.COERCIVITY_MARGIN if omega > 0 else 0.0)


@pytest.mark.parametrize("build", [lambda g, s: P.build_coupled(g, s, 2.0), P.build_tv], ids=["coupled", "tv"])
@pytest.mark.parametrize("node", [10, 99, -1, -4])
def test_subregion_node_outside_grid_is_named(build, node):
    # a negative node must not wrap around to the end of the grid
    with pytest.raises(ValueError, match=f"subregion node {node} is outside the grid"):
        build(P.chain(10, 0.2), [3, node])
