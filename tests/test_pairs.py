import math

import numpy as np
import pytest

from jflow.energy import (
    AffineIndicatorTerm,
    ExtendedFunctional,
    PEdgeEnergy,
    QuadraticTerm,
    TotalVariationTerm,
    shifted_value,
)
from jflow.flow import resolvent
from jflow.hilbert import WeightedSpace
from jflow.pairs import (
    JEllipticPair,
    JMap,
    chain_envelope_value,
    elliptic_extension,
    graph_reduce,
    kernel_basis,
    lifted_value,
    subgradient_residual,
    support_envelope_value,
)


def quad_pair(n=2, jmat=None, weights=None):
    E = ExtendedFunctional([QuadraticTerm(np.eye(n))], n)
    j = JMap(np.eye(n) if jmat is None else jmat)
    sp = WeightedSpace(np.ones(j.target_dim) if weights is None else weights)
    return JEllipticPair(E, j, sp)


def test_kernel_basis_identity_empty():
    assert kernel_basis(JMap(np.eye(3))).shape == (3, 0)


def test_kernel_basis_row_sum_map():
    Z = kernel_basis(JMap(np.array([[1.0, 1.0]])))
    assert Z.shape == (2, 1)
    v = Z[:, 0]
    assert abs(abs(v @ np.array([1.0, -1.0]) / np.sqrt(2)) - 1.0) < 1e-12


def test_kernel_basis_zero_map_full():
    Z = kernel_basis(JMap(np.zeros((2, 3))))
    assert Z.shape == (3, 3)
    assert np.allclose(Z.T @ Z, np.eye(3), atol=1e-12)


def test_kernel_rank_identity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m, n = rng.integers(1, 6), rng.integers(1, 6)
        mat = rng.normal(size=(m, n))
        j = JMap(mat)
        assert j.rank() + j.kernel_basis().shape[1] == n
        assert np.max(np.abs(mat @ j.kernel_basis()), initial=0.0) < 1e-10


def test_lifted_value_quadratic_partial_observation():
    pair = quad_pair(jmat=np.array([[1.0, 0.0]]), weights=np.ones(1))
    for t in (0.5, -2.0):
        res = lifted_value(pair, np.array([t]), tol=1e-10)
        assert res.value == pytest.approx(0.5 * t * t, abs=1e-9)
        assert res.minimizer == pytest.approx([t, 0.0], abs=1e-7)


def test_lifted_value_bijective_fiber():
    pair = quad_pair(2)
    u = np.array([1.0, -0.5])
    res = lifted_value(pair, u)
    assert res.value == pytest.approx(pair.E.value(u))
    assert np.allclose(res.minimizer, u)


def test_lifted_value_outside_range_is_infinite():
    pair = quad_pair(jmat=np.array([[1.0, 0.0], [1.0, 0.0]]), weights=np.ones(2))
    res = lifted_value(pair, np.array([1.0, 2.0]))
    assert math.isinf(res.value) and res.minimizer is None


def test_elliptic_extension_examples():
    pair = quad_pair(jmat=np.array([[1.0, 0.0]]), weights=np.ones(1))
    assert elliptic_extension(pair, np.array([1.0]), tol=1e-10) == pytest.approx([1.0, 0.0], abs=1e-8)
    full = quad_pair(2)
    u = np.array([0.3, 0.4])
    assert np.allclose(elliptic_extension(full, u), u)
    with pytest.raises(ValueError):
        elliptic_extension(quad_pair(jmat=np.array([[1.0, 0.0], [1.0, 0.0]]), weights=np.ones(2)), np.array([1.0, 2.0]))


def test_elliptic_extension_start_independent():
    # strictly convex on fibers: extensions agree across random starts
    E = ExtendedFunctional([QuadraticTerm(np.diag([1.0, 2.0, 0.5]))], 3)
    pair = JEllipticPair(E, JMap(np.array([[1.0, 1.0, 0.0]])), WeightedSpace(np.ones(1)))
    rng = np.random.default_rng(3)
    exts = [
        elliptic_extension(pair, np.array([1.0]), tol=1e-10, start=rng.normal(size=3))
        for _ in range(5)
    ]
    for e in exts[1:]:
        assert np.linalg.norm(e - exts[0]) <= 1e-6


def test_extension_energy_matches_lifted_value():
    E = ExtendedFunctional([QuadraticTerm(np.diag([1.0, 3.0]))], 2)
    pair = JEllipticPair(E, JMap(np.array([[1.0, -1.0]])), WeightedSpace(np.ones(1)))
    tol = 1e-9
    res = lifted_value(pair, np.array([0.8]), tol=tol)
    assert abs(pair.E.value(res.minimizer) - res.value) <= 2 * tol


def test_subgradient_residual_identity_gradient():
    pair = quad_pair(2)
    u = np.array([0.4, -1.2])
    assert subgradient_residual(pair, u, u, directions=100, seed=0) <= 1e-8


def test_subgradient_residual_detects_noise():
    pair = quad_pair(2)
    u = np.array([0.4, -1.2])
    rng = np.random.default_rng(1)
    noise = rng.normal(size=2)
    noise /= np.linalg.norm(noise)
    assert subgradient_residual(pair, u, u + noise, directions=100, seed=0) > 0.05


def test_subgradient_residual_at_global_minimum():
    pair = quad_pair(2)
    assert subgradient_residual(pair, np.zeros(2), np.zeros(2), directions=50, seed=0) <= 1e-12


def test_subgradient_residual_gradient_check():
    pair = quad_pair(2)
    u = np.array([0.4, -1.2])
    assert subgradient_residual(pair, u, u, directions=20, seed=0, include_gradient_check=True) <= 1e-6


def test_support_envelope_anchored_at_query():
    pair = quad_pair(1)
    u = np.array([0.7])
    val = support_envelope_value(pair, u, [(u, u)])
    assert val == pytest.approx(0.5 * 0.49)


def test_support_envelope_from_resolvent_sweep():
    pair = quad_pair(1)
    sweep = []
    for g in np.linspace(-2.0, 2.0, 41):
        r = resolvent(pair, 1.0, np.array([g]), tol=1e-12)
        sweep.append((r.u, r.f))
    for t in (-0.9, 0.0, 0.55):
        approx = support_envelope_value(pair, np.array([t]), sweep, lifted_tol=1e-12)
        assert approx == pytest.approx(0.5 * t * t, abs=1e-4)
        assert approx <= 0.5 * t * t + 1e-10


def test_support_envelope_is_lower_bound():
    pair = quad_pair(2)
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(8):
        g = rng.normal(size=2)
        r = resolvent(pair, 0.7, g, tol=1e-11)
        pairs.append((r.u, r.f))
    for _ in range(5):
        u = rng.normal(size=2)
        assert support_envelope_value(pair, u, pairs) <= lifted_value(pair, u).value + 1e-8


def test_support_envelope_requires_samples():
    with pytest.raises(ValueError):
        support_envelope_value(quad_pair(1), np.array([0.0]), [])


def test_support_envelope_verifies_membership():
    pair = quad_pair(2)
    bogus = (np.array([1.0, 0.0]), np.array([9.0, 9.0]))
    with pytest.raises(ValueError):
        support_envelope_value(pair, np.zeros(2), [bogus], verify_tol=1e-6)


def test_chain_envelope_length_one_matches_support():
    pair = quad_pair(1)
    base = (np.array([0.5]), np.array([0.5]))
    link = (np.array([-0.25]), np.array([-0.25]))
    u = np.array([1.0])
    chain_val = chain_envelope_value(pair, u, base, [[link]])
    manual = 0.5 * 0.25 + 0.5 * (-0.25 - 0.5) + (-0.25) * (1.0 - (-0.25))
    assert chain_val == pytest.approx(manual)


def test_chain_envelope_refinement_tightens():
    pair = quad_pair(1)
    base = (np.array([-1.0]), np.array([-1.0]))
    u = np.array([1.0])
    exact = 0.5
    chains = [[]]
    v1 = chain_envelope_value(pair, u, base, chains)
    mids = [(np.array([t]), np.array([t])) for t in (-0.5, 0.0, 0.5)]
    v2 = chain_envelope_value(pair, u, base, [mids])
    assert v1 <= v2 <= exact + 1e-10
    assert exact - v2 < exact - v1


def test_chain_envelope_empty_chain_at_base():
    pair = quad_pair(1)
    base = (np.array([0.5]), np.array([0.5]))
    val = chain_envelope_value(pair, np.array([0.5]), base, [[]])
    assert val == pytest.approx(0.5 * 0.25)
    with pytest.raises(ValueError):
        chain_envelope_value(pair, np.array([0.5]), base, [])


# --- graph reduction -------------------------------------------------------


def test_graph_reduce_full_domain_matches_original():
    pair = quad_pair(2)
    reduced = graph_reduce(pair.E, pair.j, pair.space)
    g = np.array([1.0, -0.3])
    r_full = resolvent(pair, 0.5, g, tol=1e-10)
    r_red = resolvent(reduced, 0.5, g, tol=1e-10)
    assert np.linalg.norm(r_full.u - r_red.u) <= 1e-8


def test_graph_reduce_partial_domain():
    E = ExtendedFunctional([QuadraticTerm(np.eye(2))], 2)
    j = JMap(np.array([[1.0, 0.0]]), domain=np.array([[1.0], [0.0]]))
    reduced = graph_reduce(E, j, WeightedSpace(np.ones(1)))
    # graph coordinates (w, y) with constraint y = w; energy value 0.5 t^2
    res = lifted_value(reduced, np.array([2.0]), tol=1e-10)
    assert res.value == pytest.approx(2.0, abs=1e-8)
    r = resolvent(reduced, 1.0, np.array([1.0]), tol=1e-10)
    assert r.u == pytest.approx([0.5], abs=1e-8)  # quadratic prox with unit step


def test_graph_reduce_improper_pair_errors():
    # energy forces x2 = 1 while the domain forces x2 = 0
    E = ExtendedFunctional([AffineIndicatorTerm(np.array([[0.0, 1.0]]), np.array([1.0]))], 2)
    j = JMap(np.array([[1.0, 0.0]]), domain=np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):
        graph_reduce(E, j, WeightedSpace(np.ones(1)))


def test_dependent_domain_basis_rejected():
    with pytest.raises(ValueError):
        JMap(np.eye(2), domain=np.array([[1.0, 2.0], [1.0, 2.0]]))


# --- cross-cutting invariants ----------------------------------------------


def test_identification_at_resolvent_points():
    E = ExtendedFunctional([QuadraticTerm(np.diag([1.0, 2.0, 3.0]))], 3)
    pair = JEllipticPair(E, JMap(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])), WeightedSpace(np.ones(2)))
    rng = np.random.default_rng(9)
    samples = []
    for _ in range(30):
        g = rng.normal(size=2)
        r = resolvent(pair, 0.5, g, tol=1e-11)
        samples.append((r.u, r.f))
    for u, f in samples[:5]:
        e3 = support_envelope_value(pair, u, samples + [(u, f)], lifted_tol=1e-10)
        e0 = lifted_value(pair, u, tol=1e-10).value
        assert abs(e3 - e0) <= 1e-5


def test_shift_identity_for_subgradients():
    # (u, f) certified for (E, omega) iff (u, f + omega u) certified for (E_omega, 0)
    from jflow.energy import NodewiseIntegral, ScalarPrimitive

    wobble = ScalarPrimitive(
        value_fn=lambda z: 0.5 * (1.0 - np.cos(z)),
        deriv_fn=lambda z: 0.5 * np.sin(z),
        omega=0.5,
        curvature_fn=lambda z: 0.5 * np.cos(z),
    )
    E = ExtendedFunctional([QuadraticTerm(np.eye(2)), NodewiseIntegral([0, 1], np.ones(2), wobble)], 2)
    pair = JEllipticPair(E, JMap(np.eye(2)), WeightedSpace(np.ones(2)), omega=0.5)
    r = resolvent(pair, 0.5, np.array([1.2, -0.4]), tol=1e-11)
    res_a = subgradient_residual(pair, r.u, r.f, directions=80, seed=4, extension_tol=1e-11)

    shift = QuadraticTerm(pair.omega * np.eye(2))
    E_shift = ExtendedFunctional(list(E.terms) + [shift], 2)
    pair_shift = JEllipticPair(E_shift, pair.j, pair.space, omega=0.0)
    res_b = subgradient_residual(
        pair_shift, r.u, r.f + pair.omega * r.u, directions=80, seed=4, extension_tol=1e-11
    )
    assert abs(res_a - res_b) <= 1e-9
    assert max(res_a, res_b) <= 1e-9


def test_lifted_value_independent_of_start():
    E = ExtendedFunctional([QuadraticTerm(np.diag([1.0, 2.0]))], 2)
    pair = JEllipticPair(E, JMap(np.array([[1.0, 1.0]])), WeightedSpace(np.ones(1)))
    u = np.array([1.5])
    a = lifted_value(pair, u, tol=1e-11).value
    b = lifted_value(pair, u, tol=1e-11, start=np.array([40.0, -38.5])).value
    assert abs(a - b) <= 1e-9


def test_pair_validation_flags_nonconvex_without_shift():
    from jflow.energy import NodewiseIntegral, ScalarPrimitive

    dip = ScalarPrimitive(
        value_fn=lambda z: -0.5 * z * z, deriv_fn=lambda z: -z, omega=1.0, curvature_fn=lambda z: -np.ones_like(z)
    )
    E = ExtendedFunctional([NodewiseIntegral([0], np.ones(1), dip)], 1)
    bad = JEllipticPair(E, JMap(np.eye(1)), WeightedSpace(np.ones(1)), omega=0.0)
    with pytest.raises(ValueError):
        bad.validate()
    good = JEllipticPair(E, JMap(np.eye(1)), WeightedSpace(np.ones(1)), omega=1.0)
    good.validate()


@pytest.mark.parametrize("name, seed", [("coupled_p3", 1), ("robin_p1.5", 1010), ("robin_p1.5", 16920)])
def test_lifted_value_reaches_tight_tolerance(name, seed):
    # stock fibers where first-order descent stalls above 1e-8: the p = 3
    # coupled extension and the sub-quadratic robin boundary ring; on the
    # last, the conjugate edge dual alone stalls at 2.8e-8
    from jflow import problems as P

    pair = P.load_problem(P.builtin_problems()[name]).pair
    u = np.random.default_rng(seed).normal(size=(2, pair.space.dim))[1]
    res = lifted_value(pair, u, tol=1e-8)
    x = res.minimizer
    np.testing.assert_allclose(pair.j.apply(x), u, rtol=0.0, atol=1e-12)
    free = np.ones(pair.E.dim, dtype=bool)
    free[np.argmax(pair.j.matrix, axis=1)] = False
    fiber_grad = float(np.linalg.norm(pair.E.smooth_grad(x)[free]))
    assert fiber_grad <= 1e-8
    assert res.residual == pytest.approx(fiber_grad, rel=1e-12)
    assert res.value == pair.E.value(x)


def _fiber_slice_minimize(pair, u, tol):
    # an independent reference: least-squares particular point, SciPy's
    # null-space basis and SciPy's BFGS to a Euclidean gradient norm of tol
    import scipy.linalg
    import scipy.optimize

    x0 = np.linalg.lstsq(pair.j.matrix, u, rcond=None)[0]
    Z = scipy.linalg.null_space(pair.j.matrix)
    res = scipy.optimize.minimize(
        lambda w: pair.E.smooth_value(x0 + Z @ w), np.zeros(Z.shape[1]), method="BFGS",
        jac=lambda w: Z.T @ pair.E.smooth_grad(x0 + Z @ w), options={"gtol": tol, "norm": 2},
    )
    assert res.success and np.linalg.norm(res.jac) <= tol
    return pair.E.value(x0 + Z @ res.x)


@pytest.mark.parametrize("name", ["robin_p3", "quadratic"])
def test_restriction_fiber_reads_free_coordinates(name, monkeypatch):
    from jflow import pairs, problems as P

    if name == "quadratic":
        Q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]])
        pair = JEllipticPair(
            ExtendedFunctional([QuadraticTerm(Q)], 3), JMap(np.array([[0.0, 1.0, 0.0]])), WeightedSpace(np.ones(1))
        )
    else:
        pair = P.load_problem(P.builtin_problems()[name]).pair
    u = np.random.default_rng(4).normal(size=pair.space.dim)
    reference = _fiber_slice_minimize(pair, u, tol=1e-7)

    def no_slice(*args):
        raise AssertionError("restriction fiber went through _fiber_slice")

    monkeypatch.setattr(pairs, "_fiber_slice", no_slice)
    res = lifted_value(pair, u, tol=1e-9)
    assert res.value == pytest.approx(reference, rel=0.0, abs=1e-8)
    np.testing.assert_array_equal(pair.j.apply(res.minimizer), u)


def test_general_map_fiber_uses_fiber_slice(monkeypatch):
    from jflow import pairs

    calls = []
    real = pairs._fiber_slice

    def counted(pair, u):
        calls.append(u)
        return real(pair, u)

    monkeypatch.setattr(pairs, "_fiber_slice", counted)
    E = ExtendedFunctional([QuadraticTerm(np.diag([1.0, 2.0]))], 2)
    pair = JEllipticPair(E, JMap(np.array([[1.0, 1.0]])), WeightedSpace(np.ones(1)))
    assert pair.j.observed is None
    # min x^2/2 + y^2 on x + y = 1.5 is at (1, 0.5): value 0.75
    assert lifted_value(pair, np.array([1.5]), tol=1e-10).value == pytest.approx(0.75, abs=1e-12)
    assert len(calls) == 1


def test_smooth_pairs_run_newton_on_geometry_computed_once(monkeypatch):
    # a QuadraticTerm on a restriction map, a general map and a graph-reduced
    # pair: backward steps and fibers run Newton, never the first-order
    # minimize, and no SVD is repeated after the first step and fiber
    import scipy.linalg
    from jflow import solvers

    Q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]])
    E = ExtendedFunctional([QuadraticTerm(Q)], 3)
    pairs = [
        JEllipticPair(E, JMap(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])), WeightedSpace(np.ones(2))),
        JEllipticPair(E, JMap(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])), WeightedSpace(np.array([1.0, 2.0]))),
        graph_reduce(
            E, JMap(np.array([[1.0, 0.0, 2.0]]), domain=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])), WeightedSpace(np.ones(1))
        ),
    ]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solvers, "minimize", counted("minimize", solvers.minimize))
    for mod, name in ((scipy.linalg, "null_space"), (np.linalg, "pinv"), (np.linalg, "lstsq"), (np.linalg, "svd")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    for pair in pairs:
        g = np.linspace(-1.0, 1.5, pair.space.dim)
        for round_ in range(2):
            before = len(calls)
            step = resolvent(pair, 0.5, g, tol=1e-10)
            fiber = lifted_value(pair, step.u, tol=1e-10)
            assert step.residual <= 1e-10 and fiber.residual <= 1e-10
            assert fiber.value == pytest.approx(pair.E.value(step.u_hat), abs=1e-9)
            if round_:
                assert calls[before:] == []
    assert "minimize" not in calls


# --- one slice solve for fibres and backward steps ---------------------------


def tv_chain_pair(n, observed, extra=()):
    E = ExtendedFunctional([TotalVariationTerm([(i, i + 1) for i in range(n - 1)], np.ones(n - 1)), *extra], n)
    return JEllipticPair(E, JMap(np.eye(n)[observed]), WeightedSpace(np.ones(len(observed))))


@pytest.mark.parametrize("n, observed", [(4, [0, 0, 3]), (3, [0, 0, 2])], ids=["partial-anchor", "full-anchor"])
def test_tv_step_on_a_map_observing_a_node_twice_is_refused(n, observed):
    # a node observed twice carries two data masses; the TV step solvers take one per node
    pair = tv_chain_pair(n, observed)
    with pytest.raises(NotImplementedError, match="observes a node twice"):
        resolvent(pair, 0.1, np.array([0.0, 2.0, 5.0]))
    # the fibres of the same map stay exact: finite only on consistent data
    assert lifted_value(pair, np.array([1.0, 1.0, 3.0]), tol=1e-9).value == pytest.approx(2.0, abs=1e-9)
    assert math.isinf(lifted_value(pair, np.array([0.0, 2.0, 5.0])).value)


def test_a_tv_fibre_that_misses_its_certificate_names_its_row_of_U(monkeypatch):
    # node 0 observed twice: row 1 gives it two values (an empty fibre, not
    # solved); the fibre of row 2 misses its certificate, reported by its solver
    from dataclasses import replace

    from jflow import solvers
    from jflow.pairs import SliceError, lifted_values

    pair = tv_chain_pair(5, [0, 0, 4])
    U = np.array([[1.0, 1.0, 3.0], [0.0, 2.0, 5.0], [2.0, 2.0, -1.0]])
    real, missed = solvers.constrained_tv_min, []

    def missed_above_row_2(*args, **kwargs):
        res = real(*args, **kwargs)
        if args[3][-1] != -1.0:  # the fixed values: those of row 2 end in -1
            return res
        missed.append(res.residual)
        return replace(res, converged=False)

    monkeypatch.setattr(solvers, "constrained_tv_min", missed_above_row_2)
    with pytest.raises(SliceError, match=r"fiber solve stalled: .* \(sample 2\)") as info:
        lifted_values(pair, U, tol=1e-9)
    assert info.value.sample == 2 and info.value.residual == missed[0]


def test_tv_with_a_smooth_term_is_refused_by_fibers_and_steps():
    pair = tv_chain_pair(3, [0, 2], extra=[QuadraticTerm(np.eye(3))])
    with pytest.raises(NotImplementedError, match="total-variation fiber with extra terms"):
        lifted_value(pair, np.array([0.0, 1.0]))
    with pytest.raises(NotImplementedError, match="total-variation backward step with extra terms"):
        resolvent(pair, 0.1, np.array([0.0, 1.0]))


def test_a_missed_certificate_raises_from_fibers_and_steps(monkeypatch):
    from jflow import solvers

    def stalled(value, grad, hess, start, tol, certificate=None):
        return solvers.SolveResult(np.asarray(start, float), 1.0, 7, False, value(start))

    monkeypatch.setattr(solvers, "newton", stalled)
    monkeypatch.setattr(solvers, "_try_snap", lambda problem, x, gn: (x, gn, 0))
    pair = quad_pair(3, jmat=np.eye(3)[[0, 2]], weights=np.ones(2))
    with pytest.raises(RuntimeError, match="fiber solve stalled: residual 1 after 7 iterations"):
        lifted_value(pair, np.array([0.0, 1.0]))
    with pytest.raises(RuntimeError, match="backward step solve stalled: residual 1 after 7 iterations"):
        resolvent(pair, 0.1, np.array([0.0, 1.0]))


@pytest.mark.parametrize("name", ["robin_p1.5", "tv_chain32", "robin_p3"])
def test_slice_value_is_the_slice_objective(name):
    # the conjugate edge dual (p = 1.5) tracks the dual objective, and tv_prox
    # (every node of tv_chain32 observed) reports lam times the step objective
    from jflow import problems as P
    from jflow.pairs import _solve_slice, fibers

    pair = P.load_problem(P.builtin_problems()[name]).pair
    u = np.random.default_rng(3).normal(size=pair.space.dim)
    x0, Z, _ = fibers(pair, u[None])
    fiber = _solve_slice(pair, x0, Z, 1e-8)
    assert fiber.value[0] == pytest.approx(pair.E.value(fiber.x[0]), rel=1e-12)
    lam = 0.1
    x0, Z = pair.step_slice
    step = _solve_slice(pair, x0[None], Z, 1e-8, data=(lam, u[None]))
    r = pair.j.apply(step.x[0]) - u
    objective = pair.E.value(step.x[0]) + 0.5 / lam * pair.space.inner(r, r)
    assert step.value[0] == pytest.approx(objective, rel=1e-12)


def test_edge_dual_grounds_fixed_first_endpoints(monkeypatch):
    # a p = 1.5 chain observed at node 0 only: on the free coordinates the
    # edge (0, 1) keeps just its second endpoint, so the edge dual grounds a
    # first endpoint and no second one; it certifies the fibre without the rescue
    from jflow import solvers
    from jflow.energy import NodewiseIntegral, ScalarPrimitive

    n = 5
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    square = ScalarPrimitive(lambda z: 0.5 * z * z, lambda z: z, 0.0, "square", np.ones_like)
    terms = [PEdgeEnergy(edges, np.ones(n - 1), 1.5), NodewiseIntegral(np.arange(n), np.ones(n), square)]
    pair = JEllipticPair(ExtendedFunctional(terms, n), JMap(np.eye(n)[:1]), WeightedSpace(np.ones(1)))
    monkeypatch.setattr(solvers, "_try_snap", lambda problem, x, gn: pytest.fail("rescued"))
    res = lifted_value(pair, np.array([1.0]), tol=1e-9)
    assert res.residual <= 1e-9 and res.minimizer[0] == 1.0
