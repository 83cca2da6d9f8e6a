import numpy as np
import pytest

from jflow.energy import AffineIndicatorTerm, ExtendedFunctional, QuadraticTerm
from jflow.flow import (
    EvolveError,
    cyclic_monotonicity_gap,
    evolve,
    resolvent,
    semigroup_distance,
)
from jflow.hilbert import WeightedSpace
from jflow.pairs import JEllipticPair, JMap, subgradient_residual
from jflow import problems as P


def identity_quad_pair(n=3):
    E = ExtendedFunctional([QuadraticTerm(np.eye(n))], n)
    return JEllipticPair(E, JMap(np.eye(n)), WeightedSpace(np.ones(n)))


def test_resolvent_closed_form():
    pair = identity_quad_pair()
    g = np.array([1.0, -2.0, 0.5])
    for lam in (0.1, 0.5, 2.0):
        r = resolvent(pair, lam, g, tol=1e-12)
        assert np.allclose(r.u, g / (1.0 + lam), atol=1e-10)
        assert np.allclose(r.f, (g - r.u) / lam)


def test_resolvent_fixed_point_at_minimizer():
    pair = identity_quad_pair(2)
    g = np.zeros(2)
    r = resolvent(pair, 1.0, g, tol=1e-12)
    assert np.linalg.norm(r.u) <= 1e-10
    assert np.linalg.norm(r.f) <= 1e-10


def test_resolvent_kills_fiber_component():
    E = ExtendedFunctional([QuadraticTerm(np.eye(2))], 2)
    pair = JEllipticPair(E, JMap(np.array([[1.0, 0.0]])), WeightedSpace(np.ones(1)))
    g = np.array([1.5])
    r = resolvent(pair, 0.5, g, tol=1e-11)
    assert r.u == pytest.approx(g / 1.5, abs=1e-9)
    assert abs(r.u_hat[1]) <= 1e-7


def test_resolvent_membership_certificate():
    pair = identity_quad_pair(4)
    rng = np.random.default_rng(0)
    g = rng.normal(size=4)
    r = resolvent(pair, 0.3, g, tol=1e-11)
    assert subgradient_residual(pair, r.u, r.f, directions=100, seed=1, extension_tol=1e-11) <= 1e-10


def test_resolvent_step_bound_for_shifted_pairs():
    E = ExtendedFunctional([QuadraticTerm(np.eye(1))], 1)
    pair = JEllipticPair(E, JMap(np.eye(1)), WeightedSpace(np.ones(1)), omega=2.0)
    with pytest.raises(ValueError, match="resolvent step too large"):
        resolvent(pair, 0.5, np.array([1.0]))
    with pytest.raises(ValueError):
        resolvent(pair, -1.0, np.array([1.0]))


def test_evolve_geometric_decay():
    pair = identity_quad_pair(1)
    tau = 0.25
    traj = evolve(pair, np.array([2.0]), 2.0, tau, tol=1e-12)
    for k, state in enumerate(traj.states):
        assert state[0] == pytest.approx(2.0 / (1.0 + tau) ** k, abs=1e-8)
    assert np.allclose(np.diff(traj.times), tau)


def test_evolve_equilibrium():
    pair = identity_quad_pair(2)
    traj = evolve(pair, np.zeros(2), 0.5, 0.1, tol=1e-12)
    assert np.max(np.abs(traj.states)) <= 1e-9


def test_evolve_two_rows_when_T_equals_tau():
    pair = identity_quad_pair(1)
    traj = evolve(pair, np.array([1.0]), 0.1, 0.1)
    assert traj.states.shape[0] == 2
    assert traj.times[0] == 0.0 and traj.times[1] == pytest.approx(0.1)


def test_evolve_validates_steps():
    pair = identity_quad_pair(1)
    with pytest.raises(ValueError):
        evolve(pair, np.array([1.0]), 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve(pair, np.array([1.0]), 0.05, 0.1)
    shifted = JEllipticPair(pair.E, pair.j, pair.space, omega=2.0)
    with pytest.raises(ValueError, match="0.9/omega"):
        evolve(shifted, np.array([1.0]), 1.0, 0.46)


def test_evolve_initial_datum_out_of_range():
    E = ExtendedFunctional([QuadraticTerm(np.eye(2))], 2)
    pair = JEllipticPair(E, JMap(np.array([[1.0, 0.0], [1.0, 0.0]])), WeightedSpace(np.ones(2)))
    u0 = np.array([1.0, 2.0])  # not of the form (t, t)
    with pytest.raises(ValueError, match="outside the image"):
        evolve(pair, u0, 0.2, 0.1)


def test_evolve_start_fibre_keeps_the_tolerance(monkeypatch):
    from jflow import flow

    E = ExtendedFunctional([QuadraticTerm(np.eye(2))], 2)
    pair = JEllipticPair(E, JMap(np.array([[1.0, 0.0], [1.0, 0.0]])), WeightedSpace(np.ones(2)))
    tols = []
    original = flow.lifted_values

    def spy(pair, U, tol=1e-6, starts=None):
        tols.append(tol)
        return original(pair, U, tol, starts)

    monkeypatch.setattr(flow, "lifted_values", spy)
    for tol, expected in ((None, 1e-8), (1e-10, 1e-10)):
        tols.clear()
        evolve(pair, np.array([1.5, 1.5]), 0.2, 0.1, tol=tol)
        assert tols == [expected]  # one fibre solve, at the orbit's tolerance


def test_evolve_projects_onto_the_constraint_image():
    # E = |x|^2/2 on {x_2 = 1}, j = I: the image of the effective domain is
    # the line x_2 = 1, a datum off it is refused, and from (0.3, 1) the
    # orbit stays on it while the first coordinate decays like a quadratic flow
    E = ExtendedFunctional([QuadraticTerm(np.eye(2)), AffineIndicatorTerm(np.array([[0.0, 1.0]]), np.array([1.0]))], 2)
    pair = JEllipticPair(E, JMap(np.eye(2)), WeightedSpace(np.ones(2)))
    with pytest.raises(ValueError, match="outside the image"):
        evolve(pair, np.array([0.3, 2.0]), 0.2, 0.1)
    traj = evolve(pair, np.array([0.3, 1.0]), 0.2, 0.1)
    for k, state in enumerate(traj.states):
        assert state == pytest.approx([0.3 / 1.1**k, 1.0], abs=1e-9)


def test_evolve_energy_dissipation_inequality():
    robin = P.build_robin(P.grid(4, 4, 0.3), 2.0, P.ScalarLaw(beta=P.beta_linear(1.0)))
    rng = np.random.default_rng(2)
    u0 = rng.normal(size=robin.space.dim)
    tau = 0.1
    traj = evolve(robin, u0, 1.0, tau)
    w = robin.space.weights
    diffs = np.diff(traj.states, axis=0)
    lhs = traj.energies[1:] + (diffs * diffs) @ w / (2 * tau)
    assert np.all(lhs <= traj.energies[:-1] + 1e-7)
    assert np.all(np.diff(traj.energies) <= 1e-7)


def test_evolve_ordered_starts_stay_ordered():
    robin = P.build_robin(P.grid(4, 4, 0.3), 3.0, P.ScalarLaw(g=P.g_arctan(0.5), beta=P.beta_linear(1.0)))
    rng = np.random.default_rng(4)
    lo = rng.normal(size=robin.space.dim)
    hi = lo + np.abs(rng.normal(size=robin.space.dim))
    ta = evolve(robin, lo, 0.5, 0.05, record_energies=False)
    tb = evolve(robin, hi, 0.5, 0.05, record_energies=False)
    assert np.max(ta.states - tb.states) <= 1e-6


def test_semigroup_distance_zero_for_equal_starts():
    pair = identity_quad_pair(2)
    d = semigroup_distance(pair, np.array([1.0, -1.0]), np.array([1.0, -1.0]), 0.5, 0.1)
    assert np.max(d) <= 1e-9


def test_semigroup_distance_geometric_for_quadratic():
    pair = identity_quad_pair(1)
    tau = 0.5
    d = semigroup_distance(pair, np.array([1.0]), np.array([3.0]), 2.0, tau, tol=1e-12)
    for k in range(len(d)):
        assert d[k] == pytest.approx(2.0 / (1.0 + tau) ** k, abs=1e-8)


def test_semigroup_distance_nonincreasing():
    robin = P.build_robin(P.grid(4, 4, 0.3), 3.0, P.ScalarLaw(g=P.g_arctan(0.5), beta=P.beta_linear(1.0)))
    rng = np.random.default_rng(6)
    d = semigroup_distance(robin, rng.normal(size=robin.space.dim), rng.normal(size=robin.space.dim), 0.5, 0.05)
    assert np.max(np.diff(d)) <= 1e-8


def test_resolvent_nonexpansive_small_robin():
    robin = P.build_robin(P.grid(4, 4, 0.3), 2.0, P.ScalarLaw(beta=P.beta_linear(1.0)))
    rng = np.random.default_rng(7)
    w = robin.space.weights
    for _ in range(10):
        g1 = rng.normal(size=robin.space.dim)
        g2 = rng.normal(size=robin.space.dim)
        u1 = resolvent(robin, 0.5, g1).u
        u2 = resolvent(robin, 0.5, g2).u
        lhs = np.sqrt(np.sum(w * (u1 - u2) ** 2))
        rhs = np.sqrt(np.sum(w * (g1 - g2) ** 2))
        assert lhs <= rhs + 1e-8


def test_resolvent_identity_quadratic():
    # J_lam g = J_mu((mu/lam) g + (1 - mu/lam) J_lam g): exact for maximal
    # monotone graphs; asserted on the linear flow only
    pair = identity_quad_pair(3)
    rng = np.random.default_rng(8)
    g = rng.normal(size=3)
    lam, mu = 0.8, 0.4
    u_lam = resolvent(pair, lam, g, tol=1e-12).u
    chained = resolvent(pair, mu, (mu / lam) * g + (1 - mu / lam) * u_lam, tol=1e-12).u
    assert np.linalg.norm(chained - u_lam) <= 1e-9


def test_cyclic_monotonicity_of_resolvent_samples():
    robin = P.build_robin(P.grid(4, 4, 0.3), 2.0, P.ScalarLaw(g=P.g_arctan(0.5), beta=P.beta_linear(1.0)))
    rng = np.random.default_rng(9)
    samples = []
    for _ in range(12):
        g = rng.normal(size=robin.space.dim)
        r = resolvent(robin, 0.2, g)
        samples.append((r.u, r.f))
    gap = cyclic_monotonicity_gap(robin.space, samples, n_cycles=100, max_len=6, seed=1)
    assert gap >= -1e-8


def test_evolve_error_carries_partial_orbit():
    pair = identity_quad_pair(1)

    # a resolvent bound violation triggers on step one with the partial orbit
    shifted = JEllipticPair(pair.E, pair.j, pair.space, omega=0.0)
    bad = evolve  # keep reference for clarity

    class Boom(ExtendedFunctional):
        # fails once the orbit of u^2/2 from 1 (u_k = 1.1^-k) passes 0.5,
        # near step 7 of 20, however few solver iterations a step takes
        def smooth_grad(self, u):
            if u[0] < 0.5:
                raise RuntimeError("synthetic failure")
            return super().smooth_grad(u)

    E = Boom([QuadraticTerm(np.eye(1))], 1)
    fragile = JEllipticPair(E, JMap(np.eye(1)), WeightedSpace(np.ones(1)))
    with pytest.raises(EvolveError) as info:
        bad(fragile, np.array([1.0]), 2.0, 0.1, record_energies=False)
    partial = info.value.partial
    assert partial.states.shape[0] >= 1
    assert partial.states[0][0] == 1.0


def test_a_tv_step_that_misses_its_certificate_names_its_own_orbit(monkeypatch):
    # two tv_chain32 orbits (every node observed: one batched tv_prox call per
    # step); row 1 of the second call, the second orbit's second step, misses
    # its certificate
    from jflow import solvers
    from jflow.pairs import SliceError

    pair = P.load_problem(P.builtin_problems()["tv_chain32"]).pair
    U = np.random.default_rng(3).normal(size=(2, pair.space.dim))
    alone = evolve(pair, U[1], 0.05, 0.05, record_energies=False)
    real, calls = solvers.tv_prox, []

    def missed_on_call_2(*args, **kwargs):
        calls.append(args)
        res = real(*args, **kwargs)
        if len(calls) == 2:
            res.residual[1], res.converged = np.inf, False
        return res

    monkeypatch.setattr(solvers, "tv_prox", missed_on_call_2)
    with pytest.raises(EvolveError, match=r"step 2 failed: backward step solve stalled: .* \(sample 1\)") as info:
        evolve(pair, U, 0.2, 0.05, record_energies=(True, False))
    assert info.value.orbit == 1 and isinstance(info.value.__cause__, SliceError)
    partial = info.value.partial
    np.testing.assert_array_equal(partial.states, alone.states)
    np.testing.assert_array_equal(partial.step_residuals, alone.step_residuals)
    assert partial.energies is None


def test_subquadratic_resolvent_reaches_tight_tolerance():
    # p = 1.5 steps certified well below the default 1e-7 floor
    pair = P.load_problem(P.builtin_problems()["robin_p1.5"]).pair
    J, w = pair.j.matrix, pair.space.weights
    gs = np.random.default_rng(5).normal(size=(12, pair.space.dim))
    for lam, g in zip(np.repeat([0.01, 0.1, 1.0], 4), gs):
        r = resolvent(pair, lam, g, tol=1e-9)
        step_grad = pair.E.smooth_grad(r.u_hat) + (J.T * w) @ (J @ r.u_hat - g) / lam
        assert np.linalg.norm(step_grad) <= 1e-9
        assert r.residual == pytest.approx(np.linalg.norm(step_grad), rel=1e-9)


def test_subquadratic_orbit_rescue_certifies_every_step(monkeypatch):
    # tau = 0.2 robin_p1.5 steps where Newton stops at the float floor: the
    # plateau rescue must run and certify each step at the default tolerance
    from jflow import solvers
    from jflow.flow import _effective_tol

    pair = P.load_problem(P.builtin_problems()["robin_p1.5"]).pair
    snaps = []
    real = solvers._try_snap

    def counted(*args):
        snaps.append(args[2])
        return real(*args)

    monkeypatch.setattr(solvers, "_try_snap", counted)
    tau = 0.2
    u0 = np.random.default_rng(101).normal(size=pair.space.dim)
    traj = evolve(pair, u0, 20 * tau, tau, record_energies=False, keep_extensions=True)
    assert traj.states.shape[0] == 21
    assert snaps
    J, w = pair.j.matrix, pair.space.weights
    for k in range(1, 21):
        x = traj.extensions[k]
        step_grad = pair.E.smooth_grad(x) + (J.T * w) @ (J @ x - traj.states[k - 1]) / tau
        assert traj.step_residuals[k] <= _effective_tol(pair.E, None)
        assert traj.step_residuals[k] == pytest.approx(np.linalg.norm(step_grad), rel=1e-9)


def test_subquadratic_primal_orbits_certify_every_step():
    # p = 1.5 pairs that take primal Newton (free nodes without a law or
    # data, or a general map), whose steps stall near 1e-3 unless the
    # majorized rescue certifies them
    from jflow.flow import _effective_tol

    coupled = P.load_problem(dict(P.builtin_problems()["coupled_p2"], p=1.5)).pair
    robin = P.load_problem(P.builtin_problems()["robin_p1.5"]).pair
    J = robin.j.matrix
    averaged = JEllipticPair(robin.E, JMap(0.5 * (J + np.roll(J, 1, axis=0))), robin.space, robin.omega)
    tau = 0.2
    for pair in (coupled, averaged):
        u0 = np.random.default_rng(100).normal(size=pair.space.dim)
        if pair is averaged:  # j has rank 35 of 36: start from the weighted projection onto its image
            sw = np.sqrt(pair.space.weights)
            x, *_ = np.linalg.lstsq(sw[:, None] * pair.j.matrix, sw * u0, rcond=None)
            u0 = pair.j.apply(x)
        traj = evolve(pair, u0, 10 * tau, tau, record_energies=False, keep_extensions=True)
        assert traj.states.shape[0] == 11
        J, w = pair.j.matrix, pair.space.weights
        for k in range(1, 11):
            x = traj.extensions[k]
            step_grad = pair.E.smooth_grad(x) + (J.T * w) @ (J @ x - traj.states[k - 1]) / tau
            assert traj.step_residuals[k] <= _effective_tol(pair.E, None)
            assert traj.step_residuals[k] == pytest.approx(np.linalg.norm(step_grad), rel=1e-9)


def test_coupled_p2_step_matches_schur_solve():
    # p = 2 and no law: the energy is 1/2 x^T L x, and eliminating the
    # unobserved nodes leaves the linear step (S + M/tau) u = M g / tau
    pair = P.load_problem(P.builtin_problems()["coupled_p2"]).pair
    (term,) = pair.E.terms
    n = pair.E.dim
    L = np.zeros((n, n))
    for (a, b), c in zip(term.edges, term.weights):
        L[a, a] += c
        if b >= 0:
            L[b, b] += c
            L[a, b] -= c
            L[b, a] -= c
    obs = np.argmax(pair.j.matrix, axis=1)
    free = np.setdiff1d(np.arange(n), obs)
    S = L[np.ix_(obs, obs)] - L[np.ix_(obs, free)] @ np.linalg.solve(L[np.ix_(free, free)], L[np.ix_(free, obs)])
    M = np.diag(pair.space.weights)
    rng = np.random.default_rng(3)
    for tau in (0.05, 0.5):
        g = rng.normal(size=obs.size)
        r = resolvent(pair, tau, g)
        u_ref = np.linalg.solve(S + M / tau, M @ g / tau)
        H = L.copy()
        H[obs, obs] += pair.space.weights / tau
        mu = np.linalg.eigvalsh(H)[0]
        assert np.linalg.norm(r.u - u_ref) <= r.residual / mu + 1e-12 * (1.0 + np.linalg.norm(u_ref))


def test_robin_p3_step_certifies_tight_tolerance():
    law = P.ScalarLaw(g=P.g_arctan(0.5), beta=P.beta_linear(1.0))
    pair = P.build_robin(P.grid(12, 12, 1.0 / 11.0), 3.0, law)
    J, w = pair.j.matrix, pair.space.weights
    gs = np.random.default_rng(8).normal(size=(3, pair.space.dim))
    for lam, g in zip((0.01, 0.05, 0.5), gs):
        r = resolvent(pair, lam, g, tol=1e-10)
        step_grad = pair.E.smooth_grad(r.u_hat) + (J.T * w) @ (J @ r.u_hat - g) / lam
        assert np.linalg.norm(step_grad) <= 1e-10
        assert r.residual == pytest.approx(np.linalg.norm(step_grad), rel=1e-9)


def _rectangle_starts(count):
    """Piecewise-constant starts on the 10x10 interior of a 12x12 grid: each
    the sum of four axis-parallel rectangles with normal heights."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        image = np.zeros((10, 10))
        for _ in range(4):
            r, c = np.sort(rng.integers(0, 10, 2)), np.sort(rng.integers(0, 10, 2))
            image[r[0] : r[1] + 1, c[0] : c[1] + 1] += rng.normal()
        yield image.ravel()


@pytest.mark.parametrize("orbit", [16, 55, 68])
def test_tv_full_anchor_orbit_on_piecewise_constant_data_certifies(orbit):
    # the three orbits of the first 70 on which a dense BVLS dual broke down
    # with NaN; every step must certify the unchanged duality-gap bound
    h = 1.0 / 11.0
    pair = P.build_tv(P.grid(12, 12, h))
    u0 = list(_rectangle_starts(orbit + 1))[orbit]
    traj = evolve(pair, u0, 0.03, 0.01)
    assert traj.states.shape[0] == 4
    gap_tol = 0.25 * 1e-8**2 * h * h  # resolvent default tol 1e-8, masses h^2
    assert np.all(traj.step_residuals[1:] <= gap_tol)
    assert np.all(np.isfinite(traj.states))


# --- the start fibre is solved only when it is kept -----------------------------


def test_evolve_solves_no_start_fiber_it_does_not_keep(monkeypatch):
    from jflow import flow

    pair = P.load_problem(P.builtin_problems()["robin_p3"]).pair
    u0 = np.random.default_rng(5).normal(size=pair.space.dim)
    kept = evolve(pair, u0, 0.1, 0.05)
    calls = []
    original = flow.lifted_values

    def spy(pair, U, tol=1e-6, starts=None):
        calls.append(tol)
        return original(pair, U, tol, starts)

    monkeypatch.setattr(flow, "lifted_values", spy)
    traj = evolve(pair, u0, 0.1, 0.05, record_energies=False)
    assert calls == []
    assert traj.energies is None and traj.extensions is None
    assert np.all(traj.step_residuals <= 1e-8)
    # a different first start, the same steps to the certified tolerance
    np.testing.assert_allclose(traj.states, kept.states, rtol=0.0, atol=1e-7)
    evolve(pair, u0, 0.1, 0.05, record_energies=False, keep_extensions=True)
    assert calls == [1e-8]


def test_evolve_initial_datum_out_of_range_without_energies():
    E = ExtendedFunctional([QuadraticTerm(np.eye(2))], 2)
    pair = JEllipticPair(E, JMap(np.array([[1.0, 0.0], [1.0, 0.0]])), WeightedSpace(np.ones(2)))
    u0 = np.array([1.0, 2.0])  # not of the form (t, t)
    with pytest.raises(ValueError, match="outside the image"):
        evolve(pair, u0, 0.2, 0.1, record_energies=False)
    traj = evolve(pair, np.array([1.5, 1.5]), 0.2, 0.1, record_energies=False)
    assert traj.states[1] == pytest.approx([1.5 / 1.05, 1.5 / 1.05], abs=1e-9)  # two data rows on x_1
