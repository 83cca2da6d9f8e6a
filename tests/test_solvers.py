import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from jflow.solvers import (
    EdgeOperator,
    Objective,
    SolveSpec,
    constrained_tv_min,
    edge_incidence,
    minimize,
    newton,
    partial_anchor_tv,
    tv_prox,
)
from jflow import problems as P
from jflow.energy import PEdgeEnergy
from jflow.solvers import _weighted_gram


def _identity_gram(n):
    """``w -> diag(w)``: the Gram operator of the identity, from its triplets."""
    return _weighted_gram(np.arange(n), np.arange(n), np.ones(n), n)


def _edge_gram(edges, n):
    """The Gram operator of ``[D^T, I]`` for the incidence ``D`` of ``edges``, from triplets."""
    edge, node, sign = EdgeOperator(edges, n).entries()
    m = len(edges)
    return _weighted_gram(np.r_[node, np.arange(n)], np.r_[edge, m + np.arange(n)], np.r_[sign, np.ones(n)], n)


def quadratic_objective(center, scale=1.0):
    c = np.asarray(center, float)
    return Objective(
        smooth_value=lambda x: 0.5 * scale * float((x - c) @ (x - c)),
        smooth_grad=lambda x: scale * (x - c),
    )


def test_scalar_quadratic():
    res = minimize(SolveSpec(objective=quadratic_objective([3.0]), start=np.zeros(1), tol=1e-10))
    assert res.converged
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)


def test_soft_threshold_prox_composite():
    # |x| + 0.5 (x - 0.3)^2 has minimizer max(0.3 - 1, 0) = 0
    obj = Objective(
        smooth_value=lambda x: 0.5 * float((x - 0.3) @ (x - 0.3)),
        smooth_grad=lambda x: x - 0.3,
        prox=lambda v, s: np.sign(v) * np.maximum(np.abs(v) - s, 0.0),
        nonsmooth_value=lambda x: float(np.sum(np.abs(x))),
    )
    res = minimize(SolveSpec(objective=obj, start=np.array([5.0]), tol=1e-10))
    assert res.converged
    assert res.x[0] == pytest.approx(0.0, abs=1e-9)


def test_indicator_prox_feasible():
    b = np.array([2.0, -1.0])
    obj = Objective(
        smooth_value=lambda x: 0.5 * float(x @ x),
        smooth_grad=lambda x: x.copy(),
        prox=lambda v, s: b.copy(),
    )
    res = minimize(SolveSpec(objective=obj, start=np.zeros(2), tol=1e-8))
    assert np.array_equal(res.x, b)


def test_minimize_deterministic():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 4))
    Q = A.T @ A + 0.5 * np.eye(4)
    c = rng.normal(size=4)
    obj = Objective(
        smooth_value=lambda x: 0.5 * float(x @ (Q @ x)) - float(c @ x),
        smooth_grad=lambda x: Q @ x - c,
    )
    r1 = minimize(SolveSpec(objective=obj, start=np.zeros(4), tol=1e-11))
    r2 = minimize(SolveSpec(objective=obj, start=np.zeros(4), tol=1e-11))
    assert np.array_equal(r1.x, r2.x)
    assert r1.residual == r2.residual and r1.iterations == r2.iterations


def test_cauchy_consistency_under_tol_halving():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(5, 5))
    Q = A.T @ A + 1.0 * np.eye(5)  # strong convexity modulus at least 1
    c = rng.normal(size=5)
    obj = Objective(
        smooth_value=lambda x: 0.5 * float(x @ (Q @ x)) - float(c @ x),
        smooth_grad=lambda x: Q @ x - c,
    )
    r_loose = minimize(SolveSpec(objective=obj, start=np.zeros(5), tol=1e-6))
    r_tight = minimize(SolveSpec(objective=obj, start=np.zeros(5), tol=5e-7))
    bound = r_loose.residual / 1.0 + r_tight.residual / 1.0
    assert np.linalg.norm(r_loose.x - r_tight.x) <= bound


def test_spec_validation():
    obj = quadratic_objective([0.0])
    with pytest.raises(ValueError):
        SolveSpec(objective=obj, start=np.zeros(1), tol=0.0)
    with pytest.raises(ValueError):
        SolveSpec(objective=obj, start=np.zeros(1), max_iter=0)


def test_newton_shift_handles_vanishing_curvature():
    # (x0 - 1)^4 / 4 has zero curvature at its minimizer; the shift keeps
    # every system solvable and the iteration converging
    c = np.array([1.0, -2.0])

    def grad(x, rows):
        return np.column_stack([(x[:, 0] - c[0]) ** 3, x[:, 1] - c[1]])

    gram = _identity_gram(2)
    res = newton(
        lambda x, rows: (x[:, 0] - c[0]) ** 4 / 4 + (x[:, 1] - c[1]) ** 2 / 2,
        grad,
        lambda x, rows: gram(np.column_stack([3.0 * (x[:, 0] - c[0]) ** 2, np.ones(len(x))])),
        np.array([[3.0, 5.0]]),
        tol=1e-10,
    )
    assert res.converged and res.residual[0] <= 1e-10
    assert res.residual[0] == np.linalg.norm(grad(res.x, [0])[0])
    assert res.x[0, 1] == pytest.approx(-2.0, abs=1e-10)


def test_newton_non_finite_certificate_fails():
    res = newton(
        lambda x, rows: 0.5 * np.vecdot(x, x),
        lambda x, rows: x.copy(),
        lambda x, rows: _identity_gram(2)(np.ones((len(x), 2))),
        np.ones((1, 2)),
        tol=1e-8,
        certificate=lambda x, rows: np.full(len(x), np.nan),
    )
    assert not res.converged


def test_newton_indefinite_hessian_stops_unconverged():
    # curvature -5 stays negative after the shift: the banded Cholesky
    # fails, and Newton stops at its best iterate without raising
    gram = _identity_gram(2)
    start = np.array([[1.0, -2.0]])
    res = newton(lambda x, rows: 0.5 * np.vecdot(x, x), lambda x, rows: x.copy(),
                 lambda x, rows: gram(np.full((len(x), 2), -5.0)), start, tol=1e-8)
    assert not res.converged and res.iterations == 1
    np.testing.assert_array_equal(res.x, start)
    assert res.residual[0] == np.linalg.norm(start[0])


def test_newton_batch_freezes_a_sample_with_an_indefinite_hessian():
    # sample 0 sees curvature -5, which the shift cannot make definite: its
    # bands give NaN rows, and it stops unconverged at its start after one
    # iteration; sample 1 runs on, to the iterate it reaches alone
    c = np.array([0.0, 0.5, -0.5])
    gram = _identity_gram(3)
    start = np.array([[1.0, -2.0, 0.5], [2.0, 2.0, 2.0]])

    def hess_with(indefinite):
        def hess(x, rows):
            return gram(np.where(np.isin(rows, indefinite)[:, None], -5.0, 1.0 - np.tanh(x - c) ** 2))

        return hess

    def run(start, indefinite):
        return newton(lambda x, rows: np.add.reduce(np.log(np.cosh(x - c)), -1),
                      lambda x, rows: np.tanh(x - c), hess_with(indefinite), start, tol=1e-10)

    alone, both = run(start[1:], []), run(start, [0])
    assert alone.converged and alone.iterations > 1
    assert not both.converged and both.iterations == alone.iterations
    np.testing.assert_array_equal(both.x[0], start[0])
    assert both.residual[0] == np.linalg.norm(np.tanh(start[0] - c))
    np.testing.assert_array_equal(both.x[1], alone.x[0])
    assert both.residual[1] == alone.residual[0] <= 1e-10
    assert both.value[1] == alone.value[0]


def test_newton_quadratic_takes_one_plain_step():
    # a strictly convex banded quadratic: the unshifted step lands on the
    # minimizer, with one gradient at the start and one at the iterate
    n = 12
    edges = np.column_stack([np.arange(n), np.r_[np.arange(1, n), -1]])
    D = edge_incidence(edges, n)
    gram = _edge_gram(edges, n)
    w = np.r_[np.full(n, 50.0), np.full(n, 0.5)]
    A = (D.T @ scipy.sparse.diags(w[:n]) @ D).toarray() + 0.5 * np.eye(n)
    b = np.random.default_rng(4).normal(size=n)
    grads = []

    def value(x, rows):
        return np.array([0.5 * float(v @ A @ v) - float(b @ v) for v in x])

    def grad(x, rows):
        grads.append(1)
        return x @ A - b

    res = newton(value, grad, lambda x, rows: gram(np.tile(w, (len(x), 1))), np.zeros((1, n)), tol=1e-10)
    assert res.converged and res.iterations == 1
    assert len(grads) == 1 + res.iterations
    np.testing.assert_allclose(res.x[0], np.linalg.solve(A, b), rtol=1e-9)
    assert res.value[0] == 0.5 * float(res.x[0] @ A @ res.x[0]) - float(b @ res.x[0])


def test_newton_overshooting_plain_step_falls_back_to_shift():
    # sum log cosh(x - c) from 2: the plain step jumps far past c and fails
    # Armijo, so the shifted, backtracked step carries the iteration
    c = np.array([0.0, 0.5, -0.5])
    gram = _identity_gram(3)
    shifts = []

    class Recording:
        def __init__(self, H):
            self.H = H

        def diagonal(self):
            return self.H.diagonal()

        def solve(self, rhs, shift, sub=slice(None)):
            shifts.append(float(np.max(shift)))
            return self.H.solve(rhs, shift, sub)

    def grad(x, rows):
        return np.tanh(x - c)

    res = newton(
        lambda x, rows: np.add.reduce(np.log(np.cosh(x - c)), -1),
        grad,
        lambda x, rows: Recording(gram(1.0 - np.tanh(x - c) ** 2)),
        np.full((1, 3), 2.0),
        tol=1e-10,
    )
    assert res.converged and res.residual[0] == np.linalg.norm(grad(res.x, [0])[0])
    np.testing.assert_allclose(res.x[0], c, atol=1e-10)
    assert max(shifts) > 0.5  # the Levenberg shift min(|grad|, 1) was used
    assert len(shifts) > res.iterations  # some iterations solved twice


@pytest.mark.parametrize("nx", [8, 24, None], ids=["robin_p3-8x8", "robin_p3-24x24", "robin_p1.5-edge-dual"])
def test_banded_gram_solve_matches_dense(nx):
    # the block's Gram operators, assembled from triplets, against dense
    # B diag(w) B^T with B built from the CSR incidence of the pair's edges
    cfg = P.builtin_problems()["robin_p1.5" if nx is None else "robin_p3"]
    if nx is not None:
        cfg = {**cfg, "grid": {"topology": "grid", "nx": nx, "ny": nx, "h": 1.0 / (nx - 1)}}
    pair = P.load_problem(cfg).pair
    is_free = np.ones(pair.E.dim, dtype=bool)
    is_free[pair.j.observed] = False
    gram, dual = pair.edge_system.block(is_free)
    edges = np.vstack([t.edges for t in pair.E.smooth_terms if isinstance(t, PEdgeEnergy)])
    D_free = edge_incidence(edges, pair.E.dim)[:, is_free]
    if nx is None:
        D_keep = D_free[np.asarray(abs(D_free).sum(axis=1)).ravel() > 0]
        gram = dual[2]
        B = scipy.sparse.hstack([scipy.sparse.identity(D_keep.shape[0]), D_keep])
    else:
        B = scipy.sparse.hstack([D_free.T, scipy.sparse.identity(pair.E.dim, format="csr")[is_free]])
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 2.0, size=B.shape[1])
    H = gram(w)
    dense = (B @ scipy.sparse.diags(w) @ B.T).toarray()
    np.testing.assert_allclose(H.diagonal()[0], np.diag(dense), rtol=1e-14)
    rhs = rng.normal(size=dense.shape[0])
    for shift in (0.0, 0.3):
        x = H.solve(rhs[None], shift)[0]
        ref = np.linalg.solve(dense + shift * np.eye(dense.shape[0]), rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        ab = H.ab[0].copy()
        ab[-1] += shift
        np.testing.assert_array_equal(x, scipy.linalg.solveh_banded(ab, rhs[H.perm])[H.rank])
    if nx is not None:
        assert H.ab[0].shape[0] - 1 <= nx  # bandwidth of the RCM ordering


def _incidence_reference(edges, n):
    """The signed incidence, entry by entry: +1 at the first endpoint, -1 at the second, each that is not -1."""
    D = np.zeros((len(edges), n))
    for e, (a, b) in enumerate(edges):
        if a >= 0:
            D[e, a] = 1.0
        if b >= 0:
            D[e, b] = -1.0
    return scipy.sparse.csr_matrix(D)


@pytest.mark.parametrize("edges, n", [
    (np.column_stack([np.arange(6), np.r_[np.arange(1, 6), -1]]), 6),  # a chain grounded at its end
    (np.column_stack([np.r_[-1, np.arange(5)], np.arange(6)]), 6),  # grounded at its start: no second endpoint is
    (P.grid(4, 4, 1.0).edges(), 16),
], ids=["grounded-chain", "head-grounded-chain", "grid-4x4"])
def test_edge_operator_matches_incidence(edges, n):
    D, op = _incidence_reference(edges, n), EdgeOperator(edges, n)
    rng = np.random.default_rng(5)
    x, z, X = rng.normal(size=n), rng.normal(size=len(edges)), rng.normal(size=(n, 3))
    # the gather and the scatter sum as the CSR products do, so they agree exactly
    np.testing.assert_array_equal(op.diff(x), D @ x)
    np.testing.assert_array_equal(op.diff(X.T), (D @ X).T)
    np.testing.assert_array_equal(op.adjoint(z), D.T.tocsr() @ z)
    assert float(op.diff(x) @ z) == pytest.approx(float(x @ op.adjoint(z)), rel=1e-13)
    np.testing.assert_array_equal(edge_incidence(edges, n).toarray(), D.toarray())


def test_weighted_gram_triplets_match_dense():
    # columns of varied fill and an empty one, an explicit zero, an entry in
    # a negative row (dropped), entries in no particular order
    rng = np.random.default_rng(6)
    n, cols = 7, 9
    B = np.where(rng.uniform(size=(n, cols)) < 0.35, rng.normal(size=(n, cols)), 0.0)
    B[:, 0] = 0.0
    row, col = np.nonzero(B)
    row, col, val = np.r_[row, 3, -1][::-1], np.r_[col, 4, 2][::-1], np.r_[B[row, col], 0.0, 5.0][::-1]
    w = rng.uniform(0.5, 2.0, size=cols)
    H = _weighted_gram(row, col, val, n)(w)
    ab = H.ab[0]
    bw = ab.shape[0] - 1
    A = np.zeros((n, n))  # the band, back in the original order
    for i in range(n):
        for j in range(i, min(n, i + bw + 1)):
            A[H.perm[i], H.perm[j]] = A[H.perm[j], H.perm[i]] = ab[bw + i - j, j]
    np.testing.assert_allclose(A, B @ np.diag(w) @ B.T, rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(H.diagonal()[0], np.diag(A))


# --- total-variation proximal maps ---------------------------------------


def test_tv_prox_two_node_closed_form():
    res = tv_prox([(0, 1)], [1.0], np.array([[0.0, 2.0]]), 0.5, tol=1e-14)
    assert res.converged and res.x[0] == pytest.approx([0.5, 1.5], abs=1e-9)


def test_tv_prox_lambda_zero_returns_anchor():
    a = np.array([[0.3, -1.0, 2.0]])
    assert np.array_equal(tv_prox([(0, 1), (1, 2)], [1.0, 1.0], a, 0.0).x, a)


def test_tv_prox_constant_anchor_is_fixed():
    a = np.full((1, 4), 0.7)
    res = tv_prox([(0, 1), (1, 2), (2, 3)], np.ones(3), a, 2.0, tol=1e-14)
    assert res.converged and res.x == pytest.approx(a, abs=1e-12)


@given(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(0.01, 1.5),
    st.floats(0.2, 3.0), st.floats(0.2, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_tv_prox_two_node_matches_shrinkage(a0, a1, lam, w0, w1):
    # equal node masses: mean preserved, difference shrunk by 2*lam*w/m
    res = tv_prox([(0, 1)], [w0], np.array([[a0, a1]]), lam, tol=1e-14, node_weights=np.array([w1, w1]))
    x = res.x[0]
    assert res.converged
    mean = 0.5 * (a0 + a1)
    d = a0 - a1
    shrunk = np.sign(d) * max(abs(d) - 2.0 * lam * w0 / w1, 0.0)
    assert x[0] + x[1] == pytest.approx(2 * mean, abs=1e-8)
    assert x[0] - x[1] == pytest.approx(shrunk, abs=1e-7)


def test_tv_prox_optimality_certificate():
    # anchor - x must be lam * a subgradient of the edge-sum at x:
    # check the variational inequality against dense direction sampling
    rng = np.random.default_rng(5)
    edges = [(0, 1), (1, 2), (2, 3), (3, -1)]
    w = np.array([1.0, 0.5, 2.0, 1.0])
    anchor = rng.normal(size=4)
    lam = 0.3
    res = tv_prox(edges, w, anchor[None], lam, tol=1e-16)
    assert res.converged
    x = res.x[0]

    def tv(v):
        d = np.array([v[0] - v[1], v[1] - v[2], v[2] - v[3], v[3]])
        return float(np.sum(w * np.abs(d)))

    worst = -np.inf
    for _ in range(300):
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        for s in (1.0, 0.1, 0.01):
            growth = lam * (tv(x + s * d) - tv(x)) + 0.5 * float((x + s * d - anchor) @ (x + s * d - anchor)) - 0.5 * float((x - anchor) @ (x - anchor))
            worst = max(worst, -growth)
    assert worst <= 1e-9


def test_partial_anchor_tv_free_nodes():
    # nodes 0, 1 anchored; node 2 free: the free node settles inside the hull
    res = partial_anchor_tv(
        edges=[(0, 1), (1, 2)], weights=[1.0, 1.0], anchored=[0, 1], anchor_values=[[0.0, 2.0]],
        node_weights_anchored=[1.0, 1.0], lam=0.2, n=3, tol=1e-11,
    )
    assert res.converged
    assert res.x[0, 2] == pytest.approx(res.x[0, 1], abs=1e-6)  # free endpoint matches its only neighbour


def test_constrained_tv_min_interpolates():
    res = constrained_tv_min(
        edges=[(0, 1), (1, 2)], weights=[1.0, 1.0], fixed=[0, 2], fixed_values=[0.0, 1.0], n=3, tol=1e-12
    )
    x = res.x
    assert res.converged and x[0] == 0.0 and x[2] == 1.0
    assert 0.0 - 1e-9 <= x[1] <= 1.0 + 1e-9  # any monotone value is optimal; must stay in hull


def test_tv_solvers_report_a_missed_certificate_without_raising():
    # a tolerance no residual meets: each returns its best measured result, not converged
    edges, w = [(0, 1), (1, 2)], [1.0, 1.0]
    for res in (
        tv_prox(edges, w, np.array([[0.0, 2.0, 1.0]]), 0.5, tol=-1.0),
        partial_anchor_tv(edges, w, [0, 1], [[0.0, 2.0]], [1.0, 1.0], 0.2, 3, tol=-1.0),
        constrained_tv_min(edges, w, [0, 2], [0.0, 1.0], 3, tol=-1.0),
    ):
        assert not res.converged and 0.0 <= res.residual <= 1e-9
        assert np.all(np.isfinite(res.x)) and np.isfinite(res.value)



_CHAIN3 = dict(edges=[(0, 1), (1, 2)], anchored=[0, 1], anchor_values=[[0.0, 2.0]], n=3)


def test_partial_anchor_tv_refuses_a_zero_step():
    with pytest.raises(ValueError, match="lam must be positive"):
        partial_anchor_tv(weights=[1.0, 1.0], node_weights_anchored=[1.0, 1.0], lam=0.0, **_CHAIN3)


def test_partial_anchor_tv_refuses_a_negative_edge_weight():
    with pytest.raises(ValueError, match="edge weights must be nonnegative"):
        partial_anchor_tv(weights=[1.0, -1.0], node_weights_anchored=[1.0, 1.0], lam=0.2, **_CHAIN3)


def test_partial_anchor_tv_refuses_a_negative_node_weight():
    with pytest.raises(ValueError, match="node weights must be positive"):
        partial_anchor_tv(weights=[1.0, 1.0], node_weights_anchored=[1.0, -1.0], lam=0.2, **_CHAIN3)


def test_constrained_tv_min_refuses_a_negative_edge_weight():
    with pytest.raises(ValueError, match="edge weights must be nonnegative"):
        constrained_tv_min([(0, 1), (1, 2)], [1.0, -1.0], [0, 2], [0.0, 1.0], 3)


def _batch_and_alone(solve, S):
    """``solve(rows)`` on the whole batch and on each sample as a batch of one:
    every sample has bitwise the point, residual and value it has alone, and
    the batch the iterations of its samples alone."""
    batch, alone = solve(slice(None)), [solve(slice(s, s + 1)) for s in range(S)]
    for s, one in enumerate(alone):
        np.testing.assert_array_equal(batch.x[s], one.x[0])
        assert batch.residual[s] == one.residual[0] and batch.value[s] == one.value[0]
    assert batch.iterations == sum(one.iterations for one in alone)
    return batch, alone


def test_each_sample_of_a_tv_batch_is_its_own_solve(monkeypatch):
    # an 8x8 grid: per-sample lam, one start None; the partial-anchor rows
    # certify at the third, second and first rung of the polish, and with
    # the phase capped at 995 iterations row 0 alone runs to its cap,
    # between two KKT checks
    import jflow.solvers as solvers

    pair = P.build_tv(P.grid(8, 8, 1.0 / 7.0))
    term, n = pair.E.tv_terms[0], pair.E.dim
    rng = np.random.default_rng(3)
    anchored = np.sort(rng.choice(n, n // 3, replace=False))
    g = rng.normal(size=(3, anchored.size)) * [[0.1], [1.0], [5.0]]
    lam, starts = np.array([0.01, 0.1, 1.0]), [None, rng.normal(size=n), rng.normal(size=n)]
    real, phases = solvers._pdhg, []

    def spy(*args):
        phases.append(len(args[4]))
        return real(*args)

    def partial(rows):
        return partial_anchor_tv(term.edges, term.weights, anchored, g[rows], np.ones(anchored.size), lam[rows], n,
                                 tol=1e-13, x0=starts[rows])

    def full(rows):  # row 1 takes no step
        a, steps = 3.0 * g[:, :1] + np.sin(np.arange(n)), np.array([0.05, 0.0, 0.5])
        return tv_prox(term.edges, term.weights, a[rows], steps[rows], tol=1e-24, node_weights=pair.space.weights)

    monkeypatch.setattr(solvers, "_pdhg", spy)
    batch, _ = _batch_and_alone(partial, 3)
    assert batch.converged and phases[:3] == [3, 2, 1]  # one phase per rung, of the rows not yet certified
    batch, _ = _batch_and_alone(full, 3)
    assert batch.converged and np.array_equal(batch.x[1], 3.0 * g[1, 0] + np.sin(np.arange(n)))
    monkeypatch.setattr(solvers, "_PDHG_MAX_ITER", 995)
    batch, alone = _batch_and_alone(partial, 3)
    assert alone[0].iterations == 995 and max(alone[1].iterations, alone[2].iterations) < 995
    assert np.all(batch.residual[1:] <= 1e-13)

def _grounded_chain(n):
    return [(0, -1)] + [(i, i + 1) for i in range(n - 1)] + [(n - 1, -1)]


def _chain_dual_violation(x, anchor, m, bound, zero=1e-12):
    """How far a grounded-chain TV prox output is from admitting a dual.

    Stationarity ``m (x - anchor) + D^T z = 0`` fixes the edge variables up
    to one parameter t: ``z_0 = r_0 - t`` and ``z_k = t + r_1 + ... + r_{k-1}``
    with ``r = m (anchor - x)``.  An edge with a nonzero difference pins its
    variable at ``bound * sign(d)``, the others only need ``|z| <= bound``;
    the result is ``max(lo) - min(hi)`` over the admissible t-intervals, so a
    value <= 0 certifies optimality.
    """
    r = m * (anchor - x)
    alpha = np.concatenate([[r[0]], [0.0], np.cumsum(r[1:])])
    beta = np.concatenate([[-1.0], np.ones(x.size)])
    d = np.concatenate([[x[0]], x[:-1] - x[1:], [x[-1]]])
    lo_z = np.where(d > zero, bound, -bound)
    hi_z = np.where(d < -zero, -bound, bound)
    t1, t2 = (lo_z - alpha) / beta, (hi_z - alpha) / beta
    return float(np.max(np.minimum(t1, t2)) - np.min(np.maximum(t1, t2)))


def test_tv_prox_grounded_chain_certified_and_positive():
    # the tv_chain32 step: 32 nodes with masses h, unit edge weights, both ends grounded
    n, h = 32, 1.0 / 33.0
    edges = _grounded_chain(n)
    masses = np.full(n, h)
    rng = np.random.default_rng(404)
    worst_dual, lowest = -np.inf, np.inf
    for lam in (0.01, 0.1):
        for _ in range(5):
            anchor = np.abs(rng.normal(size=n))
            res = tv_prox(edges, np.ones(n + 1), anchor[None], lam, tol=1e-16, node_weights=masses)
            x, gap = res.x[0], res.residual[0]
            assert gap <= 1e-16
            worst_dual = max(worst_dual, _chain_dual_violation(x, anchor, masses, lam))
            lowest = min(lowest, float(x.min()))
    assert worst_dual <= 1e-12
    assert lowest >= 0.0


def _tv_step_dual_residual(edges, weights, masses, lam, g, x):
    """Optimality certificate of a full-anchor TV step, built from scratch.

    ``x`` minimizes ``lam sum_e w_e |(Dx)_e| + 1/2 |x - g|_M^2`` iff an edge
    field ``z`` with ``z_e = lam w_e sign((Dx)_e)`` on edges with a jump and
    ``|z_e| <= lam w_e`` on flat ones satisfies ``M (x - g) + D^T z = 0``.
    In units ``zeta = z / (lam w)`` and relative to the data-term scale, a
    HiGHS LP minimizes the largest residual of that equation over the flat
    edges' ``zeta`` in [-1, 1]; least squares over the edges strictly
    inside the box then removes the LP's feasibility slack.  Returns the
    refined residual and the box excess.
    """
    e = np.asarray(edges)
    rows = np.arange(e.shape[0])
    live = e[:, 1] >= 0
    D = scipy.sparse.csr_matrix(
        (np.r_[np.ones(rows.size), -np.ones(live.sum())], (np.r_[rows, rows[live]], np.r_[e[:, 0], e[live, 1]])),
        shape=(e.shape[0], x.size),
    )
    jump = D @ x
    flat = jump == 0.0  # plateaus of an exact step are exactly flat
    bound = lam * np.asarray(weights, float)
    b = -masses * (x - g) - D[~flat].T @ (bound[~flat] * np.sign(jump[~flat]))
    scale = max(float(np.max(np.abs(masses * (x - g)))), float(np.max(bound)))
    A = (D[flat].T @ scipy.sparse.diags(bound[flat])).tocsr() / scale
    beta = b / scale
    n, nf = A.shape
    ones = scipy.sparse.csr_matrix(np.ones((n, 1)))
    lp = scipy.optimize.linprog(
        np.r_[np.zeros(nf), 1.0], A_ub=scipy.sparse.bmat([[A, -ones], [-A, -ones]]), b_ub=np.r_[beta, -beta],
        bounds=[(-1.0, 1.0)] * nf + [(0, None)], method="highs",
    )
    assert lp.status == 0
    zeta = np.clip(lp.x[:nf], -1.0, 1.0)
    inner = np.abs(zeta) < 1.0 - 1e-6
    zeta[inner] -= scipy.sparse.linalg.lsqr(A[:, inner], A @ zeta - beta, atol=0.0, btol=0.0, iter_lim=20000)[0]
    return float(np.max(np.abs(A @ zeta - beta))), float(np.max(np.abs(zeta))) - 1.0


def test_tv_prox_32x32_grid_step_has_independent_dual_certificate():
    # the full-anchor step of a 32x32 TV pair at lam = 0.01, from a smooth
    # field of sine modes (at this size a dense BVLS dual took about a minute)
    n, h, lam = 32, 1.0 / 31.0, 0.01
    pair = P.build_tv(P.grid(n, n, h))
    term = pair.E.tv_terms[0]
    s = np.sin(np.pi * np.arange(1, 4)[:, None] * np.linspace(0.0, 1.0, n)[None, 1:-1])
    g = (2.0 * np.einsum("ab,ai,bj->ij", np.random.default_rng(7).normal(size=(3, 3)), s, s)).ravel()
    masses = pair.space.weights
    res = tv_prox(term.edges, term.weights, g[None], lam, tol=1e-20, node_weights=masses)
    x = res.x[0]
    assert res.residual[0] <= 1e-20
    flat_share = float(np.mean(term.diff(x) == 0.0))
    assert 0.1 < flat_share < 0.9  # the step has real plateaus and real jumps
    residual, excess = _tv_step_dual_residual(term.edges, term.weights, masses, lam, g, x)
    assert residual <= 1e-11 and excess <= 1e-11


def test_banded_solve_gives_a_nan_row_for_an_indefinite_band():
    # a batch of two bands: D^T D - I/2, whose constant vector sees -1/2, and D^T D + I/2
    n = 6
    gram = _edge_gram(np.column_stack([np.arange(n - 1), np.arange(1, n)]), n)
    H = gram(np.array([np.r_[np.ones(n - 1), np.full(n, -0.5)], np.r_[np.ones(n - 1), np.full(n, 0.5)]]))
    x = H.solve(np.ones((2, n)), 0.0)
    assert np.all(np.isnan(x[0]))
    np.testing.assert_allclose(x[1], np.full(n, 2.0), rtol=1e-14)
    # a shift per band makes both definite; ``sub`` solves a subset of the bands
    np.testing.assert_allclose(H.solve(np.ones((2, n)), np.array([1.0, 0.0])), np.full((2, n), 2.0), rtol=1e-14)
    np.testing.assert_array_equal(H.solve(np.ones((1, n)), 0.0, np.array([1])), x[1:])


def test_tv_subregion_step_certifies_from_its_own_edge_field(monkeypatch):
    # a 16x16 grid observed on its 6x6 centre block: some plateau candidate's
    # least-norm field leaves its box, the projection of the approximate
    # phase's field does not, and no HiGHS feasibility problem is needed
    from jflow import solvers
    from jflow.flow import resolvent

    n, lo = 16, 5
    block = [r * n + c for r in range(lo, lo + 6) for c in range(lo, lo + 6)]
    grid = {"topology": "grid", "nx": n, "ny": n, "h": 1.0 / (n - 1)}
    pair = P.load_problem({"problem": "tv", "grid": grid, "subdomain": block}).pair
    g = np.random.default_rng(3).normal(size=pair.space.dim)
    reference = resolvent(pair, 0.05, g)

    class NoHighs(Exception):
        pass

    def no_highs(*args, **kwargs):
        raise NoHighs

    least_norm_outside = []
    plateau = solvers._plateau_solution

    def with_least_norm_probe(D, weights, coef, anchor, x, z, pattern):
        try:
            plateau(D, weights, coef, anchor, x, np.zeros_like(z), pattern)
        except NoHighs:
            least_norm_outside.append(True)
        return plateau(D, weights, coef, anchor, x, z, pattern)

    monkeypatch.setattr(scipy.optimize, "linprog", no_highs)
    step = resolvent(pair, 0.05, g)
    np.testing.assert_array_equal(step.u_hat, reference.u_hat)
    assert step.residual == reference.residual <= 1e-8
    monkeypatch.setattr(solvers, "_plateau_solution", with_least_norm_probe)
    resolvent(pair, 0.05, g)
    assert least_norm_outside
