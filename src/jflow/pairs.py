"""Energies paired with a linear map into a weighted data space.

The central object is the pair (energy on ``R^n``, linear map ``j`` into
a weighted space ``H``) with a declared convexity shift ``omega``.  The
energy lifts to a functional on ``H`` by minimizing over the fibers of
``j``; fiber minimizers are the elliptic extensions through which the
multivalued operator on ``H`` is evaluated and certified.

Membership of a pair ``(u, f)`` in the operator graph is certified by
sampled directional inequalities (the shifted energy grows at least
linearly with slope ``<f + omega j u, j v>`` in every direction ``v``),
never by symbolic computation.  The supporting-plane and chain
envelopes rebuild the lifted functional from operator samples alone and
are reported as lower bounds with the gap as a diagnostic.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from . import solvers
from .energy import (
    AffineIndicatorTerm,
    EnergyTerm,
    ExtendedFunctional,
    NodewiseIntegral,
    PEdgeEnergy,
    sample_coercivity,
    sample_convexity,
    shifted_value,
)
from .hilbert import WeightedSpace

__all__ = [
    "JMap",
    "JEllipticPair",
    "kernel_basis",
    "graph_reduce",
    "lifted_value",
    "elliptic_extension",
    "subgradient_residual",
    "support_envelope_value",
    "chain_envelope_value",
    "LiftedResult",
]

_RANGE_TOL = 1e-8


class JMap:
    """Linear map from ``R^n`` to the data space, possibly with a domain.

    ``domain``, when given, is an ``(n, d)`` basis of the subspace on
    which the map is defined; maps without a domain act on all of
    ``R^n``.  Neither injectivity nor surjectivity is assumed.
    ``observed`` holds, for a restriction (each row selects one source
    coordinate with weight one), the selected coordinates; otherwise None.
    """

    def __init__(self, matrix, domain=None):
        self.matrix = np.atleast_2d(np.asarray(matrix, float))
        if domain is not None:
            domain = np.asarray(domain, float)
            if domain.ndim == 1:
                domain = domain[:, None]
            if domain.shape[0] != self.matrix.shape[1]:
                raise ValueError("domain basis rows must match the source dimension")
            if np.linalg.matrix_rank(domain) < domain.shape[1]:
                raise ValueError("domain basis vectors are not independent")
        self.domain = domain
        self.observed = _restriction_indices(self.matrix)
        self._kernel = None
        self._pinv = None

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def source_dim(self) -> int:
        return self.matrix.shape[1]

    def apply(self, u):
        return self.matrix @ np.asarray(u, float)

    def kernel_basis(self) -> np.ndarray:
        """Orthonormal basis of the null space (columns)."""
        if self._kernel is None:
            self._kernel = scipy.linalg.null_space(self.matrix)
        return self._kernel

    def rank(self) -> int:
        return self.source_dim - self.kernel_basis().shape[1]

    def particular_preimage(self, u):
        if self._pinv is None:
            self._pinv = np.linalg.pinv(self.matrix)
        return self._pinv @ np.asarray(u, float)


def kernel_basis(j: JMap) -> np.ndarray:
    """Orthonormal kernel basis; empty for injective maps."""
    return j.kernel_basis()


@dataclass
class JEllipticPair:
    """Energy, map into the data space, weights, and convexity shift."""

    E: ExtendedFunctional
    j: JMap
    space: WeightedSpace
    omega: float = 0.0

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")
        if self.j.source_dim != self.E.dim:
            raise ValueError("map source dimension does not match the energy")
        if self.j.target_dim != self.space.dim:
            raise ValueError("map target dimension does not match the data space")

    @functools.cached_property
    def indicator_prox(self):
        """Projection onto the energy's affine constraints, ``(v, step) ->
        x``, built once per pair; None without indicator terms."""
        inds = self.E.indicator_terms
        if not inds:
            return None
        A = np.vstack([t.A for t in inds])
        b = np.concatenate([t.b for t in inds])
        pinv = np.linalg.pinv(A)
        return lambda v, step: v - pinv @ (A @ v - b)

    @functools.cached_property
    def edge_system(self):
        """The energy's :class:`_EdgeSystem` when it is a sum of smooth
        edge powers and nodewise laws; None otherwise."""
        edge_terms = [t for t in self.E.terms if isinstance(t, PEdgeEnergy) and t.smooth]
        laws = [t for t in self.E.terms if isinstance(t, NodewiseIntegral)]
        if not edge_terms or len(edge_terms) + len(laws) != len(self.E.terms):
            return None
        return _EdgeSystem(edge_terms, laws, self.E.dim)

    def shifted(self, u_hat) -> float:
        return shifted_value(self.E, self.j.matrix, self.space, self.omega, u_hat)

    def validate(self, seed: int = 0, trials: int = 150, radius: float = 5.0, tol: float = 1e-8):
        """Sampled convexity of the shifted energy and coercivity of a
        slightly larger shift (the resolvent needs exactly that margin)."""
        center = self.E.finite_point()
        conv = sample_convexity(self.shifted, self.E.dim, trials=trials, seed=seed, center=center, radius=radius)
        if conv.max_violation > tol:
            raise ValueError(f"shifted energy is not sampled-convex: violation {conv.max_violation:g}")
        coer = sample_coercivity(
            self.E.value,
            omega=self.omega + 1e-3,
            jmat=self.j.matrix,
            space=self.space,
            levels=(self.E.value(center) + 10.0,),
            trials=24,
            seed=seed + 1,
            center=center,
        )
        if not coer.bounded:
            raise ValueError("shifted energy has unbounded sublevels (not elliptic)")
        return conv, coer


class _ComposedSmoothTerm(EnergyTerm):
    """Smooth part of a base energy pulled back through a linear map."""

    kind = "composed"
    smooth = True

    def __init__(self, base: ExtendedFunctional, T: np.ndarray):
        self.base = base
        self.T = T
        self.omega_term = base.omega_total

    def value(self, u):
        return self.base.smooth_value(self.T @ u)

    def grad(self, u):
        return self.T.T @ self.base.smooth_grad(self.T @ u)


def graph_reduce(E: ExtendedFunctional, j: JMap, space: WeightedSpace, omega: float = 0.0) -> JEllipticPair:
    """Rebuild a partially defined pair over the graph of the map.

    The new source space stacks domain coordinates (``d`` of them) with
    data coordinates (``m``); the graph constraint ``y = j(B w)`` enters
    as an affine indicator, the new map is the projection onto the data
    block, and operator graphs of the old and new pairs coincide.
    Energies with total-variation terms are not supported here.
    """
    n = j.source_dim
    m = j.target_dim
    B = j.domain if j.domain is not None else np.eye(n)
    d = B.shape[1]

    if any(not t.smooth and not isinstance(t, AffineIndicatorTerm) for t in E.terms):
        raise NotImplementedError("graph reduction of non-smooth energies beyond indicators")

    T = np.zeros((n, d + m))
    T[:, :d] = B

    terms = [_ComposedSmoothTerm(E, T)]
    for ind in E.indicator_terms:
        terms.append(AffineIndicatorTerm(ind.A @ T, ind.b, tol=ind.tol))
    graph_rows = np.hstack([-(j.matrix @ B), np.eye(m)])
    terms.append(AffineIndicatorTerm(graph_rows, np.zeros(m)))

    E_bar = ExtendedFunctional(terms=terms, dim=d + m)
    # properness: the stacked indicator system must be solvable
    try:
        E_bar.finite_point()
    except ValueError as exc:
        raise ValueError("reduced pair is not proper: empty effective domain") from exc

    j_bar = JMap(np.hstack([np.zeros((m, d)), np.eye(m)]))
    return JEllipticPair(E=E_bar, j=j_bar, space=space, omega=omega)


# ---------------------------------------------------------------------------
# fibers, lifted values and elliptic extensions


@dataclass
class LiftedResult:
    value: float
    minimizer: Optional[np.ndarray]
    residual: float = 0.0


def _fiber_slice(pair: JEllipticPair, u):
    """Particular point and orthonormal basis of the affine set where the
    map equals ``u`` and every indicator constraint holds; None when empty."""
    mats = [pair.j.matrix]
    rhs = [np.asarray(u, float)]
    for ind in pair.E.indicator_terms:
        mats.append(ind.A)
        rhs.append(ind.b)
    A = np.vstack(mats)
    r = np.concatenate(rhs)
    x0, *_ = np.linalg.lstsq(A, r, rcond=None)
    if not _fits(A @ x0, r):
        return None, None
    return x0, scipy.linalg.null_space(A)


def _fits(image, target) -> bool:
    gap = float(np.max(np.abs(image - target), initial=0.0))
    return gap <= _RANGE_TOL * (1.0 + float(np.max(np.abs(target), initial=0.0)))


def _fiber_coordinates(pair: JEllipticPair, u):
    """``(x0, Z)`` with fiber ``x0 + range(Z)``, ``(None, None)`` when empty:
    for a restriction map without indicator terms, ``Z`` selects the
    unobserved coordinates; other pairs go through :func:`_fiber_slice`."""
    observed = pair.j.observed
    if observed is None or pair.E.indicator_terms:
        return _fiber_slice(pair, u)
    x0 = np.zeros(pair.E.dim)
    x0[observed] = u
    if not _fits(x0[observed], u):  # a node observed twice with two values
        return None, None
    free = np.ones(pair.E.dim, dtype=bool)
    free[observed] = False
    return x0, scipy.sparse.identity(pair.E.dim, format="csc")[:, free]


def lifted_value(pair: JEllipticPair, u, tol: float = 1e-6, start=None) -> LiftedResult:
    """Infimum of the energy over the fiber above ``u``; +inf off the range.

    The fiber is parametrized by :func:`_fiber_coordinates` (the free
    coordinates of a restriction map, otherwise a least-squares particular
    point plus an orthonormal null-space basis), and the reduced problem
    is solved to optimality residual ``tol``: the gradient norm in fiber
    coordinates (a measured KKT residual for total variation).  The
    minimizer attains the value, so any two returned extensions agree in
    energy to twice the tolerance.  Restriction maps of edge powers plus
    nodewise laws are solved by sparse Newton (:func:`_edge_newton`),
    other fibers by :func:`solvers.minimize`; a fiber that misses ``tol``
    raises.
    """
    u = np.asarray(u, float)
    pair.space.check_dim(u)
    x0, Z = _fiber_coordinates(pair, u)
    if x0 is None:
        return LiftedResult(value=math.inf, minimizer=None)
    if Z.shape[1] == 0:
        return LiftedResult(value=pair.E.value(x0), minimizer=x0)

    observed = None if pair.E.indicator_terms else pair.j.observed
    tv = pair.E.tv_terms
    if tv:
        if pair.E.smooth_terms:
            raise NotImplementedError("mixed smooth + total-variation fibers")
        if observed is None:
            raise NotImplementedError("total-variation fibers need a restriction map")
        edges = np.vstack([t.edges for t in tv])
        weights = np.concatenate([t.weights for t in tv])
        res = solvers.constrained_tv_min(edges, weights, observed, u, pair.E.dim, tol=tol)
        return LiftedResult(value=pair.E.value(res.x), minimizer=res.x, residual=res.residual)

    newton = None if observed is None else _edge_newton(pair, observed, u, tol, start)
    if newton is not None:
        x, res = newton
        if not res.converged:
            raise RuntimeError(
                f"fiber Newton solve stalled: residual {res.residual:g} after {res.iterations} iterations"
            )
        return LiftedResult(value=pair.E.value(x), minimizer=x, residual=res.residual)

    w0 = np.zeros(Z.shape[1])
    if start is not None:
        w0 = Z.T @ (np.asarray(start, float) - x0)
    obj = solvers.Objective(
        smooth_value=lambda w: pair.E.smooth_value(x0 + Z @ w),
        smooth_grad=lambda w: Z.T @ pair.E.smooth_grad(x0 + Z @ w),
    )
    res = solvers.minimize(solvers.SolveSpec(objective=obj, start=w0, tol=tol, max_iter=200000))
    if not res.converged:
        raise RuntimeError(
            f"fiber minimization stalled: residual {res.residual:g} after {res.iterations} iterations"
        )
    x = x0 + Z @ res.x
    return LiftedResult(value=pair.E.value(x), minimizer=x, residual=res.residual)


class _EdgeSystem:
    """An energy of smooth edge powers plus nodewise laws, assembled once
    per pair: the signed incidence ``D``, edge weights ``c``, exponents
    ``p`` and laws, and for each set of free coordinates the incidence
    blocks and Gram operators of the primal and edge-dual Newton systems.
    """

    def __init__(self, edge_terms, laws, n):
        self.D = solvers.edge_incidence(np.vstack([t.edges for t in edge_terms]), n).tocsc()
        self.c = np.concatenate([t.weights for t in edge_terms])
        self.p = np.concatenate([np.full(t.weights.size, t.p) for t in edge_terms])
        self.laws = laws
        self._blocks = {}

    def block(self, is_free):
        """``(D_free, gram, dual)``: the free nodes' incidence columns, the
        primal Gram operator, and for ``p < 2`` the edges touching a free
        node with their block, its transpose and the dual Gram operator."""
        key = is_free.tobytes()
        if key not in self._blocks:
            D_free = self.D[:, is_free]
            gram = _weighted_gram(scipy.sparse.hstack([D_free.T, scipy.sparse.identity(D_free.shape[1])]))
            dual = None
            if np.all(self.p < 2.0):
                keep = np.asarray(abs(D_free).sum(axis=1)).ravel() > 0
                D_keep = D_free[keep]
                gram_dual = _weighted_gram(scipy.sparse.hstack([scipy.sparse.identity(D_keep.shape[0]), D_keep]))
                dual = (keep, D_keep, D_keep.T, gram_dual)
            self._blocks[key] = (D_free, gram, dual)
        return self._blocks[key]


def _edge_newton(pair: JEllipticPair, fixed, values, tol: float, start, anchor=None):
    """Banded damped Newton (:func:`solvers.newton`) for edge powers plus nodewise laws.

    Minimizes ``E`` over the coordinates outside ``fixed`` with
    ``x[fixed] = values``, plus ``1/2 sum_i a_i (x_i - g_i)^2`` when
    ``anchor = (a, g)`` (a backward step is the case with nothing fixed).
    Applies when ``E`` is a sum of smooth edge powers and nodewise laws
    (``pair.edge_system``); returns None otherwise, and
    ``(x, SolveResult)`` when it applies.

    With every exponent ``p >= 2`` the primal is solved with the exact
    Hessian ``D^T diag(c) D`` plus the nodewise curvature, restricted to
    the free block.  With every ``1 < p < 2`` the primal curvature blows
    up on vanishing differences, so the conjugate edge dual is solved
    instead (exponent ``q = p/(p-1) > 2``); it needs a convex law or an
    anchor on every free node, and edges between two fixed nodes drop
    out.  Without ``start``, Newton starts from one step of the ``p = 2``
    model.  The certificate is the primal gradient norm on the free
    coordinates.
    """
    system, E = pair.edge_system, pair.E
    if system is None:
        return None
    D, c, p, laws = system.D, system.c, system.p, system.laws
    a, g = (np.zeros(E.dim), np.zeros(E.dim)) if anchor is None else anchor
    is_free = np.ones(E.dim, dtype=bool)
    is_free[fixed] = False
    free = np.nonzero(is_free)[0]
    D_free, gram, dual = system.block(is_free)

    base = np.zeros(E.dim) if start is None else np.asarray(start, float).copy()
    base[fixed] = values

    def at(y):
        x = base.copy()
        x[free] = y
        return x

    def law_grad(x):
        return (sum((t.grad(x) for t in laws), a * (x - g)))[free]

    def law_curvature(x):
        return (sum((t.diag_curvature(x) for t in laws), a.copy()))[free]

    def value(y):
        x = at(y)
        return E.smooth_value(x) + 0.5 * float(np.sum(a * (x - g) ** 2))

    def grad(y):
        x = at(y)
        return (E.smooth_grad(x) + a * (x - g))[free]

    if start is None:
        # one Newton step of the p = 2 model: a harmonic-type extension,
        # away from the degenerate curvature of a flat start
        x = at(np.zeros(free.size))
        with contextlib.suppress(np.linalg.LinAlgError):
            y = gram(np.concatenate([c, law_curvature(x)])).solve(-(D_free.T @ (c * (D @ x)) + law_grad(x)), 0.0)
            if np.all(np.isfinite(y)):
                base[free] = y

    if np.all(p >= 2.0):

        def hess(y):
            x = at(y)
            return gram(np.concatenate([c * (p - 1.0) * np.abs(D @ x) ** (p - 2.0), law_curvature(x)]))

        res = solvers.newton(value, grad, hess, base[free], tol)
        return at(res.x), res

    covered = a > 0
    for t in laws:
        if t.primitive.omega == 0.0:
            covered[t.nodes] = True
    if dual is None or not covered[free].all():
        return None

    keep, D_free, D_free_T, dual_gram = dual
    b = D[keep] @ at(np.zeros(free.size))  # contribution of the fixed nodes
    c, q = c[keep], p[keep] / (p[keep] - 1.0)
    cq = c ** (1.0 - q)
    last = {"z": None, "y": base[free]}

    def primal_of(z):
        # invert the strictly increasing nodewise derivative map; Newton asks
        # again at the same z, so the last answer is kept (and warm-starts)
        if last["z"] is not None and np.array_equal(z, last["z"]):
            return last["v"], last["y"]
        v = -(D_free_T @ z)
        y = last["y"].copy()
        for _ in range(60):
            x = at(y)
            r = law_grad(x) - v
            if float(np.max(np.abs(r))) <= 1e-13 * (1.0 + float(np.max(np.abs(v)))):
                break
            y = y - r / np.maximum(law_curvature(x), 1e-14)
        last.update(z=z.copy(), v=v, y=y)
        return v, y

    def dual_value(z):
        v, y = primal_of(z)
        x = at(y)
        laws_value = sum(t.value(x) for t in laws) + 0.5 * float(np.sum(a * (x - g) ** 2))
        return float(np.sum(cq * np.abs(z) ** q / q) - z @ b + v @ y) - laws_value

    def dual_grad(z):
        _, y = primal_of(z)
        return cq * np.abs(z) ** (q - 1.0) * np.sign(z) - b - D_free @ y

    def dual_hess(z):
        _, y = primal_of(z)
        inv_curv = 1.0 / np.maximum(law_curvature(at(y)), 1e-14)
        return dual_gram(np.concatenate([cq * (q - 1.0) * np.abs(z) ** (q - 2.0), inv_curv]))

    d0 = D_free @ base[free] + b
    z0 = c * np.abs(d0) ** (p[keep] - 1.0) * np.sign(d0)
    res = solvers.newton(
        dual_value, dual_grad, dual_hess, z0, tol, certificate=lambda z: float(np.linalg.norm(grad(primal_of(z)[1])))
    )
    y = primal_of(res.x)[1]
    if not res.converged and anchor is None:
        # a fibre has no fallback: the dual's answer resolves small
        # differences only to the accuracy of primal_of, and primal Newton
        # from there, where the curvature is finite unless a difference
        # vanishes, often certifies what it leaves
        def primal_hess(y):
            d = np.maximum(np.abs(D @ at(y)), 1e-16)
            return gram(np.concatenate([system.c * (system.p - 1.0) * d ** (system.p - 2.0), law_curvature(at(y))]))

        polish = solvers.newton(value, grad, primal_hess, y, tol)
        if polish.residual < res.residual:
            y = polish.x
            res = solvers.SolveResult(y, polish.residual, res.iterations + polish.iterations, polish.converged, polish.value)
    return at(y), res


def _weighted_gram(B):
    """``w -> B diag(w) B^T`` for a fixed sparse ``B``, as a :class:`_Banded`.

    A reverse Cuthill-McKee ordering of the product, its bandwidth and the
    band slot of every product of two entries in one column of ``B`` are
    found once; a call sums the weighted products into their slots.
    """
    B = scipy.sparse.csc_matrix(B)
    B.sum_duplicates()
    B.eliminate_zeros()
    n = B.shape[0]
    pattern = (abs(B) @ abs(B).T).tocsr()
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(pattern, symmetric_mode=True) if n else np.arange(0)
    rank = np.argsort(perm)  # position of each row in the ordering
    col = np.repeat(np.arange(B.shape[1]), np.diff(B.indptr))  # column of each entry
    count = np.diff(B.indptr)[col]
    left = np.repeat(np.arange(B.nnz), count)
    right = np.arange(left.size) - np.repeat(np.cumsum(count) - count, count) + B.indptr[col[left]]
    i, j = rank[B.indices[left]], rank[B.indices[right]]
    upper = i <= j
    bw = int(np.max(j - i, initial=0))
    slot = ((bw + i - j) * n + j)[upper]
    coef, src = (B.data[left] * B.data[right])[upper], col[left][upper]
    size = (bw + 1) * n
    return lambda w: _Banded(np.bincount(slot, weights=coef * w[src], minlength=size).reshape(bw + 1, n), perm, rank)


class _Banded:
    """Symmetric ``A`` as the upper band of ``A[perm][:, perm]`` in LAPACK's
    layout (``ab[bw + i - j, j]`` for ``i <= j``); ``rank`` inverts ``perm``."""

    def __init__(self, ab, perm, rank):
        self.ab, self.perm, self.rank = ab, perm, rank

    def diagonal(self):
        return self.ab[-1][self.rank]

    def solve(self, rhs, shift):
        """``(A + shift I)^{-1} rhs`` by banded Cholesky (``LinAlgError`` unless definite)."""
        ab = self.ab.copy()
        ab[-1] += shift
        y = scipy.linalg.solveh_banded(ab, rhs[self.perm], overwrite_ab=True, overwrite_b=True, check_finite=False)
        return y[self.rank]


def _restriction_indices(mat: np.ndarray):
    """If each row selects a single node with weight one, return the nodes."""
    if mat.shape[1] == 0 or np.any(np.count_nonzero(mat, axis=1) != 1):
        return None
    idx = np.argmax(mat != 0, axis=1)
    return idx if np.all(np.abs(mat[np.arange(mat.shape[0]), idx] - 1.0) <= 1e-12) else None


def elliptic_extension(pair: JEllipticPair, u, tol: float = 1e-8, start=None) -> np.ndarray:
    """A fiber minimizer above ``u``; raises when the fiber is empty."""
    res = lifted_value(pair, u, tol=tol, start=start)
    if res.minimizer is None:
        raise ValueError("empty fiber: the point is outside the image of the effective domain")
    return res.minimizer


def subgradient_residual(
    pair: JEllipticPair,
    u,
    f,
    directions: int = 200,
    seed: int = 0,
    scales=(1.0, 0.1, 0.01),
    extension_tol: float = 1e-9,
    include_gradient_check: bool = False,
) -> float:
    """Largest sampled violation of the operator-membership inequality.

    Builds an elliptic extension of ``u`` and probes random, kernel and
    coordinate directions at several magnitudes; a value below the
    caller's tolerance certifies the pair up to sampling.  With
    ``include_gradient_check`` the directional derivative of a smooth
    energy is additionally compared against the pairing by central
    finite differences (noise floor around 1e-8; use looser tolerances).
    """
    u = np.asarray(u, float)
    f = np.asarray(f, float)
    u_hat = elliptic_extension(pair, u, tol=extension_tol)
    rng = np.random.default_rng(seed)
    n = pair.E.dim

    dirs = [rng.normal(size=n) for _ in range(directions)]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    Z = pair.j.kernel_basis()
    dirs.extend(Z.T)
    dirs.extend(np.eye(n))

    ju = pair.j.apply(u_hat)
    slope = f + pair.omega * ju
    base = pair.shifted(u_hat)
    worst = -math.inf
    for d in dirs:
        jd = pair.j.apply(d)
        pairing = pair.space.inner(slope, jd)
        for s in scales:
            growth = pair.shifted(u_hat + s * d) - base
            worst = max(worst, s * pairing - growth)

    if include_gradient_check and not pair.E.nonsmooth_terms:
        t = 1e-6 * (1.0 + float(np.linalg.norm(u_hat)))
        for d in dirs[: min(16, len(dirs))]:
            fd = (pair.E.value(u_hat + t * d) - pair.E.value(u_hat - t * d)) / (2.0 * t)
            worst = max(worst, abs(fd - pair.space.inner(f, pair.j.apply(d))))
    return float(worst)


# ---------------------------------------------------------------------------
# envelopes rebuilt from operator samples


def support_envelope_value(
    pair: JEllipticPair,
    u,
    support_pairs: Sequence,
    lifted_tol: float = 1e-8,
    verify_tol: Optional[float] = None,
) -> float:
    """Supremum of supporting affine minorants through operator samples.

    Each sample ``(v, f)`` contributes ``<f, u - v> + lifted(v)``.  The
    result is a lower bound for the lifted value at ``u``; it matches it
    (up to tolerance) when the sample set contains a pair anchored at
    ``u`` itself.
    """
    if not support_pairs:
        raise ValueError("support_envelope_value needs at least one operator sample")
    u = np.asarray(u, float)
    best = -math.inf
    for v, f in support_pairs:
        if verify_tol is not None:
            gap = subgradient_residual(pair, v, f, directions=50, seed=0)
            if gap > verify_tol:
                raise ValueError(f"support pair fails membership check: violation {gap:g}")
        lv = lifted_value(pair, v, tol=lifted_tol).value
        best = max(best, pair.space.inner(np.asarray(f, float), u - np.asarray(v, float)) + lv)
    return float(best)


def chain_envelope_value(
    pair: JEllipticPair,
    u,
    base,
    chains: Sequence[Sequence],
    lifted_tol: float = 1e-8,
) -> float:
    """Supremum of telescoping chain sums anchored at a base sample.

    A chain ``[(v_1, f_1), ..., (v_k, f_k)]`` contributes

        lifted(v_0) + <f_0, v_1 - v_0> + ... + <f_k, u - v_k>

    with ``(v_0, f_0)`` the base pair; the empty chain contributes the
    single supporting plane through the base.
    """
    if chains is None or len(chains) == 0:
        raise ValueError("chain_envelope_value needs at least one chain (possibly empty)")
    u = np.asarray(u, float)
    v0, f0 = base
    base_value = lifted_value(pair, v0, tol=lifted_tol).value
    best = -math.inf
    for chain in chains:
        seq = [(np.asarray(v0, float), np.asarray(f0, float))] + [
            (np.asarray(v, float), np.asarray(f, float)) for v, f in chain
        ]
        total = base_value
        for i, (v_i, f_i) in enumerate(seq):
            v_next = seq[i + 1][0] if i + 1 < len(seq) else u
            total += pair.space.inner(f_i, v_next - v_i)
        best = max(best, total)
    return float(best)
