"""Energies paired with a linear map into a weighted data space.

The central object is the pair (energy on ``R^n``, linear map ``j`` into
a weighted space ``H``) with a declared convexity shift ``omega``.  The
energy lifts to a functional on ``H`` by minimizing over the fibers of
``j``; fiber minimizers are the elliptic extensions through which the
multivalued operator on ``H`` is evaluated and certified.  Fibers and
backward steps (the same minimization plus a data term) are solved on
affine slices by one entry, :func:`_solve_slice`, which picks the solver
and raises :class:`SliceError` on a missed certificate.  It takes a batch
of S samples of one pair (:func:`lifted_values`, batched orbits), solved
by one banded Newton, and each sample's result is bitwise the one it
gets alone.

Membership of a pair ``(u, f)`` in the operator graph is certified by
sampled directional inequalities (the shifted energy grows at least
linearly with slope ``<f + omega j u, j v>`` in every direction ``v``),
never by symbolic computation.  The supporting-plane and chain
envelopes rebuild the lifted functional from operator samples alone and
are reported as lower bounds with the gap as a diagnostic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

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
    "graph_reduce",
    "fibers",
    "lifted_value",
    "lifted_values",
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
        self._scatter = None if self.observed is None else solvers.Scatter(self.observed, self.source_dim)
        # a restriction that observes each node once: the data term is nodewise
        self.distinct = self.observed is not None and np.unique(self.observed).size == self.observed.size
        self._kernel = None

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def source_dim(self) -> int:
        return self.matrix.shape[1]

    def apply(self, u):
        """``J u`` of each sample row of ``u``."""
        u = np.asarray(u, float)
        return u.take(self.observed, -1) if self.observed is not None else _rowwise(self.matrix, u)

    def adjoint(self, r):
        """``J^T r`` of each sample row of ``r``."""
        return self._scatter(r) if self.observed is not None else _rowwise(self.matrix.T, r)

    def kernel_basis(self) -> np.ndarray:
        """Orthonormal basis of the null space (columns); empty for an injective map."""
        if self._kernel is None:
            self._kernel = scipy.linalg.null_space(self.matrix)
        return self._kernel


def _rowwise(M, u):
    """``M u`` of each sample row of ``u``, one matrix-vector product per row."""
    return np.matmul(M, u[..., None])[..., 0]


@dataclass
class JEllipticPair:
    """Energy, map into the data space, weights, and convexity shift."""

    E: ExtendedFunctional
    j: JMap
    space: WeightedSpace
    omega: float = 0.0

    def __post_init__(self):
        if not 0 <= self.omega < math.inf:
            raise ValueError(f"omega must be nonnegative and finite, got {self.omega}")
        if self.j.source_dim != self.E.dim:
            raise ValueError("map source dimension does not match the energy")
        if self.j.target_dim != self.space.dim:
            raise ValueError("map target dimension does not match the data space")

    @functools.cached_property
    def edge_system(self):
        """The :class:`_EdgeSystem` of the energy's smooth part and the map."""
        return _EdgeSystem(self.E, self.j)

    @functools.cached_property
    def step_slice(self):
        """``(x0, Z)``, computed once: the indicator constraints' affine set
        ``x0 + range(Z)`` (``Z`` an orthonormal null basis, or the index array
        of all coordinates without indicators); ``ValueError`` when empty."""
        inds = self.E.indicator_terms
        if not inds:
            return np.zeros(self.E.dim), np.arange(self.E.dim)
        A = np.vstack([t.A for t in inds])
        b = np.concatenate([t.b for t in inds])
        x0 = np.linalg.pinv(A) @ b
        if not _fits(A @ x0, b):
            raise ValueError("effective domain is empty: the indicator constraints have no common point")
        return x0, scipy.linalg.null_space(A)

    @functools.cached_property
    def _fiber_frame(self):
        """``(A, A^+, N, b)`` of :func:`_fiber_slice`, computed once."""
        inds = self.E.indicator_terms
        A = np.vstack([self.j.matrix] + [t.A for t in inds])
        b = np.concatenate([np.zeros(0)] + [t.b for t in inds])
        return A, np.linalg.pinv(A), scipy.linalg.null_space(A) if inds else self.j.kernel_basis(), b

    def shifted(self, u_hat) -> float:
        return shifted_value(self.E, self.j.matrix, self.space, self.omega, u_hat)

    def validate(self, seed: int = 0):
        """Sampled convexity of the shifted energy and coercivity of a
        slightly larger shift (the resolvent needs exactly that margin)."""
        center = self.E.finite_point()
        conv = sample_convexity(self.shifted, self.E.dim, trials=150, seed=seed, center=center, radius=5.0)
        if conv.max_violation > 1e-8:
            raise ValueError(f"shifted energy is not sampled-convex: violation {conv.max_violation:g}")
        coer = sample_coercivity(
            lambda x: shifted_value(self.E, self.j.matrix, self.space, self.omega + 1e-3, x),
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
        return self.base.smooth_value(_rowwise(self.T, u))

    def grad(self, u):
        return _rowwise(self.T.T, self.base.smooth_grad(_rowwise(self.T, u)))

    def hessian_factor(self, n):
        return scipy.sparse.csc_matrix((self.base.hessian_factor().T @ self.T).T)

    def hessian_weights(self, u):
        return self.base.hessian_weights(_rowwise(self.T, u))


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


def fibers(pair: JEllipticPair, U):
    """``(X0, Z, empty)``: the fiber above sample row ``s`` of ``U`` is
    ``X0[s] + range(Z)``, or nothing where ``empty[s]``.  For a restriction
    map without indicator terms ``Z`` is the index array of the unobserved
    coordinates (a row that gives a node observed twice two values is
    empty); other pairs go through :func:`_fiber_slice`."""
    U = np.asarray(U, float)
    observed = pair.j.observed
    if observed is None or pair.E.indicator_terms:
        return _fiber_slice(pair, U)
    X0 = np.zeros(U.shape[:-1] + (pair.E.dim,))
    X0[..., observed] = U
    free = np.flatnonzero(np.bincount(observed, minlength=pair.E.dim) == 0)
    return X0, free, ~_fits(X0[..., observed], U)


def _fiber_slice(pair: JEllipticPair, U):
    """:func:`fibers` of a general map or with indicator terms: the points
    ``A^+ (u, b)`` of ``{A x = (u, b)}`` (the map over the indicator rows),
    row by row, and an orthonormal null basis of ``A``, computed once."""
    A, pinv, Z, b = pair._fiber_frame
    R = np.concatenate([U, np.broadcast_to(b, U.shape[:-1] + b.shape)], axis=-1)
    X0 = _rowwise(pinv, R)
    return X0, Z, ~_fits(_rowwise(A, X0), R)


def _fits(image, target):
    gap = np.max(np.abs(image - target), axis=-1, initial=0.0)
    return gap <= _RANGE_TOL * (1.0 + np.max(np.abs(target), axis=-1, initial=0.0))


def lifted_value(pair: JEllipticPair, u, tol: float = 1e-6, start=None) -> LiftedResult:
    """Infimum of the energy over the fiber above ``u``; +inf off the range:
    :func:`lifted_values` of one sample."""
    return lifted_values(pair, np.asarray(u, float)[None], tol, [start])[0]


def lifted_values(pair: JEllipticPair, U, tol: float = 1e-6, starts=None) -> list:
    """The :class:`LiftedResult` above each sample row of ``U``, in order.

    The fibers are placed by :func:`fibers`; the nonempty ones are solved
    as one batch by :func:`_solve_slice` to optimality residual ``tol``,
    each from its entry of ``starts`` (None: the default start), and the
    :class:`SliceError` of a fiber that misses ``tol`` names its row of
    ``U``.  Every value is bitwise the one its sample gets alone.  Two
    returned extensions agree in energy to twice the tolerance.
    """
    U = np.asarray(U, float)
    pair.space.check_dim(*U)
    X, Z, empty = fibers(pair, U)
    live = np.flatnonzero(~empty)
    out = [LiftedResult(value=math.inf, minimizer=None) for _ in U]
    X, residuals = X[live], np.zeros(live.size)
    if live.size and Z.shape[-1]:
        try:
            res = _solve_slice(pair, X, Z, tol, None if starts is None else [starts[i] for i in live])
        except SliceError as exc:
            exc.sample = int(live[exc.sample])
            raise
        X, residuals = res.x, res.residual
    for i, x, r in zip(live, X, residuals):
        out[i] = LiftedResult(value=pair.E.value(x), minimizer=x, residual=float(r))
    return out


class SliceError(RuntimeError):
    """A slice solve whose certificate missed ``tol``: ``residual`` after
    ``iterations``, at row ``sample`` of its batch."""

    def __init__(self, what: str, sample: int, residual: float, iterations: int):
        super().__init__(what)
        self.sample, self.residual, self.iterations = sample, residual, iterations

    def __str__(self):
        what, r, k = self.args[0], self.residual, self.iterations
        return f"{what} solve stalled: residual {r:g} after {k} iterations (sample {self.sample})"


def _solve_slice(pair: JEllipticPair, x0, Z, tol: float, starts=None, data=None) -> solvers.SolveResult:
    """Minimize the energy over the slices ``x0[s] + Z y``, plus ``1/(2 lam) |j x - g[s]|_H^2``
    for ``data = (lam, g)``: fibers without data, backward steps with it, one
    per sample row ``s`` of ``x0`` (and of ``g``; ``lam`` one step or one per
    sample), each from its entry of ``starts`` (None: the default start).

    Smooth energies take :func:`_slice_newton` on the whole batch (gradient
    norm in slice coordinates).  Total variation on a restriction map is
    solved exactly, one batched call per batch: the fibers by
    :func:`solvers.constrained_tv_min` (measured KKT residuals), the steps by
    :func:`solvers.partial_anchor_tv` (the same) or, with every node
    observed, :func:`solvers.tv_prox` to the duality gap ``tol^2 min(m)/4``
    (at most ``tol/sqrt(2)`` from the exact step).  Returns the
    :class:`solvers.SolveResult` in source coordinates, per sample its
    ``x``, residual and ``value`` (the slice objective at ``x``).  The one
    place where a missed certificate becomes an error, by one rule for
    every solver: the first sample whose residual is not within the
    tolerance its solver was given raises :class:`SliceError` with its
    row, residual and the batch's iterations.
    """
    what, S = "fiber" if data is None else "backward step", len(x0)
    starts = [None] * S if starts is None else starts
    tv = pair.E.tv_terms
    if not tv:
        res = _slice_newton(pair, x0, Z, tol, starts, data)
    else:
        observed, n = pair.j.observed, pair.E.dim
        if pair.E.smooth_terms or pair.E.indicator_terms:
            raise NotImplementedError(f"total-variation {what} with extra terms")
        if observed is None:
            raise NotImplementedError(f"total-variation {what} needs a restriction map")
        edges = np.vstack([t.edges for t in tv])
        weights = np.concatenate([t.weights for t in tv])
        if data is not None and not pair.j.distinct:
            raise NotImplementedError("total-variation backward step on a map that observes a node twice")
        if data is None:
            res = solvers.constrained_tv_min(edges, weights, observed, x0[:, observed], n, tol=tol)
        else:
            lam, g, m = np.broadcast_to(data[0], S), data[1], pair.space.weights
            if observed.size < n:
                res = solvers.partial_anchor_tv(edges, weights, observed, g, m, lam, n, tol=tol, x0=starts)
            else:
                anchor, masses = np.zeros((S, n)), np.zeros(n)
                anchor[:, observed], masses[observed] = g, m
                tol = 0.25 * tol * tol * float(np.min(m))  # the duality gap tv_prox certifies
                res = solvers.tv_prox(edges, weights, anchor, lam, tol=tol, node_weights=masses)
                res = replace(res, value=res.value / lam)  # tv_prox reports lam times the step objective
    missed = ~(res.residual <= tol)
    if missed.any():
        s = int(np.flatnonzero(missed)[0])
        raise SliceError(what, s, float(res.residual[s]), res.iterations)
    return res


class _EdgeSystem:
    """The Hessian of the smooth energy plus ``1/(2 lam) |j x - g|_H^2`` in the
    Gram form ``B diag(w) B^T``, with ``B`` as COO triplets, once per pair.  The
    columns of ``B``: the edges of the edge powers (:class:`solvers.EdgeOperator`
    ``D``, weights ``c``, exponents ``p``), the identity, whose weight sums every
    single-entry factor column (nodewise laws, diagonal quadratics, the data of
    a restriction map) per node, and the other factor columns (quadratics,
    composed terms, ``J^T`` of a general map).
    """

    def __init__(self, E, j):
        n = self.n = E.dim
        self.edge_terms = [t for t in E.smooth_terms if isinstance(t, PEdgeEnergy)]
        self.others = [t for t in E.smooth_terms if not isinstance(t, PEdgeEnergy)]
        self.laws = [t for t in self.others if isinstance(t, NodewiseIntegral)]
        self.convex_nodes = np.zeros(n, dtype=bool)  # under a convex nodewise law
        for t in self.laws:
            self.convex_nodes[t.nodes] |= t.primitive.omega == 0.0
        self.D = solvers.EdgeOperator(np.vstack([np.zeros((0, 2), int)] + [t.edges for t in self.edge_terms]), n)
        self.c = np.concatenate([np.zeros(0)] + [t.weights for t in self.edge_terms])
        self.p = np.concatenate([np.zeros(0)] + [np.full(t.weights.size, t.p) for t in self.edge_terms])
        # the lagged-diffusivity weight f'(d)/d of an edge power below two over its curvature f''
        self.majorant_scale = np.where(self.p < 2.0, 1.0 / (self.p - 1.0), 1.0)
        k = np.arange(j.target_dim)  # J^T, read off the observed nodes of a restriction map
        J = j.matrix.T if j.observed is None else (j.matrix[k, j.observed], (j.observed, k))
        factors = [scipy.sparse.coo_matrix(t.hessian_factor(n)) for t in self.others]
        factors.append(scipy.sparse.coo_matrix(J, (n, k.size)))
        offset = np.cumsum([0] + [f.shape[1] for f in factors])
        row, col, val = map(np.concatenate, zip(*[(f.row, f.col + o, f.data) for f, o in zip(factors, offset)]))
        live = val != 0
        row, col, val = row[live], col[live], val[live]
        count = np.bincount(col, minlength=offset[-1])
        single = count[col] == 1  # summed per node into the nodewise curvature
        self.fold = (solvers.Scatter(row[single], n), val[single] ** 2, col[single])
        self.gen_cols = np.flatnonzero(count > 1)
        edge, node, sign = self.D.entries()
        m, general = self.D.head.size, np.searchsorted(self.gen_cols, col[~single])
        self.B = (np.r_[node, np.arange(n), row[~single]], np.r_[edge, m + np.arange(n), m + n + general],
                  np.r_[sign, np.ones(n), val[~single]])
        # the conjugate edge dual needs every p < 2, and only nodewise laws and data besides
        laws_only = len(self.laws) == len(self.others) and not self.gen_cols.size
        self.has_dual = laws_only and self.p.size > 0 and bool(np.all(self.p < 2.0))
        self._blocks = {}

    def nodal(self, w):  # the nodewise curvature from the weights of the non-edge columns
        scatter, squares, cols = self.fold
        return scatter(squares * w.take(cols, -1))

    def weights(self, x, dw):
        """Weights of the columns of ``B`` at each sample row of ``x``, ``dw`` (a row each) those of the data."""
        w = np.concatenate([t.hessian_weights(x) for t in self.others] + [dw], axis=-1)
        edge = [t.hessian_weights(x) for t in self.edge_terms]
        return np.concatenate([np.zeros(x.shape[:-1] + (0,))] + edge + [self.nodal(w), w.take(self.gen_cols, -1)], -1)

    def block(self, Z):
        """``(gram, dual)``, built once per slice ``Z`` (free coordinates as a mask or
        index array, or an orthonormal basis): the Gram operator of ``Z^T B`` and,
        for free coordinates with the edge dual, the edges touching a free node,
        their :class:`solvers.EdgeOperator` ``D_keep`` on the free coordinates
        (fixed endpoints grounded) and the Gram operator of ``[I, D_keep]``."""
        key = (Z.shape, Z.dtype.str, Z.tobytes())
        if key not in self._blocks:
            (row, col, val), dual = self.B, None
            if Z.ndim == 2:  # (Z^T B)^T, dense
                M = np.zeros((col.max() + 1, Z.shape[1]))
                np.add.at(M, col, val[:, None] * Z[row])
                col, row = np.nonzero(M)
                val, k = M[col, row], Z.shape[1]
            else:
                free = np.arange(self.n)[Z]
                k, pos = free.size, np.full(self.n + 1, -1)  # the position of each free node, -1 elsewhere
                pos[free] = np.arange(k)  # pos[n] = -1: the ground stays grounded
                row = pos[row]  # rows of fixed nodes drop out
                if self.has_dual:
                    ends = pos[np.column_stack([self.D.head, self.D.tail])]
                    keep = np.any(ends >= 0, axis=1)
                    D_keep = solvers.EdgeOperator(ends[keep], k)
                    edge, node, sign = D_keep.entries()
                    kk = D_keep.head.size  # rows: the kept edges; columns: I, then D_keep
                    rows, cols = np.r_[np.arange(kk), edge], np.r_[np.arange(kk), kk + node]
                    dual = (keep, D_keep, solvers._weighted_gram(rows, cols, np.r_[np.ones(kk), sign], kk))
            self._blocks[key] = (solvers._weighted_gram(row, col, val, k), dual)
        return self._blocks[key]


def _slice_newton(pair: JEllipticPair, x0, Z, tol: float, starts, data=None):
    """Banded Newton (:func:`solvers.newton`) on the slices ``x0[s] + Z y``, one
    sample per row of ``x0``, as one batch.

    Minimizes the smooth energy, plus ``1/(2 lam) |j x - g[s]|_H^2`` for
    ``data = (lam, g)`` (backward steps), over ``y``; ``Z`` is the index
    array of the free coordinates or an orthonormal basis, shared by the
    batch.  Values and gradients go through ``E.smooth_value``/``E.smooth_grad``
    row by row, the Hessians are the Gram form of ``pair.edge_system``, one
    band per sample.  With every ``1 < p < 2`` the primal curvature blows up
    on vanishing differences, so on free coordinates with only nodewise
    laws besides, and a convex law or data on every free node, the conjugate
    edge dual (``q = p/(p-1)``) is solved instead; its primal point
    ``primal_of`` is nodewise.  A sample whose entry of ``starts`` is None
    starts from one Newton step of the ``p = 2`` model.  A sample that
    stalls above ``tol`` continues alone in slice coordinates from its
    primal point with :func:`solvers._try_snap`: Newton on the
    lagged-diffusivity majorant of the Hessian, then on the Hessian.
    Certified by the gradient norm in slice coordinates; returns the
    :class:`solvers.SolveResult` with ``x`` in source coordinates and the
    slice objective at ``x`` as ``value`` (the dual path's is recomputed).
    """
    system, E, j = pair.edge_system, pair.E, pair.j
    D, c, p = system.D, system.c, system.p
    gram, dual = system.block(Z)
    every = np.arange(len(x0))
    if data is None:
        data_value, data_grad = (lambda x, rows: 0.0), (lambda x, rows: np.zeros_like(x))
        dw = np.zeros((len(x0), j.target_dim))
    else:
        lam, g = np.empty((len(x0), 1)), data[1]
        lam[:, 0] = data[0]  # a step per sample
        w, dw = pair.space.weights, pair.space.weights / lam
        apply, adjoint = j.apply, j.adjoint
        if j.distinct:
            w, g = j.adjoint(w), j.adjoint(g)  # nodewise, in the same arithmetic at observed nodes
            apply = adjoint = np.asarray

        def data_value(x, rows):
            r = apply(x) - g[rows]
            return 0.5 / lam[rows, 0] * np.add.reduce(w * r * r, -1)

        def data_grad(x, rows):
            return adjoint(w * (apply(x) - g[rows])) / lam[rows]

    full = Z.ndim == 1 and Z.size == x0.shape[-1]  # every coordinate free: the points are their own

    def at(y, rows):  # ``rows`` indexes the batch; an integer takes one sample as 1-D arrays
        if full or Z.ndim == 2:
            return y if full else x0[rows] + _rowwise(Z, y)
        x = x0.take(rows, 0)
        x[..., Z] = y
        return x

    def restrict(v):
        if full or Z.ndim == 1:
            return v if full else v.take(Z, -1)
        return np.matmul(v[..., None, :], Z)[..., 0, :]

    def law_grad(x, rows):  # the gradient of every term but the edge powers
        return restrict(sum((t.grad(x) for t in system.others), data_grad(x, rows)))

    def batch(fn):
        # fn of the rows of a batch; a batch of one runs on 1-D arrays, on
        # which numpy costs less per call, in the same arithmetic
        def call(y, rows=every):
            if len(rows) > 1:
                return fn(y, rows)
            out = fn(y[0], rows[0])
            return out if isinstance(out, solvers._Banded) else out[None]

        return call

    def slice_value(y, rows):
        x = at(y, rows)
        return E.smooth_value(x) + data_value(x, rows)

    def slice_grad(y, rows):
        x = at(y, rows)
        return restrict(E.smooth_grad(x) + data_grad(x, rows))

    def slice_hess(y, rows, scale=None):  # the majorant's with its ``scale`` of the edge weights
        weights = system.weights(at(y, rows), dw[rows])
        if scale is not None:
            weights[..., : scale.size] *= scale
        return gram(weights)

    value, grad, hess = batch(slice_value), batch(slice_grad), batch(slice_hess)
    majorant = batch(functools.partial(slice_hess, scale=system.majorant_scale))

    def rescued(y, res):
        # the results at the points y, each stalled sample continued alone by solvers._try_snap
        y, r, f, used = y.copy(), np.zeros(len(y)) + res.residual, np.zeros(len(y)) + res.value, 0
        for s in np.flatnonzero(~(r <= tol)):
            one = [lambda v, rows=None, fn=fn: fn(v, np.array([s])) for fn in (value, grad, hess, majorant)]
            ys, r[s], k = solvers._try_snap(solvers.Majorized(*one, tol), y[s : s + 1], float(r[s]))
            y[s], f[s], used = ys[0], one[0](ys)[0], used + k
        return solvers.SolveResult(at(y, every), r, res.iterations + used, bool(np.all(r <= tol)), f)

    y0 = np.zeros((len(x0), Z.shape[-1]))
    cold = np.array([start is None for start in starts])
    if not cold.any():
        y0 = restrict(np.asarray(starts, float) - x0)
    elif not cold.all():
        warm = np.flatnonzero(~cold)
        y0[warm] = restrict(np.array([starts[s] for s in warm], float) - x0[warm])
    if cold.any():
        # one Newton step of the p = 2 model: a harmonic-type extension,
        # away from the degenerate curvature of a flat start
        rows = np.flatnonzero(cold)
        x = at(y0[rows], rows)
        model = system.weights(x, dw[rows])
        model[:, : c.size] = c
        y = gram(model).solve(-(restrict(D.adjoint(c * D.diff(x))) + law_grad(x, rows)), 0.0)
        fine = np.all(np.isfinite(y), axis=-1)
        y0[rows[fine]] = y[fine]

    if dual is None or not (system.convex_nodes | (pair.j.adjoint(dw[0]) > 0))[Z].all():
        res = solvers.newton(value, grad, hess, y0, tol)
        return rescued(res.x, res)

    keep, D_free, dual_gram = dual
    b = D.diff(at(np.zeros_like(y0), every))[:, keep]  # contribution of the fixed nodes
    c, q = c[keep], p[keep] / (p[keep] - 1.0)
    cq = c ** (1.0 - q)
    seen, seen_z, seen_v, seen_y = np.zeros(len(x0), dtype=bool), np.zeros_like(b), np.zeros_like(y0), y0.copy()

    def law_curvature(x, rows):
        w = [t.hessian_weights(x) for t in system.laws] + [dw[rows]]
        return system.nodal(np.concatenate(w, axis=-1)).take(Z, -1)

    def primal_of(z, rows):
        # invert the strictly increasing nodewise derivative map, sample by
        # sample; Newton asks again at the same z, so each sample's last
        # answer is kept (and warm-starts its next)
        hit = seen[rows] & np.logical_and.reduce(z == seen_z[rows], -1)
        hits = np.count_nonzero(hit)
        if hits == hit.size:
            return seen_v[rows], seen_y[rows]
        ids, z = (rows, z) if not hits else (rows[~hit], z[~hit])
        v, y = -D_free.adjoint(z), seen_y.take(ids, 0)
        scale = 1e-13 * (1.0 + np.maximum.reduce(np.abs(v), -1, initial=0.0))
        for _ in range(60):  # a sample that is done stays at its point
            x = at(y, ids)
            r = law_grad(x, ids) - v
            done = np.maximum.reduce(np.abs(r), -1, initial=0.0) <= scale
            if np.count_nonzero(done) == done.size:
                break
            y = np.where(done[..., None], y, y - r / np.maximum(law_curvature(x, ids), 1e-14))
        seen[ids], seen_z[ids], seen_v[ids], seen_y[ids] = True, z, v, y
        return (v, y) if ids is rows else (seen_v[rows], seen_y[rows])

    def dual_value(z, rows):
        v, y = primal_of(z, rows)
        x = at(y, rows)
        laws_value = sum(t.value(x) for t in system.laws) + data_value(x, rows)
        return np.add.reduce(cq * np.abs(z) ** q / q, -1) - np.vecdot(z, b[rows]) + np.vecdot(v, y) - laws_value

    def dual_grad(z, rows):
        y = primal_of(z, rows)[1]
        return cq * np.abs(z) ** (q - 1.0) * np.sign(z) - b[rows] - D_free.diff(y)

    def dual_hess(z, rows):
        inv_curv = 1.0 / np.maximum(law_curvature(at(primal_of(z, rows)[1], rows), rows), 1e-14)
        return dual_gram(np.concatenate([cq * (q - 1.0) * np.abs(z) ** (q - 2.0), inv_curv], axis=-1))

    def certificate(z, rows):
        h = slice_grad(primal_of(z, rows)[1], rows)
        return np.sqrt(np.vecdot(h, h))

    d0 = D_free.diff(y0) + b
    z0 = c * np.abs(d0) ** (p[keep] - 1.0) * np.sign(d0)
    res = solvers.newton(*map(batch, (dual_value, dual_grad, dual_hess)), z0, tol, certificate=batch(certificate))
    y = primal_of(res.x, every)[1]
    return rescued(y, replace(res, value=value(y)))  # the slice objective, not the dual's


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
        for s in (1.0, 0.1, 0.01):
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
    base_value = lifted_value(pair, v0, tol=1e-8).value
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
