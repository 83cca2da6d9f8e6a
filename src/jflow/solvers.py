"""Convex minimization with an explicit accuracy contract.

Smooth objectives take :func:`newton`: Newton on a banded Cholesky
(LAPACK ``dpbsv``) of a Hessian in the Gram form ``B diag(w) B^T``
(:func:`_weighted_gram`), plain steps first and a Levenberg shift only
where they fail, certified by the measured gradient norm.  Its only
layout is a leading axis of S independent samples with one sparsity: the
bands are filled in one ``bincount`` and factored sample by sample, and
every sample runs, in the same arithmetic, the iteration it would run alone.
Edge powers below two overshoot across their kink; a sample Newton
leaves above its tolerance is rescued alone by Newton on the
lagged-diffusivity majorant of the Hessian, then on the Hessian itself
(:func:`_try_snap`).

:func:`minimize` is accelerated proximal gradient for prox composites,
certified by the Euclidean norm of an *explicit subgradient* of the full
objective at the returned point: for a proximal step
``z = prox_s(y - s grad f(y))``,

    (y - z)/s - grad f(y) + grad f(z)  in  (grad f + d g)(z),

so for a strongly convex objective with modulus ``mu`` the returned
point satisfies ``|x - x*| <= residual / mu`` unconditionally.

The three total-variation problems share one exact, sparse core.  The
steps, :func:`tv_prox` (every node anchored, certified by a measured
duality gap) and :func:`partial_anchor_tv` (free nodes, certified by a
measured KKT residual), take a batch of samples, polished from one
primal-dual phase (:func:`_pdhg`) that iterates the batch, each sample
bitwise as alone: its plateaus take their levels in closed form, and its
edge field, projected onto the plateau equations by one sparse solve, is
that of the certificate; a HiGHS feasibility problem runs only where the
projection leaves its box and the plateaus have cycles (:func:`_tv_polish`).
The fiber :func:`constrained_tv_min` is a linear program solved by
HiGHS, certified by its edge dual.  Each returns a :class:`SolveResult`
with its measured certificate, not ``converged`` above ``tol``.  HiGHS
(``scipy.optimize``) loads on the first TV linear program, not with this
module.  Edge differences go through :class:`EdgeOperator`, a gather
and a ``bincount`` scatter (:class:`Scatter`, per sample row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

__all__ = [
    "Objective",
    "SolveSpec",
    "SolveResult",
    "minimize",
    "newton",
    "tv_prox",
    "EdgeOperator",
    "edge_incidence",
    "Scatter",
    "partial_anchor_tv",
    "constrained_tv_min",
]

_MACHINE_SLACK = 1e-13
_BACKTRACK = 0.5 ** np.arange(40)  # halved step lengths down to 1e-12
_dpbsv = scipy.linalg.lapack.dpbsv


@dataclass
class Objective:
    """Composite objective: smooth part plus an optional prox-friendly part."""

    smooth_value: Callable[[np.ndarray], float]
    smooth_grad: Callable[[np.ndarray], np.ndarray]
    prox: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    nonsmooth_value: Callable[[np.ndarray], float] = field(default=lambda x: 0.0)

    def apply_prox(self, v, step):
        return v if self.prox is None else self.prox(v, step)

    def total_value(self, x) -> float:
        return self.smooth_value(x) + self.nonsmooth_value(x)


@dataclass
class SolveSpec:
    objective: Objective
    start: np.ndarray
    tol: float = 1e-8
    max_iter: int = 200000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveResult:
    x: np.ndarray
    residual: float
    iterations: int
    converged: bool
    value: float


@dataclass
class Majorized:
    """A smooth convex objective with its Hessian and a majorant of it,
    each ``x -> H`` as :func:`newton` takes them: what :func:`_try_snap` solves."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable
    majorant: Callable
    tol: float


def _probe_step(obj, x: np.ndarray) -> float:
    g = obj.smooth_grad(x)
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    d = np.ones_like(x) / math.sqrt(max(x.size, 1))
    g2 = obj.smooth_grad(x + h * d)
    lip = np.linalg.norm(g2 - g) / h
    if not np.isfinite(lip) or lip <= 1e-12:
        return 1.0
    return min(1.0 / lip, 1e6)


def _accelerated_descent(obj: Objective, x: np.ndarray, tol: float, max_iter: int):
    """Proximal gradient with backtracking, momentum and gradient restart."""
    s = _probe_step(obj, x)
    s_cap = math.inf
    y = x.copy()
    z_prev = x.copy()
    t_mom = 1.0
    best = x.copy()
    best_res = math.inf
    k = 0
    while k < max_iter:
        k += 1
        gy = obj.smooth_grad(y)
        fy = obj.smooth_value(y)
        halvings = 0
        while True:
            z = obj.apply_prox(y - s * gy, s)
            dz = z - y
            gz = obj.smooth_grad(z)
            quad = fy + float(gy @ dz) + float(dz @ dz) / (2.0 * s)
            # the descent test on values, and one on gradients (s below the
            # inverse local Lipschitz constant) that rounding in f cannot fool
            lipschitz = s * np.linalg.norm(gz - gy) <= np.linalg.norm(dz)
            if lipschitz and obj.smooth_value(z) <= quad + _MACHINE_SLACK * (1.0 + abs(fy)):
                break
            s *= 0.5
            halvings += 1
            if s < 1e-18:
                break
        if halvings:
            # remember the ceiling; growing past it just limit-cycles
            s_cap = 1.99 * s
        xi = (y - z) / s - gy + gz
        res = float(np.linalg.norm(xi))
        if res <= tol:
            return z, res, k
        if res < best_res:
            best_res, best = res, z.copy()

        if best_res < math.inf and res > 100.0 * best_res:
            # runaway momentum or an unstable step: rewind
            y = best.copy()
            z_prev = best.copy()
            t_mom = 1.0
            s *= 0.5
            continue

        # momentum with gradient-based restart: drop it when the step
        # direction turns against the latest progress (kills ripples)
        if float((y - z) @ (z - z_prev)) <= 0.0:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom**2))
            y = z + ((t_mom - 1.0) / t_next) * (z - z_prev)
            t_mom = t_next
        else:
            y = z.copy()
            t_mom = 1.0
        z_prev = z
        if halvings == 0:
            s = min(s * 1.25, s_cap)
            if math.isfinite(s_cap):
                s_cap = min(s_cap * 1.02, 1e12)  # the ceiling may track changing curvature

    return best, best_res, max_iter


def minimize(spec: SolveSpec) -> SolveResult:
    """Accelerated proximal gradient for a composite objective, to a subgradient residual."""
    obj = spec.objective
    x = obj.apply_prox(np.asarray(spec.start, float).copy(), 1.0)
    x, res, used = _accelerated_descent(obj, x, spec.tol, spec.max_iter)
    return SolveResult(x, res, used, res <= spec.tol, obj.total_value(x))


# ---------------------------------------------------------------------------
# Newton on banded Hessians


def newton(value, grad, hess, start, tol: float, certificate=None) -> SolveResult:
    """Newton for smooth convex objectives with banded Hessians, over a batch of samples.

    ``start`` is ``(S, k)``, one independent problem per row.  ``value``,
    ``grad`` and ``hess`` take ``(x, rows)``, the points of the samples
    ``rows`` (indices into the batch), and return one value, gradient or
    Hessian per row; the Hessians come as one operator with
    ``diagonal()`` and ``solve(rhs, shift, sub)`` (:func:`_weighted_gram`),
    which gives a NaN row for a sample ``sub`` whose ``H + shift I`` is not
    positive definite.  Every sample takes the iteration it would take
    alone, and a sample that certifies or cannot move is frozen.
    Each iteration first tries the plain step on ``H + floor I``, with the
    relative floor ``1e-13 max|diag H|``, and takes it in full when it
    factors, descends and passes Armijo at unit length.  Otherwise the
    Levenberg shift ``min(|grad|, 1)`` is added to the floor, which keeps
    the system solvable where the curvature degenerates, and Armijo
    backtracking on ``value`` globalizes.  A step whose predicted decrease
    lies below the rounding level of ``value`` passes Armijo.  A failed
    factorization, a non-finite step or 200 iterations stop a sample.  It
    is certified by ``certificate(x, rows)`` (default: the norm of the
    gradient already held at ``x``) at its best iterate, and carries that
    iterate's tracked value; a non-finite certificate never counts as
    converged.  The result holds ``x``, ``residual`` and ``value`` per
    sample, the iterations of the batch, and ``converged`` when every
    sample is.
    """
    x = np.array(start, float)
    rows = np.arange(len(x))  # the samples still iterating; x, f and g are theirs

    def certify(x, g, rows):
        return np.sqrt(np.vecdot(g, g)) if certificate is None else np.asarray(certificate(x, rows), float)

    f, g = np.array(value(x, rows), float), grad(x, rows)
    best_x, best_r, best_f = x.copy(), certify(x, g, rows), f.copy()  # each sample's best iterate
    go = ~(best_r <= tol)
    k = 0
    while k < 200 and np.count_nonzero(go):
        k += 1
        if np.count_nonzero(go) < go.size:
            rows, x, f, g = rows[go], x[go], f[go], g[go]
        H = hess(x, rows)
        floor = 1e-13 * np.maximum.reduce(np.abs(H.diagonal()), -1, initial=0.0)
        moved = _armijo(value, x, f, g, rows, H.solve(-g, floor), (1.0,))
        if np.count_nonzero(moved) < moved.size:  # the shifted, backtracked step; a sample that cannot take it stops
            t = np.flatnonzero(~moved)
            shift = np.minimum(np.sqrt(np.vecdot(g[t], g[t])), 1.0) + floor[t]
            xt, ft = x[t], f[t]
            moved[t] = _armijo(value, xt, ft, g[t], rows[t], H.solve(-g[t], shift, t), _BACKTRACK)
            x[t], f[t] = xt, ft
            rows, x, f = rows[moved], x[moved], f[moved]
            if not rows.size:
                break
        g = grad(x, rows)
        r = certify(x, g, rows)
        prev = best_r[rows]
        better = (r < prev) | (np.isfinite(r) & np.isnan(prev))  # certificates are >= 0
        b = rows if np.count_nonzero(better) == better.size else rows[better]
        best_x[b], best_r[b], best_f[b] = (x, r, f) if b is rows else (x[better], r[better], f[better])
        go = ~(better & (r <= tol))  # a sample still iterating had its best above tol
    return SolveResult(best_x, best_r, k, bool(np.all(best_r <= tol)), best_f)


def _armijo(value, x, f, g, rows, step, lengths):
    """Move each sample (row) of ``x``, whose gradient is ``g``, to the first
    ``x + alpha step``, ``alpha`` in ``lengths``, that descends and passes
    Armijo on ``value``, updating ``x`` and ``f`` in place; returns which moved."""
    slope = np.vecdot(g, step)
    moved = np.zeros(len(x), dtype=bool)
    ok = (slope < 0.0) & np.logical_and.reduce(np.isfinite(step), -1)
    left = slice(None) if np.count_nonzero(ok) == ok.size else np.flatnonzero(ok)  # the samples still trying
    for alpha in lengths:
        s, f0 = slope[left], f[left]
        if not s.size:
            break
        x_new = x[left] + alpha * step[left]
        f_new = value(x_new, rows[left])
        ok = (f_new <= f0 + 1e-4 * alpha * s) | (-alpha * s <= 1e-15 * (1.0 + np.abs(f0)))
        ok &= np.isfinite(f_new)
        if np.count_nonzero(ok) == ok.size:  # every sample left moves
            x[left], f[left], moved[left] = x_new, f_new, True
            break
        left = np.arange(len(x))[left]
        x[left[ok]], f[left[ok]], moved[left[ok]] = x_new[ok], f_new[ok], True
        left = left[~ok]
    return moved


def _try_snap(problem: Majorized, x, gn):
    """Rescue a :func:`newton` solve that stalled at ``x`` with gradient norm ``gn``,
    one sample as a batch of one (``x`` of shape ``(1, k)``).

    Across the kink of an edge power ``|d|^p`` with ``1 < p < 2``, a Newton
    step maps a difference ``d`` to about ``d (p-2)/(p-1)``: it overshoots,
    and differences near rounding level keep the gradient at a floor.  The
    lagged-diffusivity (IRLS) majorant, edge weights ``c |d|^(p-2)`` in
    place of ``c (p-1) |d|^(p-2)`` (Vogel & Oman 1996), does not overshoot:
    Newton on it runs from ``x``, then, only while above ``tol``, Newton on
    the true Hessian from there.  Returns the point of the lowest measured
    gradient norm, that norm and the iterations used.
    """
    used = 0
    for hess in (problem.majorant, problem.hess):
        if gn <= problem.tol:
            break
        res = newton(problem.value, problem.grad, hess, x, problem.tol)
        used += res.iterations
        if res.residual[0] < gn:
            x, gn = res.x, float(res.residual[0])
    return x, gn, used


def _weighted_gram(row, col, val, n: int):
    """``w -> B diag(w) B^T`` as a :class:`_Banded`, for a fixed sparse ``B`` with
    ``n`` rows given by COO triplets (entries in a negative row dropped).

    A reverse Cuthill-McKee ordering of the product, its bandwidth and the
    band slot of every product of two entries in one column of ``B`` are
    found once; a call sums the weighted products into their slots, column
    by column, rows ascending, one band per sample row of ``w`` (a 1-D
    ``w`` is a batch of one).
    """
    live = (val != 0) & (row >= 0)
    order = np.lexsort((row[live], col[live]))
    row, col, val = row[live][order], col[live][order], val[live][order]
    indptr = np.r_[0, np.cumsum(np.bincount(col))]
    count = np.diff(indptr)[col]  # entries in the column of each entry
    left = np.repeat(np.arange(row.size), count)
    right = np.arange(left.size) - np.repeat(np.cumsum(count) - count, count) + indptr[col[left]]
    pattern = scipy.sparse.csr_matrix((np.ones(left.size), (row[left], row[right])), shape=(n, n))
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(pattern, symmetric_mode=True) if n else np.arange(0)
    rank = np.argsort(perm)  # position of each row in the ordering
    i, j = rank[row[left]], rank[row[right]]
    upper = i <= j
    bw = int(np.max(j - i, initial=0))
    slot = ((bw + i - j) * n + j)[upper]
    coef, src = (val[left] * val[right])[upper], col[left][upper]
    fill = Scatter(slot, (bw + 1) * n)
    return lambda w: _Banded(fill(coef * w.take(src, -1)).reshape((w.shape[:-1] or (1,)) + (bw + 1, n)), perm, rank)


class _Banded:
    """Symmetric ``A`` as the upper band of ``A[perm][:, perm]`` in LAPACK's
    layout (``ab[s, bw + i - j, j]`` for ``i <= j``), one band per sample
    ``s``; ``rank`` inverts ``perm``."""

    def __init__(self, ab, perm, rank):
        self.ab, self.perm, self.rank = ab, perm, rank

    def diagonal(self):
        return self.ab[:, -1].take(self.rank, -1)

    def solve(self, rhs, shift, sub=slice(None)):
        """``(A + shift I)^{-1} rhs`` by banded Cholesky, factored sample by
        sample of the bands ``sub`` (a stacked factorization is not bitwise
        that of each block): a NaN row for a sample whose ``A + shift I`` is
        not definite."""
        ab = self.ab[sub].swapaxes(1, 2).copy()  # each band in Fortran order
        ab[..., -1] += np.reshape(shift, (-1, 1))
        out = rhs.take(self.perm, -1)
        for band, y in zip(ab, out):  # both factored and solved in place
            if _dpbsv(band.T, y, overwrite_ab=1, overwrite_b=1)[2] > 0:
                y[:] = np.nan
        return out.take(self.rank, -1)


class Scatter:
    """``values -> `` the sums of ``values[..., i]`` into bin ``index[i]`` of
    ``size`` bins, per sample of the leading axes: one ``bincount`` over
    per-sample offsets, each sample summed in index order as it would be
    alone.  The offset index of the largest batch so far is kept."""

    def __init__(self, index, size: int):
        self.index, self.size = np.asarray(index, dtype=int), int(size)
        self.tiled = self.index[None]

    def __call__(self, values):
        if values.ndim == 1:
            return np.bincount(self.index, values, self.size)
        lead = values.shape[:-1]
        if values.size == self.index.size > 0:  # one sample
            return np.bincount(self.index, values.reshape(-1), self.size).reshape(lead + (self.size,))
        count = math.prod(lead)
        if count > len(self.tiled):
            self.tiled = self.index + self.size * np.arange(count)[:, None]
        return np.bincount(self.tiled[:count].ravel(), values.ravel(), count * self.size).reshape(lead + (self.size,))


# ---------------------------------------------------------------------------
# total-variation problems
#
# The steps share one optimality system.  With node masses m >= 0 (zero on
# free nodes), x minimizes  sum_e w_e |(Dx)_e| + 1/(2 lam) sum_i m_i (x_i - a_i)^2
# iff an edge field z with |z_e| <= w_e, equal to w_e sign((Dx)_e) wherever
# (Dx)_e != 0, satisfies  D^T z + (m / lam) (x - a) = 0.

_POLISH_RUNGS = (1e-2, 1e-4, 1e-6, 1e-8)  # KKT residuals of the approximate phase
_POLISH_DELTAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)  # plateau thresholds on |(Dx)_e|, coarsest first
_PDHG_MAX_ITER = 200000
_HIGHS = dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)


class EdgeOperator:
    """The signed edge-node incidence ``D``, ``(Dx)_e = x_a - x_b`` on ``n`` nodes,
    from endpoint arrays; an endpoint of -1 is grounded (read as 0, never
    written).  :meth:`diff` gathers over the last axis of ``x``; :meth:`adjoint`
    scatters ``z`` and ``-z`` in one ``bincount``, edge by edge as CSR sums."""

    def __init__(self, edges, n: int):
        self.ends, self.n = np.asarray(edges, dtype=int).reshape(-1, 2), int(n)
        self.head, self.tail = self.ends[:, 0].copy(), self.ends[:, 1].copy()
        self._slots = np.where(self.ends >= 0, self.ends, self.n).ravel()  # the ground is slot n
        self._scatter = Scatter(self._slots, self.n + 1)
        self._grounded = bool(np.any(self.ends < 0))

    def diff(self, x):
        """``D x`` of each sample row of ``x``."""
        if self._grounded:
            x = np.concatenate([x, np.zeros(np.shape(x)[:-1] + (1,))], axis=-1)
        return x.take(self.head, -1) - x.take(self.tail, -1)

    def adjoint(self, z):
        """``D^T z`` of each sample row of ``z``."""
        signed = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
        signed[..., 0::2], signed[..., 1::2] = z, -z
        return self._scatter(signed)[..., : self.n]

    def entries(self):
        """``(edge, node, sign)`` of the nonzero entries, edge by edge."""
        m, node = self.head.size, self.ends.ravel()
        live = node >= 0
        return np.repeat(np.arange(m), 2)[live], node[live], np.tile([1.0, -1.0], m)[live]


def edge_incidence(edges, n: int) -> scipy.sparse.csr_matrix:
    """:class:`EdgeOperator` as a CSR matrix, for the sparse systems of HiGHS and ``spsolve``."""
    D = EdgeOperator(edges, n)
    edge, node, sign = D.entries()
    return scipy.sparse.csr_matrix((sign, (edge, node)), shape=(D.head.size, D.n))


def tv_prox(edges, weights, anchor, lam, tol: float = 1e-12, node_weights=None) -> SolveResult:
    """Minimize ``lam_s sum_e w_e |x_a - x_b| + 1/2 sum_i m_i (x_i - anchor_si)^2``
    for each sample row ``s`` of the ``(S, n)`` ``anchor``.

    ``lam`` is one step or one per sample.  Solved exactly by plateau
    polish (:func:`_tv_polish`, its phase started from the anchor),
    certified by the duality gap of the polished point ``x`` and its edge
    field ``z`` (``|z_e| <= lam w_e``), measured as

        sum_e (lam w_e |d_e| - z_e d_e) + 1/2 sum_i m_i r_i^2,
        d = D x,  r = x - (anchor - M^(-1) D^T z),

    the primal minus the dual value without the cancellation of evaluating
    both.  ``node_weights`` defaults to ones; a sample with ``lam = 0``
    keeps its anchor.  Returns that of :func:`_tv_polish`, gap as residual.
    """
    a = np.asarray(anchor, float)
    S, n = a.shape
    lam = np.broadcast_to(np.asarray(lam, float), S)
    m_vec = np.ones(n) if node_weights is None else np.asarray(node_weights, float)
    edges, w = np.asarray(edges, dtype=int).reshape(-1, 2), np.asarray(weights, float).reshape(-1)
    _check_tv(w, m_vec, lam, zero_lam=True)
    x, residual, value = a.copy(), np.zeros(S), np.zeros(S)
    live, move = w > 0, np.flatnonzero(lam > 0)
    if not (live.any() and move.size):
        return SolveResult(x, residual, 0, True, value)
    edges, w, a, lam = edges[live], w[live], a[move], lam[move]

    def gap(s, x, d, z, dtz):
        r = x - a[s] + lam[s] * dtz / m_vec
        return float(lam[s] * np.sum(w * np.abs(d) - z * d) + 0.5 * np.sum(m_vec * r * r))

    res = _tv_polish(edges, w, a, m_vec, lam, gap, tol)
    x[move], residual[move], value[move] = res.x, res.residual, res.value * lam
    return SolveResult(x, residual, res.iterations, res.converged, value)


def partial_anchor_tv(
    edges,
    weights,
    anchored,
    anchor_values,
    node_weights_anchored,
    lam,
    n: int,
    tol: float = 1e-9,
    x0=None,
) -> SolveResult:
    """``min_x sum_e w_e |(Dx)_e| + 1/(2 lam_s) sum_{i anchored} m_i (x_i - g_si)^2``
    for each sample row ``s`` of the ``(S, k)`` ``anchor_values`` ``g``.

    Nodes outside ``anchored`` are free (zero mass); ``lam`` is one step
    or one per sample, ``x0`` None or one start per sample (None: ``g`` on
    the anchored nodes, zero elsewhere).  Solved exactly by plateau polish
    (:func:`_tv_polish`), certified by the measured KKT residual of the
    polished point and its edge field ``z`` (``|z_e| <= w_e``): the larger
    of the complementarity gap ``sum_e (w_e |d_e| - z_e d_e)`` and the norm
    of ``D^T z + (m / lam) (x - g)``.  Returns that of :func:`_tv_polish`.
    """
    w = np.asarray(weights, float)
    anchored, g = np.asarray(anchored, dtype=int), np.asarray(anchor_values, float)
    lam = np.broadcast_to(np.asarray(lam, float), len(g))
    _check_tv(w, np.asarray(node_weights_anchored, float), lam, zero_lam=False)
    a_vec, m_vec = np.zeros((len(g), n)), np.zeros(n)
    a_vec[:, anchored], m_vec[anchored] = g, node_weights_anchored
    coef = m_vec / lam[:, None]

    def kkt(s, x, d, z, dtz):
        return max(float(np.sum(w * np.abs(d) - z * d)), float(np.linalg.norm(dtz + coef[s] * (x - a_vec[s]))))

    return _tv_polish(edges, w, a_vec, m_vec, lam, kkt, tol, x0)


def constrained_tv_min(edges, weights, fixed, fixed_values, n: int, tol: float = 1e-9) -> SolveResult:
    """``min_x sum_e w_e |(Dx)_e|`` subject to ``x_i = u_i`` on ``fixed``.

    Solved as the linear program ``min sum_e w_e t_e`` subject to
    ``|(Dx)_e| <= t_e`` with HiGHS.  The edge field ``z`` of the
    certificate is read off the marginals of the two inequality blocks;
    the measured KKT residual is the largest of the complementarity gap
    ``sum_e (w_e |d_e| - z_e d_e)``, the norm of ``D_free^T z`` and the box
    violation ``max_e (|z_e| - w_e)``; iterations are HiGHS's.  Not
    ``converged`` above ``tol``; the residual is ``inf`` when HiGHS fails.
    """
    D = edge_incidence(edges, n)
    w = np.asarray(weights, float)
    _check_tv(w)
    fixed = np.asarray(fixed, dtype=int)
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    x = np.zeros(n)
    x[fixed] = fixed_values
    D_free = D[:, free]
    shift = D @ x
    m, nf = D_free.shape
    eye = scipy.sparse.identity(m, format="csr")
    A = scipy.sparse.vstack([scipy.sparse.hstack([D_free, -eye]), scipy.sparse.hstack([-D_free, -eye])], format="csr")
    bounds = np.vstack([np.tile([-np.inf, np.inf], (nf, 1)), np.tile([0.0, np.inf], (m, 1))])
    from scipy.optimize import linprog  # HiGHS loads here, on the first TV linear program
    lp = linprog(
        np.r_[np.zeros(nf), w], A_ub=A, b_ub=np.r_[-shift, shift], bounds=bounds, method="highs", options=_HIGHS
    )
    if lp.status != 0:
        return SolveResult(x, math.inf, int(lp.nit), False, math.nan)
    x[free] = lp.x[:nf]
    z = lp.ineqlin.marginals[m:] - lp.ineqlin.marginals[:m]
    d = D @ x
    kkt = max(
        float(np.sum(w * np.abs(d) - z * d)),
        float(np.linalg.norm(D_free.T @ z)),
        float(np.max(np.abs(z) - w, initial=0.0)),
    )
    return SolveResult(x, kkt, int(lp.nit), kkt <= tol, float(np.sum(w * np.abs(d))))


def _check_tv(w, masses=(), lam=(), zero_lam=True):
    """Edge weights ``w >= 0``, node weights ``masses > 0``, steps ``lam > 0`` (``>= 0`` with ``zero_lam``)."""
    if np.any(w < 0):
        raise ValueError("edge weights must be nonnegative")
    if np.any(np.asarray(masses) <= 0):
        raise ValueError("node weights must be positive")
    if np.any(np.asarray(lam) < 0) or not zero_lam and np.any(np.asarray(lam) == 0):
        raise ValueError("lam must be nonnegative" if zero_lam else "lam must be positive")


def _tv_polish(edges, weights, anchor, masses, lam, measure, tol, starts=None):
    """Exact minimizer of ``sum_e w_e |(Dx)_e| + 1/(2 lam_s) sum_i m_i (x_i - a_si)^2``
    for each sample row ``s`` of the ``(S, n)`` ``anchor``.

    Solution polishing from an active-set guess (OSQP, Stellato et al.
    2020, section 5) on the plateau structure of total-variation
    minimizers: a warm-started primal-dual approximate phase
    (:func:`_pdhg`, from each sample's entry of ``starts``; None: its
    anchor) runs to each KKT residual of ``_POLISH_RUNGS``, in one batch
    of the samples not yet certified; after each, a sample's edges with
    ``|(Dx)_e| <= delta`` join into plateaus for each ``delta`` of
    ``_POLISH_DELTAS`` not tried before, and :func:`_plateau_solution`
    sets their exact levels and, from the phase's dual iterate, their edge
    field.  A sample's first candidate with ``measure(s, x, Dx, z, D^T z)
    <= tol`` certifies it; else its lowest residual is kept (``inf``
    without a candidate), each as it would be alone.  Returns per sample
    ``x``, residual and value, the phase's iterations of the batch, and
    ``converged`` when every sample certifies.
    """
    S, n = anchor.shape
    D = EdgeOperator(edges, n)
    coef = masses / lam[:, None]
    edge, node, _ = D.entries()  # Gershgorin bound on |D|^2 (row sums of |D^T| |D|) keeps the steps admissible
    step = 0.99 / math.sqrt(max(float(np.max(np.bincount(node, np.bincount(edge)[edge]), initial=0.0)), 1e-24))
    x = np.array([a if x is None else x for a, x in zip(anchor, [None] * S if starts is None else starts)], float)
    z = np.zeros((S, D.head.size))
    used, tried = np.zeros(S, dtype=int), [set() for _ in range(S)]
    best = list(zip([math.inf] * S, x.copy(), D.diff(x)))  # (residual, x, Dx) of each sample's best candidate
    for rung in _POLISH_RUNGS:
        rows = np.flatnonzero([not b[0] <= tol for b in best])
        if not rows.size:
            break
        caps = _PDHG_MAX_ITER - used[rows]
        x[rows], z[rows], k = _pdhg(D, weights, coef[rows], anchor[rows], x[rows], z[rows], step, rung, caps)
        used[rows] += k
        for s, d in zip(rows, D.diff(x[rows])):
            for delta in _POLISH_DELTAS:
                pattern = np.where(np.abs(d) <= delta, 0, np.sign(d)).astype(np.int8)
                key = pattern.tobytes()
                if key in tried[s]:
                    continue
                tried[s].add(key)
                cand = _plateau_solution(D, weights, coef[s], anchor[s], x[s], z[s], pattern)
                if cand is None:
                    continue
                xp, zp = cand
                dp = D.diff(xp)
                r = measure(s, xp, dp, zp, D.adjoint(zp))
                if r < best[s][0]:
                    best[s] = (r, xp, dp)
                if r <= tol:
                    break
    r, x, d = (np.array(v) for v in zip(*best))
    value = np.sum(weights * np.abs(d), -1) + 0.5 * np.sum(coef * (x - anchor) ** 2, -1)
    return SolveResult(x, r, int(used.sum()), bool(np.all(r <= tol)), value)


def _plateau_solution(D, weights, coef, anchor, x, z, pattern):
    """Exact point and edge field for a guessed plateau structure.

    ``pattern`` is 0 on the edges joined into plateaus and the sign of
    ``(Dx)_e`` on the others, whose edge field sits on its bound.  With
    ``coef = m / lam``, each plateau ``P`` takes the level
    ``(sum_P coef a - (D^T z_cut)_P) / sum_P coef`` that sums the
    optimality system over it; a grounded plateau takes zero and a
    massless one keeps the mean of ``x``.  The edge field on the plateau
    edges then solves ``D_P^T z_P = -coef (x - a) - D^T z_cut`` within its
    box (one equation per plateau of positive mass is dropped: they sum to
    zero): the projection of the approximate phase's field ``z`` onto
    these equations when it lies in the box, else a HiGHS feasibility
    problem.  Where the joined edges form a forest the equations are
    square and that field is their only solution: it is kept, clipped,
    when it leaves its box by at most HiGHS's feasibility tolerance, and
    HiGHS is not called.  Returns None when a cut edge turns over or no
    such field exists.
    """
    n = x.size
    joined = pattern == 0
    z_new = weights * pattern
    force = D.adjoint(z_new)
    a, b = D._slots.reshape(-1, 2)[joined].T  # endpoints, with node n the ground
    graph = scipy.sparse.coo_matrix((np.ones(a.size), (a, b)), shape=(n + 1, n + 1))
    count, label = scipy.sparse.csgraph.connected_components(graph, directed=False)
    nodes = label[:n]
    mass = np.bincount(nodes, weights=coef, minlength=count)
    pulled = np.bincount(nodes, weights=coef * anchor - force, minlength=count) / np.where(mass > 0, mass, 1.0)
    mean = np.bincount(nodes, weights=x, minlength=count) / np.maximum(np.bincount(nodes, minlength=count), 1)
    level = np.where(mass > 0, pulled, mean)
    level[label[n]] = 0.0
    x_new = level[nodes]
    if np.any(z_new * D.diff(x_new) < 0.0):
        return None
    if joined.any():
        D_joined = edge_incidence(D.ends[joined], n)
        touched = np.unique(D_joined.indices)
        keep = np.ones(touched.size, dtype=bool)
        keep[np.unique(nodes[touched], return_index=True)[1]] = False
        keep |= nodes[touched] == label[n]
        rows = touched[keep]
        A = D_joined.T.tocsr()[rows]
        b = (-coef * (x_new - anchor) - force)[rows]
        w_joined, z_phase = weights[joined], z[joined]
        # the nearest solution to the phase's field: the only one on plateaus without cycles
        z_joined = z_phase + A.T @ scipy.sparse.linalg.spsolve((A @ A.T).tocsc(), b - A @ z_phase)
        if A.shape[0] == A.shape[1]:  # a forest: HiGHS could only test this field within its tolerance
            if not np.max(np.abs(z_joined) - w_joined, initial=0.0) <= _HIGHS["primal_feasibility_tolerance"]:
                return None
        elif not np.all(np.abs(z_joined) <= w_joined):
            from scipy.optimize import linprog  # HiGHS loads here, on the first TV linear program
            lp = linprog(
                np.zeros(w_joined.size), A_eq=A, b_eq=b,
                bounds=np.column_stack([-w_joined, w_joined]), method="highs", options=_HIGHS,
            )
            if lp.status != 0:
                return None
            z_joined = lp.x
        z_new[joined] = np.clip(z_joined, -w_joined, w_joined)
    return x_new, z_new


def _pdhg(D, mult, coef, anchor, x, z, step, tol, caps):
    """Primal-dual iterations for ``min_x sum_e mult_e |(Dx)_e| + 1/2 sum_i coef_si (x_i - a_si)^2``
    from ``(x, z)``, ``(S, n)`` and ``(S, m)``: the approximate phase of
    :func:`_tv_polish`, one batch of the samples still iterating.

    Every 10 iterations a sample measures its KKT residual, the larger of
    the complementarity gap ``sum_e (mult_e |d_e| - z_e d_e)`` of its dual
    iterate (which stays in its box, so the gap is nonnegative) and the
    norm of ``D^T z + coef (x - a)``, and stops at the first at or below
    ``tol``, or after ``caps[s]`` iterations, in the arithmetic of its run
    alone.  Returns the iterates and the iteration count of each sample.
    """
    n = x.shape[1]
    x, z, its = x.copy(), z.copy(), np.zeros(len(x), dtype=int)  # each sample's iterates as it stops
    rows = np.flatnonzero(caps > 0)
    pull, xbar = step * coef[rows], np.zeros((rows.size, n + 1))  # x-bar with the ground as slot n
    xbar[:, :n] = x[rows]
    run = [rows, x[rows], z[rows], coef[rows], anchor[rows], caps[rows], pull * anchor[rows], 1.0 + pull, xbar]
    head, tail, low = D._slots[0::2].copy(), D._slots[1::2].copy(), -mult
    k, first = 0, int(np.min(caps[rows], initial=0))  # the first iteration that can reach a cap
    while run[0].size:
        rows, xs, zs, coef, anchor, caps, pull, scale, xbar = run
        k += 1
        zs += step * (xbar.take(head, 1) - xbar.take(tail, 1))
        np.minimum(np.maximum(zs, low, out=zs), mult, out=zs)
        dtz = D.adjoint(zs)
        x_new = (xs - step * dtz + pull) / scale
        np.subtract(np.multiply(x_new, 2.0, out=xbar[:, :n]), xs, out=xbar[:, :n])
        run[1] = x_new
        if k % 10 and k < first:
            continue
        stop = k >= caps
        if k % 10 == 0:
            d, r = D.diff(x_new), dtz + coef * (x_new - anchor)
            gap, norm = np.sum(mult * np.abs(d) - zs * d, -1), np.sqrt(np.vecdot(r, r))
            stop |= np.where(norm > gap, norm, gap) <= tol
        if stop.any():
            x[rows[stop]], z[rows[stop]], its[rows[stop]] = x_new[stop], zs[stop], k
            run, first = [v[~stop] for v in run], int(np.min(caps[~stop], initial=0))
    return x, z, its
