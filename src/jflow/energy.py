"""Composite convex energies on ``R^n`` with extended-real values.

An energy is a sum of term primitives: edge powers, nodewise integrals
of scalar laws, quadratics, discrete total variation and affine-subspace
indicators.  Terms expose values, gradients where they are smooth, and a
semiconvexity constant ``omega_term >= 0`` such that the term plus
``omega_term/2`` times the weighted square of its node values is convex
(zero for convex terms).  Smooth terms give their Hessian in the Gram form
``B diag(w(u)) B^T``: a sparse factor ``B`` fixed per term and weights
``w(u)`` (:meth:`EnergyTerm.hessian_factor`).

Convexity and coercivity are *sampled* diagnostics, never certificates:
:func:`sample_convexity` probes midpoint-type inequalities on random
pairs; :func:`sample_coercivity` probes sublevel boundedness along rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse

from .hilbert import WeightedSpace
from .solvers import EdgeOperator, Scatter, edge_incidence

__all__ = [
    "ScalarPrimitive",
    "EnergyTerm",
    "PEdgeEnergy",
    "NodewiseIntegral",
    "QuadraticTerm",
    "TotalVariationTerm",
    "AffineIndicatorTerm",
    "ExtendedFunctional",
    "evaluate",
    "shifted_value",
    "sample_convexity",
    "sample_coercivity",
    "ConvexityReport",
    "CoercivityReport",
]

INDICATOR_TOL = 1e-9


@dataclass(frozen=True)
class ScalarPrimitive:
    """Scalar integrand ``z -> value(z)`` with derivative and curvature floor.

    ``omega`` is the smallest constant making ``z -> value(z) + omega/2 z^2``
    convex; 0 for convex integrands, the Lipschitz constant of the
    derivative's decreasing part otherwise.  ``curvature_fn`` (second
    derivative) is optional; without it the Newton Hessian weights
    difference the derivative (bundled user: ``beta_power`` with r < 2).
    """

    value_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Callable[[np.ndarray], np.ndarray]
    omega: float = 0.0
    tag: str = "custom"
    curvature_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value(self, z):
        return self.value_fn(np.asarray(z, float))

    def deriv(self, z):
        return self.deriv_fn(np.asarray(z, float))

    def curvature(self, z):
        z = np.asarray(z, float)
        if self.curvature_fn is not None:
            return self.curvature_fn(z)
        h = 1e-6
        return (self.deriv_fn(z + h) - self.deriv_fn(z - h)) / (2.0 * h)


def _normalize_edges(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=int)
    if e.size == 0:
        return e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of node indices")
    if np.any(e[:, 0] < 0):
        raise ValueError("only the second endpoint may be the ground marker -1")
    return e


class EnergyTerm:
    """Base interface; concrete terms override value/grad as appropriate."""

    kind: str = "abstract"
    smooth: bool = False
    omega_term: float = 0.0

    def value(self, u: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} term has no gradient")

    def hessian_factor(self, n: int):
        """Sparse ``B`` (``n`` rows, fixed) with Hessian ``B diag(hessian_weights(u)) B^T``."""
        raise NotImplementedError(f"{self.kind} term has no Hessian")


class _EdgeTerm(EnergyTerm):
    """A term of weighted edge differences ``u_a - u_b``; a second endpoint
    of -1 grounds the edge at the value 0 (eliminated boundary node)."""

    def __init__(self, edges, weights):
        self.edges = _normalize_edges(edges)
        self.weights = np.asarray(weights, float)
        if self.weights.shape != (self.edges.shape[0],):
            raise ValueError("edge weights must match the edge count")
        self._incidence = None

    def incidence(self, n):
        """The :class:`EdgeOperator` of the edges for ``n`` nodes, built once."""
        if self._incidence is None or self._incidence.n != n:
            self._incidence = EdgeOperator(self.edges, n)
        return self._incidence

    def diff(self, u):
        return self.incidence(u.shape[-1]).diff(u)


class PEdgeEnergy(_EdgeTerm):
    """``(1/p) sum_e w_e |u_a - u_b|^p`` over weighted edges.

    Convex for every p >= 1; smooth with a continuous gradient for p > 1.
    """

    kind = "p-edge-energy"

    def __init__(self, edges, weights, p: float):
        if p < 1:
            raise ValueError(f"edge exponent must satisfy p >= 1, got {p}")
        super().__init__(edges, weights)
        if np.any(self.weights <= 0):
            raise ValueError("edge weights must be positive")
        self.p = float(p)
        self.smooth = p > 1

    def value(self, u):
        d = self.diff(u)
        return np.add.reduce(self.weights * np.abs(d) ** self.p, -1) / self.p

    def grad(self, u):
        if not self.smooth:
            raise NotImplementedError("p = 1 edge energy is not differentiable")
        d = self.diff(u)
        return self.incidence(u.shape[-1]).adjoint(self.weights * np.abs(d) ** (self.p - 1.0) * np.sign(d))

    def hessian_factor(self, n):
        return edge_incidence(self.edges, n).T

    def hessian_weights(self, u):
        """``w_e (p - 1) |d_e|^(p-2)``, with ``|d_e|`` floored at 1e-16 below ``p = 2``."""
        d = np.abs(self.diff(u))
        if self.p < 2.0:
            d = np.maximum(d, 1e-16)
        return self.weights * (self.p - 1.0) * d ** (self.p - 2.0)


class TotalVariationTerm(_EdgeTerm):
    """Anisotropic discrete total variation ``sum_e w_e |u_a - u_b|``."""

    kind = "total-variation"
    smooth = False

    def value(self, u):
        return float(np.sum(self.weights * np.abs(self.diff(u))))


class NodewiseIntegral(EnergyTerm):
    """``sum_i w_i G(u_i)`` over a subset of nodes with measure weights."""

    kind = "nodewise-integral"
    smooth = True

    def __init__(self, nodes, weights, primitive: ScalarPrimitive):
        self.nodes = np.asarray(nodes, dtype=int)
        self.weights = np.asarray(weights, float)
        if self.weights.shape != self.nodes.shape:
            raise ValueError("node weights must match the node count")
        self.primitive = primitive
        self.omega_term = float(primitive.omega)
        self._scatter = None

    def value(self, u):
        return np.add.reduce(self.weights * self.primitive.value(u.take(self.nodes, -1)), -1)

    def grad(self, u):  # a node listed twice sums its two derivatives
        if self._scatter is None or self._scatter.size != u.shape[-1]:
            self._scatter = Scatter(self.nodes, u.shape[-1])
        return self._scatter(self.weights * self.primitive.deriv(u.take(self.nodes, -1)))

    def hessian_factor(self, n):
        cols = np.arange(self.nodes.size)
        return scipy.sparse.csc_matrix((np.ones(cols.size), (self.nodes, cols)), (n, cols.size))

    def hessian_weights(self, u):
        """The curvature at each node, clipped at zero so the Gram form stays semidefinite."""
        return self.weights * np.maximum(self.primitive.curvature(u.take(self.nodes, -1)), 0.0)


class QuadraticTerm(EnergyTerm):
    """``(1/2) u^T Q u`` for symmetric positive semidefinite Q."""

    kind = "quadratic"
    smooth = True

    def __init__(self, matrix):
        self.matrix = matrix  # dense array or scipy sparse, symmetric PSD
        self._factor = None

    def value(self, u):
        return 0.5 * np.vecdot(u, self.grad(u))

    def grad(self, u):
        return np.ascontiguousarray(np.asarray(self.matrix @ u.T, float).T)

    def hessian_factor(self, n):
        """``L`` with ``L L^T = Q`` from the eigen-decomposition of ``Q``, found once."""
        if self._factor is None:
            Q = self.matrix.toarray() if scipy.sparse.issparse(self.matrix) else np.asarray(self.matrix, float)
            lam, V = np.linalg.eigh(0.5 * (Q + Q.T))
            keep = lam > 1e-14 * np.max(np.abs(lam), initial=0.0)
            self._factor = scipy.sparse.csc_matrix(V[:, keep] * np.sqrt(lam[keep]))
        return self._factor

    def hessian_weights(self, u):
        return np.ones(u.shape[:-1] + self.hessian_factor(u.shape[-1]).shape[1:])


class AffineIndicatorTerm(EnergyTerm):
    """0 on ``{A u = b}`` and +inf elsewhere, with its Euclidean projection."""

    kind = "affine-indicator"
    smooth = False

    def __init__(self, A, b, tol: float = INDICATOR_TOL):
        self.A = np.atleast_2d(np.asarray(A, float))
        self.b = np.atleast_1d(np.asarray(b, float))
        if self.A.shape[0] != self.b.size:
            raise ValueError("affine indicator: A rows must match b")
        self.tol = float(tol)
        self._pinv = np.linalg.pinv(self.A)

    def value(self, u):
        residual = float(np.max(np.abs(self.A @ u - self.b), initial=0.0))
        return 0.0 if residual <= self.tol else math.inf

    def project(self, u):
        return u - self._pinv @ (self.A @ u - self.b)


@dataclass
class ExtendedFunctional:
    """Sum of energy terms on ``R^n`` with values in ``R + {+inf}``."""

    terms: Sequence[EnergyTerm]
    dim: int

    def value(self, u) -> float:
        u = np.asarray(u, float)
        if u.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got shape {u.shape}")
        total = 0.0
        for t in self.terms:
            v = t.value(u)
            if math.isinf(v):
                return math.inf
            total += v
        return total

    # --- structural splits used by the solvers ---------------------------

    @property
    def smooth_terms(self):
        return [t for t in self.terms if t.smooth]

    @property
    def nonsmooth_terms(self):
        return [t for t in self.terms if not t.smooth]

    @property
    def indicator_terms(self):
        return [t for t in self.terms if isinstance(t, AffineIndicatorTerm)]

    @property
    def tv_terms(self):
        return [
            t
            for t in self.terms
            if isinstance(t, TotalVariationTerm) or (isinstance(t, PEdgeEnergy) and not t.smooth)
        ]

    def smooth_value(self, u):
        """The smooth terms' value, one per sample row of ``u``."""
        return sum((t.value(u) for t in self.smooth_terms), np.zeros(np.shape(u)[:-1]))

    def smooth_grad(self, u) -> np.ndarray:
        g = np.zeros(np.shape(u))
        for t in self.smooth_terms:
            g += t.grad(u)
        return g

    @property
    def omega_total(self) -> float:
        return float(sum(t.omega_term for t in self.terms))

    def hessian_factor(self):
        """``B`` with smooth-part Hessian ``B diag(hessian_weights(u)) B^T``, the terms' side by side."""
        factors = [t.hessian_factor(self.dim) for t in self.smooth_terms]
        return scipy.sparse.hstack([scipy.sparse.csc_matrix((self.dim, 0))] + factors, format="csc")

    def hessian_weights(self, u) -> np.ndarray:
        weights = [t.hessian_weights(u) for t in self.smooth_terms]
        return np.concatenate([np.zeros(np.shape(u)[:-1] + (0,))] + weights, -1)

    def finite_point(self) -> np.ndarray:
        """A point of the effective domain (indicator-feasible if possible):
        the origin, else the first of 32 seeded Gaussian points, projected."""
        rng = np.random.default_rng(0)
        for x in [np.zeros(self.dim)] + [rng.normal(size=self.dim) for _ in range(32)]:
            for ind in self.indicator_terms:
                x = ind.project(x)
            if math.isfinite(self.value(x)):
                return x
        raise ValueError("no point of the effective domain found")


def evaluate(E: ExtendedFunctional, u_hat) -> float:
    """Extended-real value of the composite energy."""
    return E.value(u_hat)


def shifted_value(E: ExtendedFunctional, jmat, space: WeightedSpace, omega: float, u_hat) -> float:
    """``E(u) + omega/2 * || j u ||^2`` in the weighted image norm."""
    u_hat = np.asarray(u_hat, float)
    base = E.value(u_hat)
    if math.isinf(base):
        return base
    ju = np.asarray(jmat @ u_hat, float) if jmat is not None else u_hat
    return base + 0.5 * omega * space.inner(ju, ju)


@dataclass(frozen=True)
class ConvexityReport:
    max_violation: float
    witness: Optional[tuple]
    trials: int


@dataclass(frozen=True)
class CoercivityReport:
    bounded: bool
    radii: dict


def sample_convexity(
    F: Callable[[np.ndarray], float],
    dim: int,
    trials: int = 200,
    seed: int = 0,
    center=None,
    radius: float = 10.0,
) -> ConvexityReport:
    """Largest sampled violation of ``F(t u + (1-t) v) <= t F(u) + (1-t) F(v)``.

    A nonpositive report certifies convexity only on the sample.  Pairs
    with an infinite endpoint are skipped; if every sample is infinite
    the domain was not found and an error is raised.
    """
    rng = np.random.default_rng(seed)
    if center is None:
        center = np.zeros(dim)
    center = np.asarray(center, float)
    worst = -math.inf
    witness = None
    evaluated = 0
    for _ in range(trials):
        u = center + radius * rng.uniform(-1.0, 1.0, size=dim)
        v = center + radius * rng.uniform(-1.0, 1.0, size=dim)
        fu, fv = F(u), F(v)
        if math.isinf(fu) or math.isinf(fv):
            continue
        evaluated += 1
        for th in (0.25, 0.5, 0.75):
            gap = F(th * u + (1.0 - th) * v) - th * fu - (1.0 - th) * fv
            if gap > worst:
                worst = gap
                witness = (u.copy(), v.copy(), th)
    if evaluated == 0:
        raise ValueError("sample_convexity: no finite samples (domain not found)")
    return ConvexityReport(max_violation=float(worst), witness=witness, trials=evaluated)


def sample_coercivity(
    F: Callable[[np.ndarray], float],
    levels: Sequence[float] = (1.0, 10.0),
    trials: int = 32,
    seed: int = 0,
    center=None,
    dim: Optional[int] = None,
) -> CoercivityReport:
    """Ray probes of the sublevels of ``F`` (a shifted energy, for a pair).

    For each level the report records the largest radius along random
    unit rays from a domain point at which ``F`` stays below the level;
    ``bounded`` is True when every probe exits before 1e3.
    """
    rng = np.random.default_rng(seed)
    if center is None:
        if dim is None:
            raise ValueError("sample_coercivity: pass center or dim")
        center = np.zeros(dim)
    center = np.asarray(center, float)
    n = center.size

    radii = {}
    bounded = True
    for c in levels:
        level_radius = 0.0
        for _ in range(trials):
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            r_in, r_out = 0.0, None
            r = 1.0
            while r <= 1e3:
                if F(center + r * d) > c:
                    r_out = r
                    break
                r_in = r
                r *= 2.0
            if r_out is None:
                bounded = False
                level_radius = math.inf
                continue
            for _ in range(60):
                mid = 0.5 * (r_in + r_out)
                if F(center + mid * d) > c:
                    r_out = mid
                else:
                    r_in = mid
            level_radius = max(level_radius, r_in)
        radii[float(c)] = level_radius
    return CoercivityReport(bounded=bounded, radii=radii)
