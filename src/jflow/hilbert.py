"""Weighted finite-dimensional Hilbert lattice.

A measure space with finitely many atoms is modelled by a vector of
strictly positive node weights.  The weighted inner product, the Lq
norms and the Luxemburg-type norms built from convex gauge functions all
live here, together with projection oracles for the closed convex sets
used by the invariance and comparison checkers.  The lattice operations
are NumPy's componentwise ``minimum`` and ``maximum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "WeightedSpace",
    "NFunction",
    "ConvexSetOracle",
    "lq_norm",
    "orlicz_norm",
    "power",
    "huber",
    "threshold_excess",
    "positive_cone",
    "box",
    "order_cone",
    "affine_subspace",
    "custom_oracle",
]


@dataclass(frozen=True)
class WeightedSpace:
    """Finite weighted node set: ``<u, v> = sum_i weights[i] u[i] v[i]``.

    Weights carry the measure of each node (cell volumes, boundary
    areas); they must be strictly positive so the inner product is
    positive definite.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    def check_dim(self, *vectors):
        for v in vectors:
            if np.asarray(v).shape != (self.dim,):
                raise ValueError(
                    f"vector of shape {np.shape(v)} does not match space dimension {self.dim}"
                )

    def inner(self, u, v) -> float:
        self.check_dim(u, v)
        return float(np.dot(self.weights, np.asarray(u, float) * np.asarray(v, float)))  # symmetric in u, v

    def norm(self, u) -> float:
        """Weighted norm, rescaled by the largest modulus before squaring
        (as ``hypot`` does), so it is positive for every nonzero vector
        even where the squared norm underflows."""
        self.check_dim(u)
        u = np.asarray(u, float)
        scale = float(np.max(np.abs(u)))
        if not 0.0 < scale < np.inf:
            return scale
        v = u / scale
        return scale * float(np.sqrt(np.dot(self.weights * v, v)))


def lq_norm(space: WeightedSpace, u, q: float) -> float:
    """Weighted q-norm; ``q = inf`` is the unweighted max modulus."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    space.check_dim(u)
    u = np.asarray(u, float)
    if np.isinf(q):
        return float(np.max(np.abs(u))) if u.size else 0.0
    return float(np.sum(space.weights * np.abs(u) ** q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# gauge functions and the Luxemburg-type norm


@dataclass(frozen=True)
class NFunction:
    """Convex gauge ``psi : [0, inf) -> [0, inf)`` with ``psi(0) = 0``.

    ``n_function`` marks gauges that are superlinear at infinity and
    sublinear at zero; members of the wider class (e.g. huber or
    ``(s - k)^+``) set it to False and skip the limit checks in
    :meth:`validate`.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    tag: str = "custom"
    n_function: bool = True

    def __call__(self, s):
        return self.evaluator(np.asarray(s, float))

    def validate(self):
        """Sampled sanity checks: psi(0)=0, midpoint convexity, limits."""
        if abs(float(self(0.0))) > 1e-12:
            raise ValueError(f"{self.tag}: psi(0) != 0")
        grid = np.concatenate([np.linspace(0, 10, 41), np.geomspace(1e-4, 1e4, 25)])
        a, b = np.meshgrid(grid, grid)
        mid = self((a + b) / 2.0) - 0.5 * (self(a) + self(b))
        if np.max(mid) > 1e-9 * (1.0 + np.max(np.abs(self(grid)))):
            raise ValueError(f"{self.tag}: midpoint convexity violated")
        if self.n_function:
            s0, s1 = 1e-6, 1e6
            if float(self(s0)) / s0 > 1e-3:
                raise ValueError(f"{self.tag}: psi(s)/s does not vanish near 0")
            if float(self(s1)) / s1 < 1e3:
                raise ValueError(f"{self.tag}: psi(s)/s does not blow up at infinity")
        return True


def power(q: float) -> NFunction:
    """``psi(s) = s**q``; an N-function for q > 1."""
    if q < 1:
        raise ValueError("power gauge needs q >= 1")
    return NFunction(lambda s: np.abs(s) ** q, tag=f"power({q})", n_function=q > 1)


def huber(delta: float) -> NFunction:
    """Quadratic below ``delta``, affine above; linear growth at infinity."""
    d = float(delta)

    def _val(s):
        s = np.abs(s)
        return np.where(s <= d, 0.5 * s**2, d * (s - 0.5 * d))

    return NFunction(_val, tag=f"huber({delta})", n_function=False)


def threshold_excess(k: float) -> NFunction:
    """``psi(s) = (|s| - k)^+``; vanishes on [0, k], slope one after."""
    kk = float(k)
    return NFunction(lambda s: np.maximum(np.abs(s) - kk, 0.0), tag=f"excess({k})", n_function=False)


def orlicz_norm(space: WeightedSpace, u, psi: NFunction, tol: float = 1e-10) -> float:
    """Luxemburg norm ``inf { a > 0 : sum_i w_i psi(|u_i| / a) <= 1 }``.

    Computed by geometric bracketing followed by bisection to relative
    tolerance ``tol``; the modular at the returned value is <= 1 and
    within ``tol`` of 1 (relative bracket width).
    """
    space.check_dim(u)
    u = np.abs(np.asarray(u, float))
    if not np.any(u > 0):
        return 0.0

    def modular(a):
        return float(np.sum(space.weights * psi(u / a)))

    hi = max(float(np.max(u)), 1.0)
    lo = hi
    # expand geometrically until the modular straddles 1
    for _ in range(200):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise ValueError("orlicz_norm: could not bracket (psi grows too slowly)")
    for _ in range(200):
        if modular(lo) > 1.0:
            break
        lo /= 2.0
    else:
        raise ValueError("orlicz_norm: could not bracket (psi degenerate near 0)")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# projection oracles


@dataclass(frozen=True)
class ConvexSetOracle:
    """Closed convex set given by its exact metric projection."""

    kind: str
    project_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def project(self, u) -> np.ndarray:
        return np.asarray(self.project_fn(np.asarray(u, float)), float)

    def contains(self, u, tol: float = 1e-10) -> bool:
        u = np.asarray(u, float)
        return float(np.max(np.abs(self.project(u) - u), initial=0.0)) <= tol

    def validate(self, space: WeightedSpace, trials: int = 100, seed: int = 0, tol: float = 1e-10):
        """Sampled idempotence and 1-Lipschitz continuity in the weighted norm."""
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            u = rng.normal(size=space.dim) * rng.choice([0.1, 1.0, 10.0])
            v = rng.normal(size=space.dim) * rng.choice([0.1, 1.0, 10.0])
            pu, pv = self.project(u), self.project(v)
            if space.norm(self.project(pu) - pu) > tol * (1.0 + space.norm(pu)):
                raise ValueError(f"{self.kind}: projection is not idempotent")
            if space.norm(pu - pv) > space.norm(u - v) + tol:
                raise ValueError(f"{self.kind}: projection is not 1-Lipschitz")
        return True


def positive_cone() -> ConvexSetOracle:
    """Nonnegative orthant; the projection is the positive part ``u^+``."""
    return ConvexSetOracle("positive-cone", lambda u: np.maximum(u, 0.0))


def box(lo, hi) -> ConvexSetOracle:
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if np.any(lo > hi):
        raise ValueError("box: lo must be <= hi")
    return ConvexSetOracle("box", lambda u: np.clip(u, lo, hi))


def order_cone(weights_first, weights_second=None) -> ConvexSetOracle:
    """Ordered pairs ``{(x, y) : x <= y}`` in a product of weighted spaces.

    Operates on stacked vectors of length 2m.  Where the order is
    violated both components collapse to the weighted midpoint
    ``(w1 x + w2 y) / (w1 + w2)``; the naive (meet, join) map is *not*
    the metric projection.
    """
    w1 = np.asarray(weights_first, float)
    w2 = w1 if weights_second is None else np.asarray(weights_second, float)
    if w1.shape != w2.shape:
        raise ValueError("order_cone: component weight shapes differ")
    m = w1.size

    def _proj(z):
        if z.shape != (2 * m,):
            raise ValueError(f"order_cone expects stacked vectors of length {2 * m}")
        x, y = z[:m].copy(), z[m:].copy()
        bad = x > y
        mid = (w1[bad] * x[bad] + w2[bad] * y[bad]) / (w1[bad] + w2[bad])
        x[bad] = mid
        y[bad] = mid
        return np.concatenate([x, y])

    return ConvexSetOracle("order-cone", _proj)


def affine_subspace(A, b, space: WeightedSpace) -> ConvexSetOracle:
    """Affine set ``{u : A u = b}``, projected in the weighted metric."""
    A = np.atleast_2d(np.asarray(A, float))
    b = np.atleast_1d(np.asarray(b, float))
    if A.shape[1] != space.dim or A.shape[0] != b.size:
        raise ValueError("affine_subspace: shape mismatch")
    Winv_At = A.T / space.weights[:, None]
    gram_inv = np.linalg.pinv(A @ Winv_At)

    def _proj(u):
        return u - Winv_At @ (gram_inv @ (A @ u - b))

    return ConvexSetOracle("affine-subspace", _proj)


def custom_oracle(project_fn, space: WeightedSpace) -> ConvexSetOracle:
    """Wrap a user projection map; rejects maps that fail sampled idempotence."""
    oracle = ConvexSetOracle("custom", project_fn)
    oracle.validate(space)
    return oracle
