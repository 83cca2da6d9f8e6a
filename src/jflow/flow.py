"""Resolvents and the implicit-Euler orbit of a lifted gradient flow.

One backward step from data ``g`` with step ``lam`` minimizes

    E(v) + 1/(2 lam) || j v - g ||_H^2

over the source space: the fiber problem of :func:`pairs.lifted_value`
plus a data term, solved by the same slice solve
(:func:`pairs._solve_slice`).  The step output is the image ``u = j v``
and the operator sample ``f = (g - u) / lam``.  Because the quadratic part is
constant on fibers, the minimizer is automatically an elliptic
extension of ``u``, so each step also yields the lifted energy for
free.  Chaining steps with a fixed ``tau`` produces the discrete
semigroup orbit; no claims are made about distance to the exact flow,
only about dissipation, contraction and the operator samples that the
checkers consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import PEdgeEnergy
from .pairs import JEllipticPair, SliceError, _solve_slice, fibers, lifted_values

__all__ = [
    "ResolventResult",
    "Trajectory",
    "EvolveError",
    "resolvent",
    "evolve",
    "semigroup_distance",
    "cyclic_monotonicity_gap",
]

_FALLBACK_TOL = 1e-8
_SUBQUADRATIC_TOL = 1e-7  # float floor: edge gradients scale like |d|^(p-1), p < 2


def _effective_tol(E, tol):
    if tol is not None:
        return tol
    if any(isinstance(t, PEdgeEnergy) and 1.0 < t.p < 2.0 for t in E.smooth_terms):
        return _SUBQUADRATIC_TOL
    return _FALLBACK_TOL


@dataclass
class ResolventResult:
    u: np.ndarray
    u_hat: np.ndarray
    f: np.ndarray
    residual: float
    iterations: int = 0


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (steps + 1, space dim)
    energies: Optional[np.ndarray]
    step_residuals: np.ndarray
    extensions: Optional[np.ndarray] = field(default=None, repr=False)


class EvolveError(RuntimeError):
    """Raised when a step fails; carries the orbit computed so far, ``orbit`` its row of a batch."""

    def __init__(self, message, partial: Trajectory, orbit: int = 0):
        super().__init__(message)
        self.partial, self.orbit = partial, orbit


def resolvent(
    pair: JEllipticPair,
    lam,
    g,
    tol: Optional[float] = None,
    start=None,
):
    """One backward step: minimize the energy plus the proximal data term.

    The step is solved by :func:`pairs._solve_slice` over the null-space
    coordinates of the indicator constraints (:attr:`JEllipticPair.step_slice`),
    or all coordinates without them: banded Newton for smooth energies,
    rescued by Newton on the lagged-diffusivity majorant where edge powers
    below two stall it, and exact plateau-polished solvers for total
    variation.  The residual is the measured certificate of that solve; a
    step that misses ``tol`` raises.  ``g`` of shape ``(S, m)`` takes S
    steps as one batch, ``lam`` one step or one per row and ``start``
    that of every row, and returns a list of S results.

    Requires ``lam < 1/omega`` for shifted-convex pairs so that the step
    objective stays convex (strongly convex along data directions).
    """
    g = np.asarray(g, float)
    lams = np.broadcast_to(np.asarray(lam, float), g.shape[:-1])
    if np.any(lams <= 0):
        raise ValueError("resolvent step must be positive")
    if pair.omega > 0 and np.any(lams >= 1.0 / pair.omega):
        raise ValueError(
            f"resolvent step too large: lam = {float(np.max(lams)):g} >= 1/omega = {1.0 / pair.omega:g}"
        )
    G, lams = np.reshape(g, (-1, g.shape[-1])), lams.reshape(-1)
    pair.space.check_dim(*G)
    x0, Z = pair.step_slice
    res = _solve_slice(pair, np.broadcast_to(x0, (len(G), x0.size)), Z, _effective_tol(pair.E, tol), [start] * len(G),
                       data=(lams, G))
    U = pair.j.apply(res.x)
    steps = [ResolventResult(u=u, u_hat=x, f=(h - u) / step, residual=float(r), iterations=res.iterations)
             for u, x, h, step, r in zip(U, res.x, G, lams, res.residual)]
    return steps if g.ndim == 2 else steps[0]


def evolve(
    pair: JEllipticPair,
    u0,
    T: float,
    tau: float,
    project_initial: bool = False,
    tol: Optional[float] = None,
    record_energies=True,
    keep_extensions: bool = False,
):
    """Implicit-Euler orbit ``u_{k+1} = (backward step of size tau)(u_k)``.

    ``u0`` of shape ``(S, m)`` holds S initial data: their orbits advance
    as one batch, each step one slice solve of S samples, and a list of S
    trajectories is returned, each bitwise the orbit of its datum alone.
    The initial data must lie in the image of the effective domain
    (:func:`pairs.fibers`); with ``project_initial`` one that does not is
    first projected onto that affine set.  The fiber above an initial datum
    is solved only when its value or minimizer is kept (``record_energies``,
    one flag for all orbits or one per orbit, and ``keep_extensions``), the
    kept ones as one batch (:func:`pairs.lifted_values`, whose
    :class:`pairs.SliceError` names the orbit's row), and the first step
    then starts from that minimizer; otherwise as :func:`resolvent` does
    without ``start``.  A failed step raises :class:`EvolveError` with the
    partial trajectory of the orbit its :class:`pairs.SliceError` names
    (row 0 for an error of the whole batch).  For shifted-convex pairs the
    step must satisfy ``tau <= 0.9/omega`` so every step objective stays
    strongly convex on data directions.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if T < tau:
        raise ValueError("T must be at least one step")
    if pair.omega > 0 and tau > 0.9 / pair.omega:
        raise ValueError(f"step tau = {tau:g} exceeds 0.9/omega = {0.9 / pair.omega:g}")
    U = np.array(u0, float, ndmin=2)
    pair.space.check_dim(*U)
    S, record = len(U), np.broadcast_to(record_energies, len(U))
    kept, lifted_tol = record | keep_extensions, tol if tol is not None else _FALLBACK_TOL
    empty = fibers(pair, U)[2]
    if empty.any() and not project_initial:
        raise ValueError("initial datum is outside the image of the effective domain")
    for s in np.flatnonzero(empty):
        U[s] = _project_onto_image(pair, U[s])
    first, rows = [None] * S, np.flatnonzero(kept)
    try:
        for s, fiber in zip(rows, lifted_values(pair, U[rows], lifted_tol) if rows.size else []):
            first[s] = fiber
    except SliceError as exc:
        exc.sample = int(rows[exc.sample])  # the orbit's row of U
        raise

    steps = int(math.ceil(T / tau - 1e-12))
    times = tau * np.arange(steps + 1)
    states, extensions = np.empty((S, steps + 1, pair.space.dim)), np.empty((S, steps + 1, pair.E.dim))
    residuals, energies = np.zeros((S, steps + 1)), np.full((S, steps + 1), np.nan)
    states[:, 0] = U
    energies[record, 0] = [f.value for f, r in zip(first, record) if r]
    warm = [f and f.minimizer for f in first]
    if keep_extensions:
        extensions[:, 0] = warm
    x0, Z = pair.step_slice
    x0, tol = np.broadcast_to(x0, (S, x0.size)), _effective_tol(pair.E, tol)
    for k in range(steps):
        try:
            step = _solve_slice(pair, x0, Z, tol, warm, data=(tau, states[:, k]))
        except Exception as exc:  # noqa: BLE001 - re-raised with the partial orbit
            s = exc.sample if isinstance(exc, SliceError) else 0
            partial = Trajectory(times[: k + 1], states[s, : k + 1].copy(),
                                 energies[s, : k + 1].copy() if record[s] else None, residuals[s, : k + 1].copy())
            raise EvolveError(f"step {k + 1} failed: {exc}", partial, s) from exc
        states[:, k + 1], residuals[:, k + 1], extensions[:, k + 1] = pair.j.apply(step.x), step.residual, step.x
        # a step minimizer is already an elliptic extension of its image
        energies[record, k + 1] = [pair.E.value(x) for x in step.x[record]]
        warm = step.x
    orbits = [Trajectory(times, states[s], energies[s] if record[s] else None, residuals[s],
                         extensions[s] if keep_extensions else None) for s in range(S)]
    return orbits if np.ndim(u0) == 2 else orbits[0]


def _project_onto_image(pair, u0):
    """Weighted projection of the datum onto the image of the affine set
    of the indicator constraints (:attr:`JEllipticPair.step_slice`)."""
    x0, Z = pair.step_slice
    N = np.eye(pair.E.dim)[:, Z] if Z.ndim == 1 else Z
    # minimize || j(x0 + N w) - u0 ||_W
    sw = np.sqrt(pair.space.weights)
    w, *_ = np.linalg.lstsq(sw[:, None] * (pair.j.matrix @ N), sw * (u0 - pair.j.apply(x0)), rcond=None)
    return pair.j.apply(x0 + N @ w)


def semigroup_distance(pair: JEllipticPair, u0, v0, T: float, tau: float, tol=None) -> np.ndarray:
    """Weighted distances between two orbits at every grid time."""
    a, b = evolve(pair, np.array([u0, v0], float), T, tau, tol=tol, record_energies=False)
    diff = a.states - b.states
    return np.sqrt(np.maximum((diff * diff) @ pair.space.weights, 0.0))


def cyclic_monotonicity_gap(space, op_pairs, n_cycles: int = 100, max_len: int = 6, seed: int = 0) -> float:
    """Smallest cycle sum ``sum_i <f_i, u_i - u_{i-1}>`` over random cycles.

    Nonnegative (up to tolerance) cycle sums over operator samples are
    the defining inequality of cyclically monotone graphs.
    """
    if len(op_pairs) < 2:
        raise ValueError("need at least two operator samples")
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(n_cycles):
        k = int(rng.integers(2, max_len + 1))
        idx = rng.choice(len(op_pairs), size=min(k, len(op_pairs)), replace=False)
        us = [np.asarray(op_pairs[i][0], float) for i in idx]
        fs = [np.asarray(op_pairs[i][1], float) for i in idx]
        total = 0.0
        for i in range(len(idx)):
            total += space.inner(fs[i], us[i] - us[i - 1])
        worst = min(worst, total)
    return float(worst)
