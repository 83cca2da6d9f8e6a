"""Executable checkers for invariance, comparison, domination and
contractivity of the discrete flows.

Every checker probes two layers and reports both: the functional-level
inequality on the lifted energy (sampled on data-space points) and the
dynamic behaviour of implicit-Euler orbits.  The two verdicts are kept
as separate sub-checks with their own tolerances (``FUNCTIONAL_TOL`` for
gaps of lifted values, each solved to ``LIFTED_TOL``; ``DYNAMIC_TOL`` for
steps and orbits); a report passes when every sub-check passes, and the
headline violation/tolerance pair is the sub-check with the worst
violation-to-tolerance ratio, so the ``passed == (max_violation <=
tolerance)`` invariant always holds.

Equivalences are never used to shortcut: each side of a theorem-style
equivalence is tested independently and disagreement is surfaced, since
at desk scale a disagreement beyond tolerance indicates a bug, not
mathematics.  :func:`consistency` reads disagreements off finished
reports: the two layers of one report, and the Bénilan–Crandall
implication among the order, sup-norm and complete reports of one pair.
``jflow check`` writes its entries to ``report.json``.

Every sample runs on one core (:class:`_Sampler`): lifted-energy gaps
among a few related points, and implicit-Euler orbits.  A sample whose
start lies outside the image of ``j`` (an infinite lifted value, or an
empty fiber under an orbit start) is skipped and counted.  Each checker
has two phases: ``plan_<name>`` draws the samples and queues their
requests, and returns the stages that finish the report from the results;
``check_<name>`` plans, settles and finishes.  :func:`run_plans` settles
several plans at once (``jflow check`` runs every suite of one call
through it): one batch of lifted values per pair and one batch of orbits
per pair and step.  Each lifted value and orbit is solved once per
``memo``, a dict that callers may share.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .flow import evolve, resolvent
from .hilbert import ConvexSetOracle, NFunction, WeightedSpace, huber, order_cone, positive_cone, power, threshold_excess
from .pairs import JEllipticPair, _fiber_coordinates, lifted_values, subgradient_residual

__all__ = [
    "PropertyReport",
    "check_invariance",
    "check_relative_invariance",
    "check_comparison",
    "check_order_preserving",
    "check_domination",
    "check_linf_contractivity",
    "check_complete_contractivity",
    "check_psi_accretive",
    "consistency",
    "default_j0_family",
    "plan_comparison",
    "plan_complete_contractivity",
    "plan_domination",
    "plan_invariance",
    "plan_linf_contractivity",
    "plan_order_preserving",
    "plan_psi_accretive",
    "plan_relative_invariance",
    "run_plans",
    "integral_functional",
    "l1_functional",
    "sample_states",
]

FUNCTIONAL_TOL = 1e-8
DYNAMIC_TOL = 1e-6
LIFTED_TOL = 1e-7


@dataclass
class PropertyReport:
    name: str
    passed: bool
    max_violation: float
    witness: Optional[dict]
    trials: int
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def clean(x):  # to JSON types; a non-finite float (a part with no trials) becomes None
            if isinstance(x, np.ndarray):
                return clean(x.tolist())
            if isinstance(x, (np.floating, np.integer)):
                x = x.item()
            if isinstance(x, float) and not math.isfinite(x):
                return None
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            return x

        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_violation": clean(float(self.max_violation)),
            "witness": clean(self.witness),
            "trials": int(self.trials),
            "tolerance": float(self.tolerance),
            "details": clean(self.details),
        }


def _assemble(name: str, parts: list, trials: int, skipped: Optional[int] = None) -> PropertyReport:
    """Fold sub-checks into one report keyed by worst violation ratio;
    a ``skipped`` count goes into the details."""
    live = [p for p in parts if p.get("trials", 1) > 0]
    if not live:
        raise ValueError(f"{name}: no evaluable samples")
    worst = max(live, key=lambda p: p["violation"] / p["tolerance"])
    passed = all(p["violation"] <= p["tolerance"] for p in live)
    details = {p["part"]: {k: v for k, v in p.items() if k != "part"} for p in parts}
    if skipped is not None:
        details["skipped"] = skipped
    return PropertyReport(
        name=name,
        passed=passed,
        max_violation=float(worst["violation"]),
        witness=worst.get("witness"),
        trials=trials,
        tolerance=float(worst["tolerance"]),
        details=details,
    )


def sample_states(pair: JEllipticPair, count: int, rng, scale: float = 1.0) -> np.ndarray:
    """Data-space samples: images of Gaussian source vectors repaired
    into the effective domain (indicator constraints projected out)."""
    out = np.empty((count, pair.space.dim))
    for k in range(count):
        v = scale * rng.normal(size=pair.E.dim)
        for ind in pair.E.indicator_terms:
            v = ind.project(v)
        out[k] = pair.j.apply(v)
    return out


def _max_part(part_name, tolerance):
    return {"part": part_name, "violation": -math.inf, "tolerance": tolerance, "witness": None, "trials": 0}


def _bump(part, violation, witness):
    part["trials"] += 1
    if violation > part["violation"]:
        part["violation"] = violation
        part["witness"] = witness


def _stays_in(part, space, C, witness):
    """The use of one orbit: bump ``part`` by the distance of each state from ``C``."""

    def use(orbits):
        for state in orbits[0]:
            _bump(part, space.norm(state - C.project(state)), witness)

    return use


class _Sampler:
    """The requests of one checker stage: lifted-energy gaps and
    implicit-Euler orbits of step ``tau`` up to ``T``, each with the use of
    its results, counting skipped samples.  A plan queues its requests;
    :func:`_settle` solves them, together with those of other samplers, and
    keeps each result in ``memo`` under its pair and point, and the step for
    an orbit."""

    def __init__(self, T, tau, memo=None):
        self.T, self.tau = T, tau
        self.memo = {} if memo is None else memo
        self.skipped = 0
        self.pending = []  # (kind, (pair, point) requests, the use of their results)

    def _key(self, kind, pair, u):
        return (id(pair), u.tobytes()) if kind == "lifted" else (id(pair), u.tobytes(), self.T, self.tau)

    def settle(self):
        """Solve this sampler's pending requests on their own (:func:`_settle`)."""
        _settle([self])

    def gap(self, part, plus, minus, witness):
        """Bump ``part``, once settled, by the lifted values at the ``(pair,
        point)`` entries of ``plus`` less those of ``minus``, summed in order
        (the lattice inequalities ``L_A(a) + L_B(b) - L_A(c) - L_B(d) <= 0``);
        a sample with an infinite value is skipped."""

        def use(vals):
            if any(math.isinf(v) for v in vals):
                self.skipped += 1
                return
            total = sum(vals[: len(plus)])
            for v in vals[len(plus) :]:
                total -= v
            _bump(part, total, witness)

        self.pending.append(("lifted", [*plus, *minus], use))

    def skip(self, *starts):
        """Whether a sample is skipped: one of its ``(pair, u)`` starts has an
        empty fiber, which needs no solve."""
        if any(_fiber_coordinates(pair, u)[0] is None for pair, u in starts):
            self.skipped += 1
            return True
        return False

    def orbits(self, starts, use):
        """Hand ``use``, once settled, the states of the orbits from the
        ``(pair, u0)`` starts, unless the sample is skipped."""
        if not self.skip(*starts):
            self.pending.append(("orbit", starts, use))

    def contraction(self, pair, u, v, gauges, first=1):
        """Evolve from ``u`` and ``v`` and bump the part of each ``(part,
        gauge, witness)`` entry of ``gauges`` by ``gauge(a_k - b_k) - gauge(u - v)``
        at every step ``k >= first`` of the two orbits ``a, b``."""

        def use(orbits):
            a, b = orbits
            for part, gauge, extra in gauges:
                bound = gauge(u - v)
                for k in range(first, a.shape[0]):
                    _bump(part, gauge(a[k] - b[k]) - bound, {"u0": u, "v0": v, **extra, "step": k})

        self.orbits([(pair, u), (pair, v)], use)


def _settle(samplers):
    """Solve the pending requests of ``samplers`` that their memos lack: one
    :func:`lifted_values` batch per pair (to ``LIFTED_TOL``) and one
    :func:`evolve` batch per pair, ``T`` and ``tau``, each point once.  Each
    result goes into every sampler's memo; then each sampler hands its uses
    their results, in the order of its requests.  A batch that raises leaves
    every request pending and the results of the batches before it in the
    memos."""
    batches = {}
    for s in samplers:
        for kind, requests, _ in s.pending:
            for pair, u in requests:
                key = s._key(kind, pair, u)
                if key not in s.memo:  # the entry holds its pair, whose id stays unique while the memo lives
                    batch = (kind, id(pair)) if kind == "lifted" else (kind, id(pair), s.T, s.tau)
                    batches.setdefault(batch, (pair, s, {}))[2][key] = u
    memos = {id(s.memo): s.memo for s in samplers}.values()
    for (kind, *_), (pair, s, points) in batches.items():
        U = np.array(list(points.values()))
        if kind == "lifted":
            results = [r.value for r in lifted_values(pair, U, LIFTED_TOL)]
        else:
            results = [t.states for t in evolve(pair, U, s.T, s.tau, record_energies=False)]
        for memo in memos:
            memo.update((key, (pair, r)) for key, r in zip(points, results))
    for s in samplers:
        pending, s.pending = s.pending, []
        for kind, requests, use in pending:
            use([s.memo[s._key(kind, pair, u)][1] for pair, u in requests])


def run_plans(plans):
    """Settle the samplers of every plan together (:func:`_settle`), then
    finish the stages of each plan in order and yield its report (the value
    of its last stage).

    A plan is a list of stages ``(sampler, finish)``: the plan phase of a
    checker queues its requests on the sampler, and ``finish()`` reads the
    results, assembles the report or raises.  Where the joint settle
    raises, each stage is settled on its own right before it finishes, so
    that a failure surfaces where, and as, checking stage by stage meets it.
    """
    samplers = [s for plan in plans for s, _ in plan]
    joint = True
    try:
        _settle(samplers)
    except (RuntimeError, ValueError):  # a solver failure: met again below, in stage order
        if len(samplers) == 1:
            raise
        joint = False
    for plan in plans:
        for s, finish in plan:
            if not joint:
                s.settle()
            report = finish()
        yield report


def _checker(plan):
    """The public checker of ``plan``: plan, settle and finish."""

    @functools.wraps(plan)
    def check(*args, **kwargs):
        return next(run_plans([plan(*args, **kwargs)]))

    check.__name__ = check.__qualname__ = "check" + plan.__name__[len("plan") :]
    check.__signature__ = inspect.signature(plan).replace(return_annotation="PropertyReport")
    return check


# ---------------------------------------------------------------------------
# invariance of closed convex sets


def plan_invariance(
    pair: JEllipticPair,
    C: ConvexSetOracle,
    samples: int = 50,
    T: float = 1.0,
    tau: float = 0.05,
    seed: int = 0,
    tol_fun: float = FUNCTIONAL_TOL,
    tol_dyn: float = DYNAMIC_TOL,
    resolvent_samples: int = 10,
    dynamic_samples: int = 5,
    memo: Optional[dict] = None,
) -> list:
    """Invariance of a closed convex set under the flow.

    Functional side: projecting onto the set never raises the lifted
    energy.  Dynamic side: backward steps and whole orbits started in
    the set stay in it.
    """
    rng = np.random.default_rng(seed)
    us = sample_states(pair, samples, rng)
    s = _Sampler(T, tau, memo)
    fun = _max_part("functional", tol_fun)
    for u in us:
        s.gap(fun, [(pair, C.project(u))], [(pair, u)], {"u": u})

    res_part = _max_part("resolvent", tol_dyn)
    lams = [lam for lam in (0.1, 1.0) if not (pair.omega > 0 and lam >= 1.0 / pair.omega)]
    cus = [C.project(u) for u in us[:resolvent_samples]]
    steps = [(cu, lam) for cu in cus if not s.skip((pair, cu)) for lam in lams]  # one batch
    if steps:
        done = resolvent(pair, [lam for _, lam in steps], np.array([cu for cu, _ in steps]))
        for (cu, lam), step in zip(steps, done):
            _bump(res_part, pair.space.norm(step.u - C.project(step.u)), {"u": cu, "lambda": lam})

    dyn = _max_part("orbit", tol_dyn)
    for u in us[:dynamic_samples]:
        cu = C.project(u)
        s.orbits([(pair, cu)], _stays_in(dyn, pair.space, C, {"u0": cu}))

    return [(s, lambda: _assemble(f"invariance[{C.kind}]", [fun, res_part, dyn], samples, s.skipped))]


check_invariance = _checker(plan_invariance)


def plan_relative_invariance(
    pair: JEllipticPair,
    C1: ConvexSetOracle,
    C2: ConvexSetOracle,
    samples: int = 50,
    T: float = 1.0,
    tau: float = 0.05,
    seed: int = 0,
    tol_fun: float = FUNCTIONAL_TOL,
    tol_dyn: float = DYNAMIC_TOL,
    dynamic_samples: int = 5,
) -> list:
    """Orbits started in ``C1`` stay in ``C2`` when projection onto
    ``C2`` maps ``C1`` into itself (checked first; failure is an error,
    not a property violation)."""
    rng = np.random.default_rng(seed)
    us = sample_states(pair, samples, rng)
    for u in us:
        x = C1.project(u)
        px = C2.project(x)
        if pair.space.norm(px - C1.project(px)) > 1e-9 * (1.0 + pair.space.norm(px)):
            raise ValueError("compatibility precondition fails: projection onto C2 leaves C1")

    s = _Sampler(T, tau)
    fun = _max_part("functional", tol_fun)
    for u in us:
        x = C1.project(u)
        s.gap(fun, [(pair, C2.project(x))], [(pair, x)], {"u": x})

    dyn = _max_part("orbit", tol_dyn)
    for u in us[:dynamic_samples]:
        x = C1.project(u)
        for _ in range(32):
            x = C1.project(C2.project(x))
        s.orbits([(pair, x)], _stays_in(dyn, pair.space, C2, {"u0": x}))

    return [(s, lambda: _assemble("relative-invariance", [fun, dyn], samples, s.skipped))]


check_relative_invariance = _checker(plan_relative_invariance)


# ---------------------------------------------------------------------------
# comparison, order preservation, domination


def _require_same_space(pairA, pairB):
    if pairA.space.dim != pairB.space.dim or not np.allclose(pairA.space.weights, pairB.space.weights):
        raise ValueError("both pairs must share the data space")


def _ordered_pair(space, u, v):
    oc = order_cone(space.weights)
    z = oc.project(np.concatenate([u, v]))
    return z[: space.dim], z[space.dim :]


def plan_comparison(
    pairA: JEllipticPair,
    pairB: JEllipticPair,
    C: Optional[ConvexSetOracle] = None,
    samples: int = 50,
    T: float = 1.0,
    tau: float = 0.05,
    seed: int = 0,
    tol_fun: float = FUNCTIONAL_TOL,
    tol_dyn: float = DYNAMIC_TOL,
    dynamic_samples: int = 5,
    memo: Optional[dict] = None,
    name: str = "comparison",
) -> list:
    """Two-flow comparison: the crossed meet/join energy inequality and
    ordering of orbits from ordered starts.

    ``C`` restricts sampling to a lattice-closed convex set (checked by
    sampling); None means the whole space.
    """
    _require_same_space(pairA, pairB)
    rng = np.random.default_rng(seed)
    space = pairA.space

    usA = sample_states(pairA, samples, rng)
    usB = sample_states(pairB, samples, rng)
    if C is not None:
        usA = np.array([C.project(u) for u in usA])
        usB = np.array([C.project(u) for u in usB])
        for u, v in zip(usA[:10], usB[:10]):
            meet, join = np.minimum(u, v), np.maximum(u, v)
            if not (C.contains(meet, 1e-9) and C.contains(join, 1e-9)):
                raise ValueError("sampled lattice closure fails: C is not stable under meet/join")

    s = _Sampler(T, tau, memo)
    fun = _max_part("functional", tol_fun)
    for u, v in zip(usA, usB):
        meet, join = np.minimum(u, v), np.maximum(u, v)
        s.gap(fun, [(pairA, meet), (pairB, join)], [(pairA, u), (pairB, v)], {"u1": u, "u2": v})

    dyn = _max_part("orbit-order", tol_dyn)
    for u, v in zip(usA[:dynamic_samples], usB[:dynamic_samples]):
        lo, hi = _ordered_pair(space, u, v)
        if C is not None:
            lo, hi = C.project(lo), C.project(hi)
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        witness = {"u0": lo, "v0": hi}
        s.orbits([(pairA, lo), (pairB, hi)], lambda o, w=witness: _bump(dyn, float(np.max(o[0] - o[1])), w))

    return [(s, lambda: _assemble(name, [fun, dyn], samples, s.skipped))]


def plan_order_preserving(pair: JEllipticPair, C=None, **kwargs) -> list:
    """Single-flow order preservation (comparison of the flow with itself)."""
    kwargs.setdefault("name", "order-preserving")
    return plan_comparison(pair, pair, C=C, **kwargs)


check_comparison = _checker(plan_comparison)
check_order_preserving = _checker(plan_order_preserving)


def _hypothesis(plan, why):
    """The stage of a one-stage hypothesis plan, finished by raising when its report fails."""
    ((s, finish),) = plan

    def test():
        if not finish().passed:
            raise ValueError(f"domination hypothesis fails: {why}")

    return s, test


def plan_domination(
    pairA: JEllipticPair,
    pairB: JEllipticPair,
    samples: int = 50,
    T: float = 1.0,
    tau: float = 0.05,
    seed: int = 0,
    tol_fun: float = FUNCTIONAL_TOL,
    tol_dyn: float = DYNAMIC_TOL,
    dynamic_samples: int = 5,
    memo: Optional[dict] = None,
    hypothesis_samples: int = 8,
) -> list:
    """Pointwise domination of one flow by a positive, order-preserving one.

    The hypotheses on the dominating flow (small sample) are planned with
    the check and tested first when it finishes; their failure is an error,
    not a negative verdict.
    """
    _require_same_space(pairA, pairB)
    cone = positive_cone()
    hyp = dict(samples=hypothesis_samples, T=T, tau=tau, dynamic_samples=2, memo=memo)
    hypotheses = [
        _hypothesis(plan_invariance(pairB, cone, seed=seed + 101, resolvent_samples=2, **hyp),
                    "dominating flow is not positive"),
        _hypothesis(plan_order_preserving(pairB, C=cone, seed=seed + 202, **hyp),
                    "dominating flow is not order preserving"),
    ]

    rng = np.random.default_rng(seed)
    usA = sample_states(pairA, samples, rng)
    usB = np.abs(sample_states(pairB, samples, rng))

    s = _Sampler(T, tau, memo)
    fun = _max_part("functional", tol_fun)
    for u1, u2 in zip(usA, usB):
        trunc = np.minimum(np.abs(u1), u2) * np.sign(u1)
        envelope = np.maximum(np.abs(u1), u2)
        s.gap(fun, [(pairA, trunc), (pairB, envelope)], [(pairA, u1), (pairB, u2)], {"u1": u1, "u2": u2})

    dyn = _max_part("orbit-domination", tol_dyn)
    for u in usA[:dynamic_samples]:
        s.orbits([(pairA, u), (pairB, np.abs(u))],
                 lambda o, w={"u0": u}: _bump(dyn, float(np.max(np.abs(o[0]) - o[1])), w))

    return [*hypotheses, (s, lambda: _assemble("domination", [fun, dyn], samples, s.skipped))]


check_domination = _checker(plan_domination)


# ---------------------------------------------------------------------------
# sup-norm contraction and the gauge family


def plan_linf_contractivity(
    pair: JEllipticPair,
    samples: int = 50,
    T: float = 1.0,
    tau: float = 0.05,
    seed: int = 0,
    tol_fun: float = FUNCTIONAL_TOL,
    tol_dyn: float = DYNAMIC_TOL,
    dynamic_samples: int = 5,
    memo: Optional[dict] = None,
) -> list:
    """Sup-norm contraction: the two-sided median truncation inequality
    on the lifted energy, and orbit distances in the max norm."""
    rng = np.random.default_rng(seed)
    us = sample_states(pair, samples, rng)
    vs = sample_states(pair, samples, rng)

    s = _Sampler(T, tau, memo)
    fun = _max_part("functional", tol_fun)
    for u1, u2 in zip(us, vs):
        mid = 0.5 * (u1 + u2)
        for alpha in (0.25, 1.0, 4.0):
            lo, hi = mid - 0.5 * alpha, mid + 0.5 * alpha
            v1 = np.minimum(np.maximum(u1, lo), hi)
            v2 = np.maximum(np.minimum(u2, hi), lo)
            s.gap(fun, [(pair, v1), (pair, v2)], [(pair, u1), (pair, u2)], {"u1": u1, "u2": u2, "alpha": alpha})

    dyn = _max_part("orbit-supnorm", tol_dyn)
    sup = [(dyn, lambda w: float(np.max(np.abs(w))), {})]
    for u, v in zip(us[:dynamic_samples], vs[:dynamic_samples]):
        s.contraction(pair, u, v, sup, first=0)

    return [(s, lambda: _assemble("sup-norm-contractivity", [fun, dyn], samples, s.skipped))]


check_linf_contractivity = _checker(plan_linf_contractivity)


def default_j0_family() -> list[NFunction]:
    """Stock convex gauges: powers, thresholded excesses, one huber."""
    fam = [power(q) for q in (1.0, 1.5, 2.0, 4.0)]
    fam += [threshold_excess(k) for k in (0.1, 1.0)]
    fam.append(huber(0.5))
    return fam


def integral_functional(space: WeightedSpace, psi: NFunction) -> Callable[[np.ndarray], float]:
    """``w -> sum_i m_i psi(|w_i|)``: the modular of a scalar gauge."""

    def phi(w):
        return float(np.sum(space.weights * psi(np.abs(w))))

    return phi


def l1_functional(space: WeightedSpace) -> Callable[[np.ndarray], float]:
    return integral_functional(space, power(1.0))


def plan_complete_contractivity(
    pair: JEllipticPair,
    psi_family: Optional[Sequence[NFunction]] = None,
    samples: int = 10,
    T: float = 1.0,
    tau: float = 0.05,
    seed: int = 0,
    tol: float = DYNAMIC_TOL,
    memo: Optional[dict] = None,
) -> list:
    """Modular contraction along orbits for a family of convex gauges.

    Meaningful under order preservation (standing hypothesis of the
    extrapolation theory); the inequality itself is simply tested for
    each family member at every step.
    """
    family = list(psi_family) if psi_family is not None else default_j0_family()
    rng = np.random.default_rng(seed)
    us = sample_states(pair, samples, rng)
    vs = sample_states(pair, samples, rng)

    s = _Sampler(T, tau, memo=memo)
    parts = {psi.tag: _max_part(psi.tag, tol) for psi in family}
    gauges = [(parts[psi.tag], integral_functional(pair.space, psi), {"psi": psi.tag}) for psi in family]
    for u, v in zip(us, vs):
        s.contraction(pair, u, v, gauges)

    # starts drawn by sample_states lie in the image of j: a skip is reported when one happens
    return [(s, lambda: _assemble("complete-contractivity", list(parts.values()), samples, s.skipped or None))]


check_complete_contractivity = _checker(plan_complete_contractivity)


def plan_psi_accretive(
    pair: JEllipticPair,
    psi: Callable[[np.ndarray], float],
    op_pairs: Sequence,
    T: float = 0.5,
    tau: float = 0.05,
    seed: int = 0,
    verify_tol: Optional[float] = 1e-6,
    crosscheck_samples: int = 4,
    psi_name: str = "psi",
) -> list:
    """Gauge accretivity of the operator samples, cross-checked against
    gauge contraction of the flow.

    Accretivity: perturbing a difference of sample points along the
    difference of their operator values never decreases the gauge.  The
    verdict and headline are those of accretivity; the details carry the
    contraction part, its verdict and an agreement flag, as the two must
    agree for flows generated by the same operator.
    """
    if verify_tol is not None:
        for u, f in op_pairs:
            gap = subgradient_residual(pair, u, f, directions=50, seed=seed)
            if gap > verify_tol:
                raise ValueError(f"operator sample fails membership check (violation {gap:g})")

    acc = _max_part("accretivity", DYNAMIC_TOL)
    n_pairs = len(op_pairs)
    for i in range(n_pairs):
        for jdx in range(i + 1, n_pairs):
            du = np.asarray(op_pairs[i][0]) - np.asarray(op_pairs[jdx][0])
            df = np.asarray(op_pairs[i][1]) - np.asarray(op_pairs[jdx][1])
            base = psi(du)
            for lam in (0.01, 0.1, 1.0, 10.0):
                _bump(acc, base - psi(du + lam * df), {"i": i, "j": jdx, "lambda": lam})

    s = _Sampler(T, tau)
    contr = _max_part("contraction", DYNAMIC_TOL)
    rng = np.random.default_rng(seed + 7)
    starts = sample_states(pair, 2 * crosscheck_samples, rng)
    for u, v in zip(starts[0::2], starts[1::2]):
        s.contraction(pair, u, v, [(contr, psi, {})])

    def finish():
        contractive_ok = contr["violation"] <= contr["tolerance"]
        # starts drawn by sample_states lie in the image of j: a skip is reported when one happens
        report = _assemble(f"{psi_name}-accretivity", [acc], len(op_pairs), s.skipped or None)
        report.details["contraction"] = {k: v for k, v in contr.items() if k != "part"}
        report.details["accretive_passed"] = report.passed
        report.details["contractive_passed"] = contractive_ok
        report.details["crosscheck_agrees"] = report.passed == contractive_ok
        return report

    return [(s, finish)]


check_psi_accretive = _checker(plan_psi_accretive)


# ---------------------------------------------------------------------------
# consistency among finished reports


def _part_verdicts(report: PropertyReport) -> dict:
    """The verdict of each part of ``report`` that has trials."""
    return {
        name: bool(part["violation"] <= part["tolerance"])
        for name, part in report.details.items()
        if isinstance(part, dict) and part.get("trials", 0) > 0
    }


def consistency(reports: Sequence[PropertyReport]) -> list[dict]:
    """Implications among the verdicts of finished reports, each evaluated
    where the reports it reads are present; runs no solve.

    - ``benilan-crandall``: a flow that is order-preserving and contracts in
      the integral norm (the ``power(1.0)`` part of complete-contractivity)
      and in the sup norm contracts in every convex gauge (Bénilan &
      Crandall, *Completely accretive operators*, 1991);
    - ``agreement``: the functional part of a report has the verdict of
      each other part with trials.

    Each entry holds its rule, the verdicts it read (keyed ``report`` or
    ``report/part``) and whether it holds.
    """
    by_name = {r.name: r for r in reports}
    entries = []
    names = ("order-preserving", "sup-norm-contractivity", "complete-contractivity")
    l1 = _part_verdicts(by_name[names[2]]).get("power(1.0)") if names[2] in by_name else None
    if l1 is not None and all(n in by_name for n in names):
        order, linf, complete = (bool(by_name[n].passed) for n in names)
        verdicts = {"order-preserving": order, "complete-contractivity/power(1.0)": l1,
                    "sup-norm-contractivity": linf, "complete-contractivity": complete}
        entries.append({"rule": "benilan-crandall", "verdicts": verdicts,
                        "holds": complete or not (order and l1 and linf)})
    for r in reports:
        parts = _part_verdicts(r)
        fun = parts.pop("functional", None)
        if fun is not None:
            for name, verdict in parts.items():
                verdicts = {f"{r.name}/functional": fun, f"{r.name}/{name}": verdict}
                entries.append({"rule": "agreement", "verdicts": verdicts, "holds": verdict == fun})
    return entries
