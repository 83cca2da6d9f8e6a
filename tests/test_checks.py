import math

import numpy as np
import pytest

from jflow import checks
from jflow import problems as P
from jflow.energy import ExtendedFunctional, QuadraticTerm
from jflow.flow import resolvent
from jflow.hilbert import ConvexSetOracle, box, positive_cone, power, threshold_excess
from jflow.pairs import JEllipticPair, JMap
from jflow.hilbert import WeightedSpace

FAST = dict(samples=12, T=0.4, tau=0.05, dynamic_samples=3)


def full_space():
    return ConvexSetOracle("full-space", lambda u: u)


def coupling_quad_pair():
    # E = 0.5 (x1 + x2)^2: convex but meets/joins can raise it
    Q = np.ones((2, 2))
    E = ExtendedFunctional([QuadraticTerm(Q)], 2)
    return JEllipticPair(E, JMap(np.eye(2)), WeightedSpace(np.ones(2)))


def test_invariance_positive_cone_robin(robin_small):
    rep = checks.check_invariance(robin_small, positive_cone(), seed=0, resolvent_samples=4, **FAST)
    assert rep.passed
    assert rep.max_violation <= rep.tolerance


def test_invariance_full_space_trivial(robin_small):
    rep = checks.check_invariance(robin_small, full_space(), seed=1, resolvent_samples=2, **FAST)
    assert rep.passed
    assert rep.max_violation <= 1e-12


def test_invariance_violated_for_far_box():
    # flow decays toward zero, so a set pinned below -1 cannot be invariant
    pair = P.build_dirichlet(P.chain(5, 0.5), 2.0)
    wall = box(np.full(3, -100.0), np.full(3, -1.0))
    rep = checks.check_invariance(pair, wall, seed=2, resolvent_samples=3, **FAST)
    assert not rep.passed
    assert rep.witness is not None


def test_comparison_diagonal_is_order_preservation(robin_small):
    rep = checks.check_comparison(robin_small, robin_small, seed=7, **FAST)
    assert rep.passed


def test_comparison_dirichlet_dominated_by_coupled(coupled_small):
    # same data space: inner 4 nodes of a 10-chain at the same spacing;
    # the crossed inequality interleaves zero extensions with the free
    # ones only when all data share the sign, hence the cone
    dirichlet = P.build_dirichlet(P.chain(6, 0.2), 2.0)
    rep = checks.check_comparison(dirichlet, coupled_small, C=positive_cone(), seed=8, **FAST)
    assert rep.passed


def test_comparison_informative_failure():
    rep = checks.check_comparison(coupling_quad_pair(), coupling_quad_pair(), seed=9, **FAST)
    assert not rep.passed
    assert rep.max_violation > rep.tolerance


def test_order_preserving_linear_heat(robin_small):
    rep = checks.check_order_preserving(robin_small, seed=10, **FAST)
    assert rep.passed


def test_order_preserving_p3(robin_small_p3):
    rep = checks.check_order_preserving(robin_small_p3, seed=11, **FAST)
    assert rep.passed


def test_order_preserving_crafted_failure():
    rep = checks.check_order_preserving(coupling_quad_pair(), seed=12, **FAST)
    assert not rep.passed
    assert rep.witness is not None


def test_domination_coupled_over_dirichlet(coupled_small):
    dirichlet = P.build_dirichlet(P.chain(6, 0.2), 2.0)
    rep = checks.check_domination(dirichlet, coupled_small, seed=13, hypothesis_samples=5, **FAST)
    assert rep.passed


def test_domination_self_for_positive_flow(robin_small):
    rep = checks.check_domination(robin_small, robin_small, seed=14, hypothesis_samples=5, **FAST)
    assert rep.passed


def test_domination_dirichlet_by_neumann():
    h = 0.25
    dirichlet = P.build_dirichlet(P.chain(6, h), 2.0)  # 4 interior nodes
    neumann = P.build_neumann(P.chain(4, h), 2.0)  # 4 nodes, same weights
    rep = checks.check_domination(dirichlet, neumann, seed=15, hypothesis_samples=5, **FAST)
    assert rep.passed


def test_domination_hypothesis_failure_is_error(robin_small):
    n = robin_small.space.dim
    bad = JEllipticPair(
        ExtendedFunctional([QuadraticTerm(np.ones((n, n)))], n), JMap(np.eye(n)), robin_small.space
    )
    with pytest.raises(ValueError, match="hypothesis"):
        checks.check_domination(robin_small, bad, seed=16, hypothesis_samples=5, **FAST)


def test_linf_alpha_exceeding_gap_is_equality(robin_small):
    rng = np.random.default_rng(17)
    u1 = checks.sample_states(robin_small, 1, rng)[0]
    u2 = checks.sample_states(robin_small, 1, rng)[0]
    alpha = 2.0 * float(np.max(np.abs(u1 - u2))) + 1.0
    mid = 0.5 * (u1 + u2)
    v1 = np.minimum(np.maximum(u1, mid - alpha / 2), mid + alpha / 2)
    v2 = np.maximum(np.minimum(u2, mid + alpha / 2), mid - alpha / 2)
    assert np.array_equal(v1, u1) and np.array_equal(v2, u2)


def test_linf_contractivity_robin(robin_small_p3):
    rep = checks.check_linf_contractivity(robin_small_p3, seed=18, **FAST)
    assert rep.passed


def test_linf_contractivity_dtn(dtn_chain16):
    rep = checks.check_linf_contractivity(dtn_chain16, seed=19, **FAST)
    assert rep.passed


def test_complete_contractivity_square_gauge(robin_small):
    rep = checks.check_complete_contractivity(robin_small, psi_family=[power(2.0)], samples=3, T=0.4, tau=0.05, seed=20)
    assert rep.passed


def test_complete_contractivity_huge_threshold(robin_small):
    rep = checks.check_complete_contractivity(
        robin_small, psi_family=[threshold_excess(1e6)], samples=2, T=0.2, tau=0.05, seed=21
    )
    assert rep.passed
    assert rep.max_violation <= 0.0


def test_complete_contractivity_full_family(robin_small):
    rep = checks.check_complete_contractivity(robin_small, samples=3, T=0.4, tau=0.05, seed=22)
    assert rep.passed


def make_op_pairs(pair, count, lam=0.2, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = rng.normal(size=pair.space.dim)
        r = resolvent(pair, lam, g)
        out.append((r.u, r.f))
    return out


def test_psi_accretive_h_norm_squared(robin_small):
    pairs = make_op_pairs(robin_small, 6, seed=23)
    psi = lambda w: float(np.sum(robin_small.space.weights * w * w))
    rep = checks.check_psi_accretive(robin_small, psi, pairs, seed=23, T=0.3, tau=0.05, psi_name="h-square")
    assert rep.passed and rep.details["crosscheck_agrees"]


def test_psi_accretive_l1_robin(robin_small):
    pairs = make_op_pairs(robin_small, 6, seed=24)
    psi = checks.integral_functional(robin_small.space, power(1.0))
    rep = checks.check_psi_accretive(robin_small, psi, pairs, seed=24, T=0.3, tau=0.05, psi_name="l1")
    assert rep.passed and rep.details["crosscheck_agrees"]


def test_psi_accretive_crafted_failure():
    pair = coupling_quad_pair()
    psi = checks.integral_functional(pair.space, power(1.0))
    crafted = [(np.array([1.0, 0.0]), np.array([-1.0, 0.0])), (np.zeros(2), np.zeros(2))]
    rep = checks.check_psi_accretive(pair, psi, crafted, verify_tol=None, seed=25, T=0.2, tau=0.05)
    assert not rep.details["accretive_passed"]


def test_psi_accretive_headline_is_the_accretivity_part():
    # psi = -|w|_H: samples (u, 0) are accretive, but orbits do not contract in psi
    pair = P.load_problem(P.builtin_problems()["robin_p2"]).pair
    states = checks.sample_states(pair, 3, np.random.default_rng(1))
    crafted = [(u, np.zeros_like(u)) for u in states]
    psi = lambda w: -pair.space.norm(w)
    rep = checks.check_psi_accretive(pair, psi, crafted, verify_tol=None, seed=1, T=0.2, tau=0.05)
    assert rep.passed == (rep.max_violation <= rep.tolerance)
    assert rep.passed and rep.max_violation == rep.details["accretivity"]["violation"]
    assert rep.details["contraction"]["violation"] > rep.details["contraction"]["tolerance"]
    assert not rep.details["contractive_passed"] and not rep.details["crosscheck_agrees"]


def test_psi_accretive_rejects_unverified_pairs(robin_small):
    bogus = [(np.ones(robin_small.space.dim), 50.0 * np.ones(robin_small.space.dim))]
    psi = checks.integral_functional(robin_small.space, power(1.0))
    with pytest.raises(ValueError, match="membership"):
        checks.check_psi_accretive(robin_small, psi, bogus, verify_tol=1e-6)


def synthetic_report(name, **parts):
    """A report whose parts pass (True) or fail (False) by a unit margin, each with one trial."""
    return checks._assemble(
        name,
        [{"part": part, "violation": 0.0 if ok else 2.0, "tolerance": 1.0, "trials": 1} for part, ok in parts.items()],
        trials=1,
    )


def bc_reports(order=True, l1=True, linf=True, power2=True):
    return [
        synthetic_report("order-preserving", functional=order),
        synthetic_report("sup-norm-contractivity", **{"orbit-supnorm": linf}),
        synthetic_report("complete-contractivity", **{"power(1.0)": l1, "power(2.0)": power2}),
    ]


def test_interpolation_consistency_mutation_flagged():
    # order, L1 and Linf pass while a gauge fails: the Benilan-Crandall implication is violated
    (entry,) = checks.consistency(bc_reports(power2=False))
    assert entry["rule"] == "benilan-crandall" and not entry["holds"]
    assert entry["verdicts"] == {
        "order-preserving": True,
        "complete-contractivity/power(1.0)": True,
        "sup-norm-contractivity": True,
        "complete-contractivity": False,
    }
    # with L1 failing the premise fails, and the implication holds
    (entry,) = checks.consistency(bc_reports(l1=False, power2=False))
    assert entry["holds"]
    (entry,) = checks.consistency(bc_reports())
    assert entry["holds"]


def test_consistency_flags_a_functional_part_that_disagrees_with_its_orbit():
    reports = [
        synthetic_report("comparison", functional=True, **{"orbit-order": False}),
        synthetic_report("domination", functional=False, **{"orbit-domination": False}),
    ]
    bad, good = checks.consistency(reports)
    assert bad == {
        "rule": "agreement",
        "verdicts": {"comparison/functional": True, "comparison/orbit-order": False},
        "holds": False,
    }
    assert good["rule"] == "agreement" and good["holds"]


def test_consistency_evaluates_only_what_the_reports_hold():
    # without order-preserving there is no Benilan-Crandall entry; a part with no trials is not compared
    no_trials = {"part": "resolvent", "violation": -math.inf, "tolerance": 1.0, "trials": 0}
    inv = checks._assemble("invariance", [{"part": "functional", "violation": 0.0, "tolerance": 1.0}, no_trials], 1)
    assert checks.consistency(bc_reports()[1:] + [inv]) == []


def test_reports_are_deterministic(robin_small):
    a = checks.check_order_preserving(robin_small, seed=41, **FAST)
    b = checks.check_order_preserving(robin_small, seed=41, **FAST)
    assert a.to_dict() == b.to_dict()


def test_report_invariant_passed_iff_within_tolerance(robin_small):
    rep = checks.check_invariance(robin_small, positive_cone(), seed=42, resolvent_samples=2, **FAST)
    assert rep.passed == (rep.max_violation <= rep.tolerance)


def _spy_lifted(monkeypatch):
    """Record ``(pair, point, tol)`` of every fiber the checkers solve (each row of a batch)."""
    calls = []
    original = checks.lifted_values

    def spy(pair, U, tol=1e-6, starts=None):
        calls.extend((id(pair), np.asarray(u).tobytes(), tol) for u in U)
        return original(pair, U, tol=tol, starts=starts)

    monkeypatch.setattr(checks, "lifted_values", spy)
    return calls


def _lifted(sampler, pair, u):
    """The sampler's lifted value at ``u``, through a one-term gap."""
    part = checks._max_part("lifted", 1.0)
    sampler.gap(part, [(pair, u)], [], None)
    sampler.settle()
    return part["violation"]


def test_linf_solves_each_fiber_once(robin_small, monkeypatch):
    calls = _spy_lifted(monkeypatch)
    checks.check_linf_contractivity(robin_small, samples=4, T=0.2, tau=0.05, seed=18, dynamic_samples=1)
    assert calls and len(set(calls)) == len(calls)


def test_samplers_sharing_a_memo_solve_a_point_once(robin_small, monkeypatch):
    calls = _spy_lifted(monkeypatch)
    memo = {}
    u = checks.sample_states(robin_small, 1, np.random.default_rng(3))[0]
    values = [_lifted(checks._Sampler(T, tau, memo), robin_small, u) for T, tau in ((0.2, 0.05), (0.5, 0.1))]
    assert [c[2] for c in calls] == [checks.LIFTED_TOL]
    assert values[0] == values[1]


def test_shared_memo_evolves_each_orbit_once(robin_small, monkeypatch):
    # linf and complete draw their first starts from one seed; with one
    # memo their shared orbits are evolved once, and the reports do not change
    calls = []
    original = checks.evolve

    def counting(pair, u0, T, tau, **kwargs):
        calls.append((id(pair), u0.tobytes(), T, tau))
        return original(pair, u0, T, tau, **kwargs)

    monkeypatch.setattr(checks, "evolve", counting)
    kw = dict(samples=4, T=0.2, tau=0.05, seed=5)
    alone = [checks.check_linf_contractivity(robin_small, **kw), checks.check_complete_contractivity(robin_small, **kw)]
    assert len(set(calls)) < len(calls)
    calls.clear()
    memo = {}
    shared = [
        checks.check_linf_contractivity(robin_small, memo=memo, **kw),
        checks.check_complete_contractivity(robin_small, memo=memo, **kw),
    ]
    assert calls and len(set(calls)) == len(calls)
    assert [r.to_dict() for r in shared] == [r.to_dict() for r in alone]


def test_no_plan_solves(robin_small, coupled_small, monkeypatch):
    # every solve of a check belongs to its settle: planning runs no step,
    # fiber, orbit or slice solve, and the plans then settle to the reports
    # of the checkers
    from jflow import flow, pairs

    dirichlet = P.build_dirichlet(P.chain(6, 0.2), 2.0)
    small = dict(samples=4, T=0.2, tau=0.05, seed=26)
    cases = {
        "invariance": ((robin_small, positive_cone()), dict(resolvent_samples=2, dynamic_samples=1)),
        "comparison": ((dirichlet, coupled_small, positive_cone()), dict(dynamic_samples=1)),
        "order_preserving": ((robin_small,), dict(dynamic_samples=1)),
        "domination": ((dirichlet, coupled_small), dict(dynamic_samples=1, hypothesis_samples=3)),
        "linf_contractivity": ((robin_small,), dict(dynamic_samples=1)),
        "complete_contractivity": ((robin_small,), {}),
        "psi_accretive": ((robin_small, checks.integral_functional(robin_small.space, power(1.0)),
                           make_op_pairs(robin_small, 3)), dict(crosscheck_samples=1)),
    }
    assert {f"plan_{name}" for name in cases} == {n for n in checks.__all__ if n.startswith("plan_")}
    for name, (args, kwargs) in cases.items():
        kwargs.update({k: v for k, v in small.items() if k != "samples" or name != "psi_accretive"})

    solves = []
    for module, names in ((checks, ("resolvent", "lifted_values", "evolve")),
                          (flow, ("lifted_values", "_solve_slice")), (pairs, ("lifted_values", "_solve_slice"))):
        for fn in names:
            monkeypatch.setattr(module, fn, lambda *a, fn=fn, **k: solves.append(fn))
    plans = {name: getattr(checks, f"plan_{name}")(*args, **kwargs) for name, (args, kwargs) in cases.items()}
    assert solves == []
    assert all(any(s.pending for s, _ in plan) for plan in plans.values())

    monkeypatch.undo()
    for name, report in zip(plans, checks.run_plans(list(plans.values()))):
        args, kwargs = cases[name]
        assert report.to_dict() == getattr(checks, f"check_{name}")(*args, **kwargs).to_dict(), name


def test_comparison_orbits_solve_no_fiber_outside_evolve(robin_small, monkeypatch):
    calls = _spy_lifted(monkeypatch)
    counts = []
    for dynamic_samples in (0, 2):
        calls.clear()
        rep = checks.check_comparison(
            robin_small, robin_small, samples=4, T=0.2, tau=0.05, seed=9, dynamic_samples=dynamic_samples
        )
        counts.append(len(calls))
    assert rep.details["orbit-order"]["trials"] == 2
    assert counts[0] == counts[1]
