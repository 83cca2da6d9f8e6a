import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from jflow.energy import (
    AffineIndicatorTerm,
    ExtendedFunctional,
    NodewiseIntegral,
    PEdgeEnergy,
    QuadraticTerm,
    ScalarPrimitive,
    TotalVariationTerm,
    sample_coercivity,
    sample_convexity,
    shifted_value,
)
from jflow.hilbert import WeightedSpace


def single_edge(p):
    return ExtendedFunctional([PEdgeEnergy([(0, 1)], [1.0], p)], 2)


def test_evaluate_p_edge():
    assert single_edge(2.0).value(np.array([1.0, 3.0])) == pytest.approx(2.0)


def test_p_edge_energy_at_p_one_is_total_variation():
    # the p = 1 edge energy is non-smooth: it has one form, TotalVariationTerm
    with pytest.raises(ValueError, match="TotalVariationTerm"):
        PEdgeEnergy([(0, 1)], [1.0], 1.0)


def test_evaluate_edge_constant_vanishes():
    E = ExtendedFunctional([PEdgeEnergy([(0, 1), (1, 2)], [1.0, 2.0], 2.5)], 3)
    assert E.value(np.full(3, 0.37)) == 0.0


def test_evaluate_indicator_violation():
    E = ExtendedFunctional([AffineIndicatorTerm(np.array([[1.0, 0.0]]), np.array([1.0]))], 2)
    assert math.isinf(E.value(np.array([0.0, 5.0])))
    assert E.value(np.array([1.0, 5.0])) == 0.0


def test_shift_zero_is_identity():
    E = single_edge(2.0)
    sp = WeightedSpace(np.ones(2))
    u = np.array([0.2, -1.0])
    assert shifted_value(E, np.eye(2), sp, 0.0, u) == E.value(u)


def test_shift_quadratic_value():
    E = ExtendedFunctional([], 2)
    sp = WeightedSpace(np.ones(2))
    assert shifted_value(E, np.eye(2), sp, 2.0, np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_shift_vanishes_on_kernel():
    E = single_edge(2.0)
    sp = WeightedSpace(np.ones(1))
    jmat = np.array([[1.0, 0.0]])  # kernel spanned by e2
    u = np.array([0.5, -3.0])
    for omega in (0.0, 1.0, 7.5):
        expected = E.value(u) + 0.5 * omega * 0.25
        assert shifted_value(E, jmat, sp, omega, u) == pytest.approx(expected)


def test_shift_depends_on_image_only():
    E = single_edge(2.0)
    sp = WeightedSpace(np.ones(1))
    jmat = np.array([[1.0, 0.0]])
    u = np.array([0.5, -3.0])
    kern = np.array([0.0, 1.0])
    base = shifted_value(E, jmat, sp, 3.0, u) - E.value(u)
    shifted = shifted_value(E, jmat, sp, 3.0, u + 2.0 * kern) - E.value(u + 2.0 * kern)
    assert abs(base - shifted) <= 1e-12


def test_sample_convexity_accepts_norm_square():
    rep = sample_convexity(lambda x: float(x @ x), dim=3, trials=100, seed=0)
    assert rep.max_violation <= 1e-10


def test_sample_convexity_flags_concave():
    rep = sample_convexity(lambda x: -float(x @ x), dim=2, trials=50, seed=0)
    assert rep.max_violation > 0
    assert rep.witness is not None


def test_sample_convexity_p_edge():
    E = single_edge(1.5)
    rep = sample_convexity(E.value, dim=2, trials=200, seed=1)
    assert rep.max_violation <= 1e-10


def test_sample_convexity_needs_finite_samples():
    with pytest.raises(ValueError):
        sample_convexity(lambda x: math.inf, dim=2, trials=10, seed=0)


def test_sample_coercivity_unit_ball():
    rep = sample_coercivity(lambda x: float(x @ x), levels=(1.0,), trials=16, seed=0, dim=2)
    assert rep.bounded
    assert rep.radii[1.0] == pytest.approx(1.0, abs=1e-6)


def test_sample_coercivity_flat_unbounded():
    rep = sample_coercivity(lambda x: 0.0, levels=(1.0,), trials=8, seed=0, dim=2)
    assert not rep.bounded


def test_sample_coercivity_shift_restores_boundedness():
    # the flat energy 0 plus omega/2 |x|^2 with omega = 1
    sp = WeightedSpace(np.ones(2))
    rep = sample_coercivity(lambda x: 0.0 + 0.5 * 1.0 * sp.inner(x, x), levels=(1.0,), trials=8, seed=0, dim=2)
    assert rep.bounded


@given(st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_p_edge_homogeneity(c):
    for p in (1.5, 2.0, 3.0):
        E = ExtendedFunctional([PEdgeEnergy([(0, 1), (1, 2)], [1.0, 0.5], p)], 3)
        u = np.array([0.3, -1.2, 0.8])
        assert E.value(c * u) == pytest.approx(c**p * E.value(u), rel=1e-10)


def test_tv_scaling_is_one_homogeneous():
    E = ExtendedFunctional([TotalVariationTerm([(0, 1), (1, -1)], [1.0, 2.0])], 2)
    u = np.array([1.0, -0.5])
    assert E.value(-3.0 * u) == pytest.approx(3.0 * E.value(u))


def test_declared_shift_makes_terms_convex():
    # non-monotone nodewise law with curvature deficit 0.8
    prim = ScalarPrimitive(
        value_fn=lambda z: 0.8 * (1.0 - np.cos(z)),
        deriv_fn=lambda z: 0.8 * np.sin(z),
        omega=0.8,
        curvature_fn=lambda z: 0.8 * np.cos(z),
    )
    term = NodewiseIntegral([0, 1], [1.0, 1.0], prim)
    E = ExtendedFunctional([term], 2)
    sp = WeightedSpace(np.ones(2))
    F = lambda u: shifted_value(E, np.eye(2), sp, E.omega_total, u)
    rep = sample_convexity(F, dim=2, trials=300, seed=2)
    assert rep.max_violation <= 1e-8


def test_quadratic_and_linear_terms():
    Q = np.array([[2.0, 0.0], [0.0, 1.0]])
    E = ExtendedFunctional([QuadraticTerm(Q)], 2)
    u = np.array([1.0, 2.0])
    assert E.value(u) == pytest.approx(3.0)
    assert np.allclose(E.smooth_grad(u), Q @ u)


def test_gram_hessian_matches_finite_differences():
    from jflow.pairs import _ComposedSmoothTerm

    law = ScalarPrimitive(
        value_fn=lambda z: np.cosh(z), deriv_fn=lambda z: np.sinh(z), curvature_fn=lambda z: np.cosh(z)
    )
    Q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.5]])
    E = ExtendedFunctional(
        [PEdgeEnergy([(0, 1), (1, 2)], [0.7, 1.3], 3.0), NodewiseIntegral([0, 2], [2.0, 0.5], law), QuadraticTerm(Q)], 3
    )
    composed = ExtendedFunctional([_ComposedSmoothTerm(E, np.array([[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]]))], 2)
    h = 1e-5
    for F, u in ((E, np.array([0.4, -0.2, 1.1])), (composed, np.array([0.3, 0.6]))):
        B = F.hessian_factor()
        H = (B @ scipy.sparse.diags(F.hessian_weights(u)) @ B.T).toarray()
        for i in range(F.dim):
            e = np.zeros(F.dim)
            e[i] = h
            fd = (F.smooth_grad(u + e) - F.smooth_grad(u - e)) / (2 * h)
            for k in range(F.dim):
                assert H[k, i] == pytest.approx(fd[k], rel=1e-4, abs=1e-6)


def test_finite_point_respects_indicators():
    E = ExtendedFunctional(
        [AffineIndicatorTerm(np.array([[1.0, 1.0]]), np.array([3.0])), QuadraticTerm(np.eye(2))], 2
    )
    x = E.finite_point()
    assert x @ np.ones(2) == pytest.approx(3.0, abs=1e-9)


def test_nodewise_gradient_sums_a_node_listed_twice():
    # nodes [0, 0, 1]: node 0 carries two integrands, and its derivative is their sum
    from jflow.problems import g_arctan

    term = NodewiseIntegral([0, 0, 1], np.ones(3), g_arctan(1.0))
    u, h = np.array([1.0, -0.5]), 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (term.value(u + e) - term.value(u - e)) / (2 * h)
        assert term.grad(u)[i] == pytest.approx(fd, rel=1e-8)
    assert term.grad(u)[0] == pytest.approx(2 * math.atan(1.0), rel=1e-14)
    # a batch of rows takes each row's gradient, and unique nodes scatter exactly
    U = np.array([[1.0, -0.5], [0.3, 2.0]])
    np.testing.assert_array_equal(term.grad(U), [term.grad(U[0]), term.grad(U[1])])
    unique = NodewiseIntegral([1, 0], np.array([0.5, 2.0]), g_arctan(1.0))
    np.testing.assert_array_equal(unique.grad(u), [2.0 * math.atan(1.0), 0.5 * math.atan(-0.5)])
