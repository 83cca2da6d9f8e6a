import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jflow.hilbert import (
    WeightedSpace,
    affine_subspace,
    box,
    custom_oracle,
    huber,
    lq_norm,
    order_cone,
    orlicz_norm,
    positive_cone,
    power,
    threshold_excess,
)

vec3 = st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=3).map(np.array)


def test_inner_orthogonality():
    sp = WeightedSpace(np.array([1.0, 1.0]))
    assert sp.inner([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_inner_hand_sum():
    sp = WeightedSpace(np.array([2.0, 3.0]))
    assert sp.inner([1.0, 1.0], [1.0, 1.0]) == 5.0


def test_inner_zero_vector():
    sp = WeightedSpace(np.array([2.0, 3.0]))
    assert sp.inner([0.0, 0.0], [7.0, -1.0]) == 0.0


def test_inner_dimension_mismatch():
    sp = WeightedSpace(np.ones(2))
    with pytest.raises(ValueError):
        sp.inner([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        WeightedSpace(np.array([1.0, 0.0]))


@given(vec3, vec3)
@settings(max_examples=100, deadline=None)
def test_inner_symmetric_and_positive(u, v):
    sp = WeightedSpace(np.array([0.5, 1.0, 2.5]))
    assert sp.inner(u, v) == pytest.approx(sp.inner(v, u), abs=1e-12)
    if np.any(u != 0):
        # definiteness through the scale-safe norm; the squared norm of a
        # tiny nonzero vector (u = 7.7e-215) correctly rounds to zero
        assert sp.norm(u) > 0
        if sp.norm(u) ** 2 >= np.finfo(float).tiny:
            assert sp.inner(u, u) > 0


def test_norm_is_scale_safe():
    sp = WeightedSpace(np.array([0.5, 1.0, 2.5]))
    tiny = np.array([7.7e-215, 0.0, 0.0])
    assert sp.inner(tiny, tiny) == 0.0
    assert sp.norm(tiny) == pytest.approx(7.7e-215 * np.sqrt(0.5), rel=1e-15)
    huge = np.array([1e300, -1e300, 0.0])
    assert sp.norm(huge) == pytest.approx(1e300 * np.sqrt(1.5), rel=1e-15)
    assert sp.norm(np.zeros(3)) == 0.0


def test_lattice_componentwise():
    u, v = np.array([1.0, 3.0]), np.array([2.0, 2.0])
    assert np.array_equal(np.minimum(u, v), [1.0, 2.0])
    assert np.array_equal(np.maximum(u, v), [2.0, 3.0])


def test_lattice_idempotent():
    u = np.array([0.3, -0.7])
    assert np.array_equal(np.minimum(u, u), u) and np.array_equal(np.maximum(u, u), u)


def test_lattice_positive_part_pattern():
    u = np.array([-1.0, 0.0])
    assert np.array_equal(np.maximum(u, 0.0), [0.0, 0.0])  # u v 0 = u^+
    assert np.array_equal(np.minimum(u, 0.0), [-1.0, 0.0])  # u ^ 0 = -u^-


@given(vec3, vec3)
@settings(max_examples=100, deadline=None)
def test_meet_plus_join_identity(u, v):
    assert np.array_equal(np.minimum(u, v) + np.maximum(u, v), u + v)


def test_lq_euclidean():
    sp = WeightedSpace(np.ones(2))
    assert lq_norm(sp, [3.0, 4.0], 2) == pytest.approx(5.0)


def test_lq_sup_norm_ignores_weights():
    sp = WeightedSpace(np.array([10.0, 0.1]))
    assert lq_norm(sp, [3.0, -7.0], np.inf) == 7.0


def test_lq_zero():
    sp = WeightedSpace(np.array([2.0, 5.0]))
    for q in (1, 2, 3.5, np.inf):
        assert lq_norm(sp, np.zeros(2), q) == 0.0


def test_lq_rejects_q_below_one():
    sp = WeightedSpace(np.ones(2))
    with pytest.raises(ValueError):
        lq_norm(sp, [1.0, 1.0], 0.5)


def test_orlicz_square_gauge_is_euclidean():
    sp = WeightedSpace(np.ones(2))
    assert orlicz_norm(sp, [3.0, 4.0], power(2)) == pytest.approx(5.0, rel=1e-9)


def test_orlicz_zero():
    sp = WeightedSpace(np.ones(2))
    assert orlicz_norm(sp, np.zeros(2), power(2)) == 0.0


@given(st.floats(0.1, 50.0))
@settings(max_examples=40, deadline=None)
def test_orlicz_homogeneous(c):
    sp = WeightedSpace(np.array([1.0, 2.0]))
    u = np.array([3.0, -1.0])
    base = orlicz_norm(sp, u, power(2), tol=1e-12)
    assert orlicz_norm(sp, c * u, power(2), tol=1e-12) == pytest.approx(c * base, rel=1e-9)


def test_orlicz_modular_bracket():
    sp = WeightedSpace(np.array([0.7, 1.3, 2.0]))
    u = np.array([1.0, -2.0, 0.5])
    tol = 1e-10
    a = orlicz_norm(sp, u, power(2), tol=tol)
    modular = float(np.sum(sp.weights * (np.abs(u) / a) ** 2))
    assert 1.0 - 10 * tol <= modular <= 1.0 + 1e-12


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_orlicz_matches_weighted_lq_for_power_gauges(q):
    sp = WeightedSpace(np.array([0.5, 1.0, 4.0]))
    u = np.array([0.3, -2.0, 1.1])
    assert orlicz_norm(sp, u, power(q), tol=1e-12) == pytest.approx(lq_norm(sp, u, q), rel=1e-9)


def test_orlicz_degenerate_gauge_errors():
    sp = WeightedSpace(np.ones(2))
    flat = power(2)
    degenerate = type(flat)(evaluator=lambda s: np.zeros_like(np.asarray(s, float)), tag="flat", n_function=False)
    with pytest.raises(ValueError):
        orlicz_norm(sp, np.array([1.0, 1.0]), degenerate)


def test_nfunction_validate():
    assert power(2).validate()
    assert huber(0.5).validate()
    assert threshold_excess(0.1).validate()
    concave = power(2)
    bad = type(concave)(evaluator=lambda s: np.sqrt(np.abs(s)), tag="sqrt", n_function=False)
    with pytest.raises(ValueError):
        bad.validate()


def test_positive_cone_projection():
    cone = positive_cone()
    assert np.array_equal(cone.project(np.array([-1.0, 2.0])), [0.0, 2.0])


def test_order_cone_matches_brute_force():
    # minimize (x-3)^2 + (y-1)^2 subject to x <= y
    oc = order_cone(np.ones(1))
    proj = oc.project(np.array([3.0, 1.0]))
    assert proj == pytest.approx([2.0, 2.0])
    grid = np.linspace(-1, 4, 401)
    best, best_val = None, np.inf
    for x in grid:
        for y in grid:
            if x <= y:
                val = (x - 3.0) ** 2 + (y - 1.0) ** 2
                if val < best_val:
                    best, best_val = (x, y), val
    assert proj == pytest.approx(best, abs=2e-2)


def test_order_cone_weighted_midpoint():
    oc = order_cone(np.array([2.0]), np.array([1.0]))
    proj = oc.project(np.array([3.0, 0.0]))
    mid = (2.0 * 3.0 + 1.0 * 0.0) / 3.0
    assert proj == pytest.approx([mid, mid])


def test_projection_fixes_points_inside():
    oc = order_cone(np.ones(2))
    z = np.array([0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(oc.project(z), z)


@pytest.mark.parametrize("make", [
    lambda sp: positive_cone(),
    lambda sp: box(-1.0, 2.0),
    lambda sp: affine_subspace(np.array([[1.0, 1.0, 0.0]]), np.array([1.0]), sp),
])
def test_oracles_idempotent_and_nonexpansive(make):
    sp = WeightedSpace(np.array([0.5, 1.0, 3.0]))
    assert make(sp).validate(sp, trials=100, seed=3, tol=1e-10)


def test_affine_subspace_projection_is_weighted():
    sp = WeightedSpace(np.array([1.0, 4.0]))
    oracle = affine_subspace(np.array([[1.0, 1.0]]), np.array([2.0]), sp)
    v = oracle.project(np.zeros(2))
    assert v @ np.ones(2) == pytest.approx(2.0)
    # weighted optimality: v minimizes w1 x^2 + w2 y^2 on x + y = 2
    assert v == pytest.approx([1.6, 0.4])


def test_custom_oracle_rejects_non_idempotent():
    sp = WeightedSpace(np.ones(2))
    with pytest.raises(ValueError):
        custom_oracle(lambda u: 0.5 * u, sp)


def test_custom_oracle_accepts_projection():
    sp = WeightedSpace(np.ones(2))
    oracle = custom_oracle(lambda u: np.maximum(u, 0.0), sp)
    assert oracle.kind == "custom"
