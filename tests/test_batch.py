"""Batched slice solves: each sample of a batch is solved as it would be alone.

``pairs.lifted_values`` and ``flow.evolve`` over S rows run one banded
Newton for the batch; the per-sample arithmetic (reductions row by row,
one factorization per sample) makes every sample bitwise its S = 1 solve,
whatever the composition of the batch.  A sample that misses its
certificate raises, naming its row.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jflow import problems as P
from jflow import solvers
from jflow.checks import LIFTED_TOL, sample_states
from jflow.flow import EvolveError, evolve
from jflow.pairs import SliceError, lifted_value, lifted_values

PROBLEMS = ("robin_p3", "robin_p1.5", "dtn_p3", "coupled_p3")
COUNT = 5


@functools.lru_cache(maxsize=None)
def reference(name):
    """The pair, five data points, and each point's fibre and orbit solved alone."""
    pair = P.load_problem(P.builtin_problems()[name]).pair
    U = sample_states(pair, COUNT, np.random.default_rng(11))
    fibers = [lifted_value(pair, u, LIFTED_TOL) for u in U]
    orbits = [evolve(pair, u, 0.1, 0.05, record_energies=False, keep_extensions=True) for u in U]
    return pair, U, fibers, orbits


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(PROBLEMS), order=st.permutations(range(COUNT)), size=st.integers(1, COUNT))
def test_batch_composition_does_not_change_results(name, order, size):
    pair, U, fibers, orbits = reference(name)
    rows = list(order[:size])
    for i, got in zip(rows, lifted_values(pair, U[rows], LIFTED_TOL)):
        assert got.value == fibers[i].value and got.residual == fibers[i].residual
        np.testing.assert_array_equal(got.minimizer, fibers[i].minimizer)
    batch = evolve(pair, U[rows], 0.1, 0.05, record_energies=False, keep_extensions=True)
    for i, got in zip(rows, batch):
        np.testing.assert_array_equal(got.states, orbits[i].states)
        np.testing.assert_array_equal(got.extensions, orbits[i].extensions)
        np.testing.assert_array_equal(got.step_residuals, orbits[i].step_residuals)


def _one_sample_misses(monkeypatch, row, from_call=1):
    """From the ``from_call``-th Newton solve of a batch holding ``row`` on, that sample reports residual 1."""
    real, calls = solvers.newton, []

    def newton(value, grad, hess, start, tol, certificate=None):
        res = real(value, grad, hess, start, tol, certificate)
        if np.ndim(start) == 2 and len(start) > row:
            calls.append(1)
            if len(calls) >= from_call:
                res.residual[row] = 1.0
        return res

    monkeypatch.setattr(solvers, "newton", newton)
    monkeypatch.setattr(solvers, "_try_snap", lambda problem, x, gn: (x, gn, 0))


def test_a_failing_fiber_sample_fails_loudly(monkeypatch):
    pair, U, _, _ = reference("robin_p3")
    _one_sample_misses(monkeypatch, row=2)
    with pytest.raises(SliceError, match=r"fiber solve stalled: residual 1 after \d+ iterations \(sample 2\)") as info:
        lifted_values(pair, U[:4], LIFTED_TOL)
    assert info.value.sample == 2 and info.value.residual == 1.0


def test_a_failing_orbit_raises_with_its_own_partial_orbit(monkeypatch):
    pair, U, _, orbits = reference("robin_p3")
    _one_sample_misses(monkeypatch, row=1, from_call=3)  # after the start fibres' batch and the first step
    with pytest.raises(EvolveError, match=r"step 2 failed: backward step solve stalled: residual 1") as info:
        evolve(pair, U[[3, 1, 0]], 0.1, 0.05, record_energies=False, keep_extensions=True)
    assert info.value.orbit == 1
    partial = info.value.partial
    np.testing.assert_array_equal(partial.states, orbits[1].states[:2])  # the orbit of U[1], up to the failed step
    np.testing.assert_array_equal(partial.step_residuals, orbits[1].step_residuals[:2])


def test_a_failing_start_fiber_names_its_orbit(monkeypatch):
    # the start fibres of orbits 0 and 2 are kept and solved as one batch of
    # two; its second sample, orbit 2's, misses its certificate
    pair, U, _, _ = reference("robin_p3")
    _one_sample_misses(monkeypatch, row=1)
    with pytest.raises(SliceError, match=r"fiber solve stalled: residual 1 after \d+ iterations \(sample 2\)") as info:
        evolve(pair, U[[3, 1, 0]], 0.1, 0.05, record_energies=[True, False, True])
    assert info.value.sample == 2 and info.value.residual == 1.0


def test_a_stalled_sample_is_rescued_alone(monkeypatch):
    # robin_p1.5 fibres take the conjugate edge dual; one sample left short
    # of its fibre is continued by the majorant rescue, by itself
    pair, U, fibers, _ = reference("robin_p1.5")
    real, rescued = solvers.newton, []

    def newton(value, grad, hess, start, tol, certificate=None):
        res = real(value, grad, hess, start, tol, certificate)
        if certificate is not None and len(start) == 3:  # the dual solve of the batch: one sample off
            res.x[1] *= 1.05
            res.residual[1] = 1.0
        return res

    snap = solvers._try_snap
    monkeypatch.setattr(solvers, "newton", newton)
    monkeypatch.setattr(solvers, "_try_snap", lambda problem, x, gn: rescued.append(len(x)) or snap(problem, x, gn))
    got = lifted_values(pair, U[:3], LIFTED_TOL)
    assert rescued == [1]
    assert got[1].residual <= LIFTED_TOL
    np.testing.assert_allclose(got[1].minimizer, fibers[1].minimizer, rtol=0, atol=1e-6)
    for i in (0, 2):
        np.testing.assert_array_equal(got[i].minimizer, fibers[i].minimizer)
