import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acopt import (
    DomainError,
    InvalidArgumentError,
    InvalidParameterError,
    Potential,
)
from acopt.cli_io import RunConfig, build_problem
from acopt.potentials import newton_terms


def _derivative(p, order, y):
    """The evaluator of one derivative order: value, d1, d2 or d3."""
    return getattr(p, ("value", "d1", "d2", "d3")[order])(y)


def test_log_part_values_at_half():
    p = Potential(1.0, 0.0)
    assert p.d1(0.5) == pytest.approx(0.0, abs=1e-15)
    assert p.d2(0.5) == pytest.approx(4.0, rel=1e-14)


def test_log_derivative_at_e_point():
    # ln(y/(1-y)) = 1 at y = e/(1+e)
    p = Potential(1.0, 0.0)
    y = math.e / (1.0 + math.e)
    assert p.d1(y) == pytest.approx(1.0, rel=1e-12)


def test_smooth_part_contributions():
    p = Potential(1.0, 3.0)
    q = Potential(1.0, 0.0)
    y = 0.3
    assert p.value(y) == pytest.approx(q.value(y) + 3 * y * (1 - y))
    assert p.d1(y) == pytest.approx(q.d1(y) + 3 * (1 - 2 * y))
    assert p.d2(y) == pytest.approx(q.d2(y) - 6.0)
    assert p.d3(y) == pytest.approx(q.d3(y))


def test_third_derivative_formula():
    p = Potential(2.0, 5.0)
    y = 0.37
    expected = 2.0 * (2 * y - 1) / (y**2 * (1 - y) ** 2)
    assert p.d3(y) == pytest.approx(expected, rel=1e-13)


def test_double_well_minimizers():
    """Interior minimizers solve ln(y/(1-y)) + 3(1-2y) = 0; bisection oracle."""
    p = Potential(1.0, 3.0)

    def d1(y):
        return p.d1(y)

    lo, hi = 1e-8, 0.4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if d1(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(0.07072018167994482, abs=1e-12)  # frozen from this oracle
    # symmetry gives the partner minimizer, and both beat the saddle at 0.5
    assert d1(1.0 - root) == pytest.approx(0.0, abs=1e-10)
    assert p.value(root) < p.value(0.5)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("y0", [0.2, 0.5, 0.8])
def test_derivative_consistency_second_order(order, y0):
    """Central differences of order k converge to order k+1 at rate 2."""
    p = Potential(1.0, 3.0)
    exact = _derivative(p, order + 1, y0)
    errors = []
    steps = (1e-3, 5e-4, 2.5e-4)
    for h in steps:
        fd = (_derivative(p, order, y0 + h) - _derivative(p, order, y0 - h)) / (2 * h)
        errors.append(abs(fd - exact))
    errors = np.asarray(errors)
    if errors.max() < 1e-11 * max(1.0, abs(exact)):
        return  # at roundoff already
    rate = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert rate == pytest.approx(2.0, abs=0.15)


def test_convexity_of_log_part():
    p = Potential(0.7, 0.0)
    ys = np.linspace(p.eps_guard, 1 - p.eps_guard, 1001)
    assert np.all(np.asarray(p.d2(ys)) > 0)


def test_symmetry_of_default_derivative():
    p = Potential(1.0, 3.0)
    ys = np.linspace(0.05, 0.95, 19)
    np.testing.assert_allclose(p.d1(ys), -np.asarray(p.d1(1.0 - ys)), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_singular_second_derivative_positive_everywhere(y):
    p = Potential(1.0, 0.0)
    assert p.d2(y) > 0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_derivative_antisymmetry_property(y):
    p = Potential(1.0, 3.0)
    assert p.d1(y) == pytest.approx(-p.d1(1.0 - y), rel=1e-10, abs=1e-10)


def test_clamping_counts_and_bounds():
    p = Potential(1.0, 0.0, eps_guard=1e-6)
    val = p.d1(1e-9)  # inside [0,1], below the guard
    assert val == p.d1(1e-6)
    y = np.array([1e-9, 0.5, 1.0 - 1e-9, 1e-6])  # two below/above the guard, one on it
    values, _, clamped = newton_terms(p, y)
    assert clamped == 2
    np.testing.assert_array_equal(values, p.d1(np.clip(y, 1e-6, 1.0 - 1e-6)))
    assert newton_terms(p, np.array([0.25, 0.5]))[2] == 0


def test_blowup_direction_near_endpoints():
    p = Potential(1.0, 0.0, eps_guard=1e-12)
    eps = 1e-8
    assert p.d1(eps) < -p.alpha * math.log(1.0 / eps) / 2.0
    assert p.d1(1.0 - eps) > p.alpha * math.log(1.0 / eps) / 2.0


def test_domain_errors():
    p = Potential(1.0, 3.0)
    with pytest.raises(DomainError):
        p.d1(-0.1)
    with pytest.raises(DomainError):
        p.d1(1.5)
    with pytest.raises(InvalidArgumentError):
        p.d1(float("nan"))


@pytest.mark.parametrize(
    "p, y",
    [
        (Potential(1.0, 3.0), np.linspace(0.05, 0.95, 19)),
        (Potential(0.0, -0.5), np.array([-3.0, 0.0, 0.4, 1.7])),
        (Potential(2.0, 1.0, eps_guard=1e-6), np.array([0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0, 1e-6])),
        (Potential(1.0, 3.0), np.array([])),
    ],
    ids=["singular", "quadratic", "clamped", "empty"],
)
def test_newton_terms_match_separate_evaluations(p, y):
    """One guarded evaluation gives f' and f'' bit for bit and counts the clamped entries."""
    d1, d2, clamped = newton_terms(p, y)
    assert np.array_equal(d1, p.d1(y)) and np.array_equal(d2, p.d2(y))
    assert d1.shape == d2.shape == y.shape
    outside = (y < p.eps_guard) | (y > 1.0 - p.eps_guard)
    assert clamped == (int(np.count_nonzero(outside)) if p.is_singular else 0)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_argument_guard(order):
    """NaN is rejected before range checks; only singular potentials have a domain."""
    singular, quadratic = Potential(1.0, 3.0), Potential(0.0, 3.0)
    for bad in ([0.5, np.nan], [np.inf, np.nan, 0.5], [np.nan, -np.inf], [np.nan]):
        for p in (singular, quadratic):
            with pytest.raises(InvalidArgumentError):
                _derivative(p, order, np.array(bad))
    for outside in ([0.5, np.inf], [-np.inf, 0.5], [0.5, -1e-300], [1.0 + 1e-15]):
        with pytest.raises(DomainError):
            _derivative(singular, order, np.array(outside))
        assert _derivative(quadratic, order, np.array(outside)).shape == (len(outside),)
    value = _derivative(singular, order, 0.3)
    assert isinstance(value, float)
    assert value == _derivative(singular, order, np.array([0.3]))[0]
    assert isinstance(_derivative(quadratic, order, np.float64(7.0)), float)


def test_quadratic_variant_unguarded():
    p = Potential(0.0, -0.5)
    assert p.d1(1.7) == pytest.approx(-0.5 * (1 - 2 * 1.7))
    assert p.d2(-3.0) == pytest.approx(1.0)
    assert p.d3(0.4) == 0.0
    assert newton_terms(p, np.array([-3.0, 0.0, 1.7]))[2] == 0


def test_invalid_construction():
    with pytest.raises(InvalidParameterError):
        Potential(-1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        Potential(1.0, 0.0, eps_guard=0.7)
    for value in (np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="^alpha must be finite"):
            Potential(value, 3.0)
        with pytest.raises(InvalidParameterError, match="^c must be finite"):
            Potential(1.0, value)


def test_potentials_are_immutable_and_problems_picklable():
    problem = build_problem(RunConfig())
    restored = pickle.loads(pickle.dumps(problem))
    copied = copy.deepcopy(problem)
    for other in (restored, copied):
        assert other.pf == problem.pf and other.pg == problem.pg
        np.testing.assert_array_equal(other.z_q, problem.z_q)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.pf.alpha = 2.0
