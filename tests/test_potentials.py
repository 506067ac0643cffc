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


def test_clamping_counts_and_bounds(grid4):
    p = Potential(1.0, 0.0, eps_guard=1e-6)
    val = p.d1(1e-9)  # inside [0,1], below the guard
    assert val == p.d1(1e-6)
    slots = Potential.on(grid4, p, p)
    y = np.full(grid4.num_nodes, 0.5)
    y[:4] = [1e-9, 0.5, 1.0 - 1e-9, 1e-6]  # two below/above the guard, one on it
    values, _, clamped = slots.newton_terms(y)
    assert clamped == 2
    np.testing.assert_array_equal(values, p.d1(np.clip(y, 1e-6, 1.0 - 1e-6)))
    assert slots.newton_terms(np.full(grid4.num_nodes, 0.25))[2] == 0


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
def test_newton_terms_match_separate_evaluations(p, y, grid4):
    """One guarded evaluation gives f' and f'' bit for bit and counts the clamped entries."""
    y = np.repeat(y[:, None], grid4.num_nodes, axis=1)  # one row per value, on every slot
    d1, d2, clamped = Potential.on(grid4, p, p).newton_terms(y)
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


def test_quadratic_variant_unguarded(grid4):
    p = Potential(0.0, -0.5)
    assert p.d1(1.7) == pytest.approx(-0.5 * (1 - 2 * 1.7))
    assert p.d2(-3.0) == pytest.approx(1.0)
    assert p.d3(0.4) == 0.0
    assert Potential.on(grid4, p, p).newton_terms(np.resize([-3.0, 0.0, 1.7], grid4.num_nodes))[2] == 0


SLOT_PAIRS = {
    "singular-singular": (Potential(1.0, 3.0), Potential(2.0, -1.5)),
    "singular-quadratic": (Potential(1.0, 3.0), Potential(0.0, -0.5)),
    "quadratic-singular": (Potential(0.0, 0.0), Potential(0.7, 2.0)),
    "quadratic-quadratic": (Potential(0.0, -0.5), Potential(0.0, 2.0)),
    "two-guards": (Potential(1.0, 3.0, eps_guard=1e-9), Potential(1.5, 2.0, eps_guard=1e-3)),
}


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _written_out(p, order, y):
    """One potential's derivative of the given order, clamped and written out term by term.

    The reference for the per-slot evaluator, which scalar coefficients
    go through too: the same operations in the same order, with no log
    term at alpha = 0.
    """
    a, c = p.alpha, p.smooth_c
    if a:
        y = np.clip(y, p.eps_guard, 1.0 - p.eps_guard)
    q = 1.0 - y
    if order == 0:
        return a * (y * np.log(y) + q * np.log(q)) + c * y * q if a else c * y * q
    if order == 1:
        return a * np.log(y / q) + c * (1.0 - 2.0 * y) if a else c * (1.0 - 2.0 * y)
    if order == 2:
        return a / (y * q) - 2.0 * c if a else np.full_like(y, -2.0 * c)
    return a * (2.0 * y - 1.0) / (y * y * q * q) if a else np.zeros_like(y)


@pytest.mark.parametrize("pair", SLOT_PAIRS.values(), ids=SLOT_PAIRS)
def test_slot_potential_is_each_slots_potential_bit_for_bit(grid4, pair):
    """f at the interior slots and g on the cycle: values, derivatives and clamp count.

    Each slot equals its potential's written-out formula, and `Potential`'s
    own evaluator, bit for bit. Row 0 holds interior values and row 1 the endpoints and the values
    between the two guards of "two-guards", on interior and cycle slots
    alike. A third row goes outside [0, 1] on the slots of a quadratic
    potential only, which no singular check may touch.
    """
    pf, pg = pair
    inner, cycle, N = grid4.interior_nodes, grid4.boundary_cycle, grid4.num_nodes
    y = np.empty((3, N))
    y[0] = np.linspace(0.05, 0.95, N)
    y[1] = np.resize([0.0, 1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0], N)
    y[2] = 0.5
    y[2, inner[::2]] = -0.5 if not pf.is_singular else 0.5
    y[2, cycle[::2]] = 1.5 if not pg.is_singular else 0.5
    slots = Potential.on(grid4, pf, pg)
    for order in range(4):
        out = _derivative(slots, order, y)
        for p, nodes in ((pf, inner), (pg, cycle)):
            reference = _written_out(p, order, y[:, nodes])
            assert _same_bits(out[:, nodes], reference)
            assert _same_bits(_derivative(p, order, y[:, nodes]), reference)
    d1, d2, clamped = slots.newton_terms(y)
    assert _same_bits(d1, slots.d1(y)) and _same_bits(d2, slots.d2(y))

    def outside(p, v):
        return int(np.count_nonzero((v < p.eps_guard) | (v > 1.0 - p.eps_guard))) if p.is_singular else 0

    expected = outside(pf, y[:, inner]) + outside(pg, y[:, cycle])
    assert clamped == expected
    assert expected > 0 or not slots.is_singular  # row 1 reaches past every singular guard
    singular = [p for p in pair if p.is_singular]
    assert slots.interval == (
        max((p.eps_guard for p in singular), default=-np.inf),
        min((1.0 - p.eps_guard for p in singular), default=np.inf),
    )


@pytest.mark.parametrize("pair", SLOT_PAIRS.values(), ids=SLOT_PAIRS)
@pytest.mark.parametrize("side", ["interior", "cycle"])
def test_slot_potential_argument_guard(grid4, pair, side):
    """NaN on any slot raises InvalidArgumentError; outside [0, 1] raises DomainError on singular slots only."""
    p = pair[0] if side == "interior" else pair[1]
    node = (grid4.interior_nodes if side == "interior" else grid4.boundary_cycle)[1]
    slots = Potential.on(grid4, *pair)
    evaluators = [slots.value, slots.d1, slots.d2, slots.d3, slots.newton_terms]
    for bad in (np.nan, -0.25, 1.25):
        y = np.full((2, grid4.num_nodes), 0.5)
        y[1, node] = bad
        for evaluate in evaluators:
            if np.isnan(bad):
                with pytest.raises(InvalidArgumentError):
                    evaluate(y)
            elif p.is_singular:
                with pytest.raises(DomainError):
                    evaluate(y)
            else:
                evaluate(y)


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


@pytest.mark.parametrize(
    "coefficients, name",
    [
        ((np.array([1.0, np.nan]), 3.0), "alpha"),
        ((np.array([1.0, -2.0]), 3.0), "alpha"),
        ((1.0, np.array([3.0, np.inf])), "c"),
        ((1.0, np.array([np.nan, 3.0])), "c"),
        ((1.0, 3.0, np.array([1e-9, 0.7])), "eps_guard"),
        ((1.0, 3.0, np.array([0.0, 1e-9])), "eps_guard"),
    ],
    ids=["alpha-nan", "alpha-negative", "c-inf", "c-nan", "eps-above", "eps-zero"],
)
def test_per_slot_construction_rejects_each_bad_entry(coefficients, name):
    """One bad entry among per-slot coefficients fails the rule its scalar would, by name."""
    with pytest.raises(InvalidParameterError, match=f"^{name} must"):
        Potential(*coefficients)


def test_potentials_are_immutable_and_problems_picklable():
    problem = build_problem(RunConfig())
    restored = pickle.loads(pickle.dumps(problem))
    copied = copy.deepcopy(problem)
    for other in (restored, copied):
        assert other.pf == problem.pf and other.pg == problem.pg
        np.testing.assert_array_equal(other.z_q, problem.z_q)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.pf.alpha = 2.0
