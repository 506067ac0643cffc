import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acopt import (
    ControlPair,
    InvalidParameterError,
    OptimizerConfig,
    OptimizerStalledError,
    TimeAxis,
    clip_to_box,
    first_order,
    hinner,
    linearized_operator,
    minimize,
    optimality_report,
    reduced_gradient,
    solve_adjoint,
    stationarity_norm,
    tracking_seeds,
)
from acopt.cli_io import build_run, load_config

from conftest import default_potentials, make_problem, random_control

ROOT = Path(__file__).parents[1]


@pytest.fixture
def control_prob(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 6)
    return make_problem(grid4, ops4, time, pf, pg, betas=(0.0, 0.0, 0.0, 1.0, 1.0))


def test_project_box_clips_and_is_idempotent(control_prob, rng):
    time = control_prob.time
    grid = control_prob.grid
    u = random_control(grid, time, rng, scale=3.0)
    proj = clip_to_box(control_prob, u)
    assert proj.bulk.max() <= 1.0 and proj.bulk.min() >= -1.0
    again = clip_to_box(control_prob, proj)
    np.testing.assert_array_equal(again.bulk, proj.bulk)
    np.testing.assert_array_equal(again.surface, proj.surface)
    inside = ControlPair(np.full_like(u.bulk, 0.25), np.full_like(u.surface, -0.25))
    kept = clip_to_box(control_prob, inside)
    np.testing.assert_array_equal(kept.bulk, inside.bulk)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-10, max_value=10))
def test_project_box_scalar_cases(grid4, ops4, value):
    """Scalar box bounds clip every node of both control slots to min(hi, max(lo, value))."""
    pf, pg = default_potentials()
    prob = make_problem(grid4, ops4, TimeAxis(0.1, 1), pf, pg, box=(-1.0, 0.5))
    u = ControlPair(np.full_like(prob.u_lo, value), np.full_like(prob.u_lo_surf, value))
    proj = clip_to_box(prob, u)
    clipped = min(0.5, max(-1.0, value))
    assert (proj.bulk == clipped).all() and (proj.surface == clipped).all()


def test_decoupled_quadratic_converges_to_projected_zero(control_prob):
    grid, time = control_prob.grid, control_prob.time
    rng = np.random.default_rng(5)
    start = random_control(grid, time, rng, scale=0.9)
    cfg = OptimizerConfig(max_iters=200, stop_tol=1e-10)
    result = minimize(control_prob, cfg, start)
    # cost is 0.5(|u|^2_Q + |uG|^2_S) decoupled from the state: optimum clip(0) = 0
    assert np.abs(result.control.bulk).max() <= 1e-9
    assert np.abs(result.control.surface).max() <= 1e-9
    assert result.report.stationarity <= 1e-9


def test_monotone_descent_and_feasibility(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.25, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, targets="tanh", seed=3)
    rng = np.random.default_rng(9)
    start = random_control(grid4, time, rng, scale=2.0)  # outside the box on purpose
    seen = []
    cfg = OptimizerConfig(max_iters=25, stop_tol=1e-12)
    result = minimize(
        prob, cfg, start, callback=lambda rec, u: seen.append((u.bulk.copy(), u.surface.copy()))
    )
    costs = [r.cost for r in result.history]
    assert all(c2 < c1 for c1, c2 in zip(costs, costs[1:]))
    for bulk, surface in seen:
        assert bulk.max() <= 1.0 and bulk.min() >= -1.0
        assert surface.max() <= 1.0 and surface.min() >= -1.0


def test_fixed_point_characterization_at_convergence(control_prob):
    grid, time = control_prob.grid, control_prob.time
    cfg = OptimizerConfig(max_iters=300, stop_tol=1e-11)
    rng = np.random.default_rng(2)
    result = minimize(control_prob, cfg, random_control(grid, time, rng, scale=0.5))
    u = result.control
    state = control_prob.solve(u)
    op = linearized_operator(state, control_prob.potential, control_prob.ops)
    adj = solve_adjoint(op, tracking_seeds(control_prob, state))
    grad = reduced_gradient(control_prob, adj, u)
    stat = stationarity_norm(control_prob, u, grad)
    assert stat <= max(cfg.stop_tol, 1e-10)
    proj = clip_to_box(
        control_prob, ControlPair(u.bulk - grad.bulk, u.surface - grad.surface)
    )
    assert np.abs(proj.bulk - u.bulk).max() <= 1e-9


def test_descent_direction_validity(grid4, ops4, rng):
    """At non-stationary points the projected step is a descent direction."""
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 6)
    prob = make_problem(grid4, ops4, time, pf, pg, seed=7)
    for _ in range(3):
        u = clip_to_box(prob, random_control(grid4, time, rng, scale=0.8))
        state = prob.solve(u)
        adj = solve_adjoint(linearized_operator(state, prob.potential, ops4), tracking_seeds(prob, state))
        grad = reduced_gradient(prob, adj, u)
        if stationarity_norm(prob, u, grad) == 0:
            continue
        s = 1e-3
        cand = clip_to_box(
            prob, ControlPair(u.bulk - s * grad.bulk, u.surface - s * grad.surface)
        )
        move = ControlPair(cand.bulk - u.bulk, cand.surface - u.surface)
        assert hinner(prob, grad, move) < 0.0


def test_stalled_line_search_raises_with_context(control_prob):
    grid, time = control_prob.grid, control_prob.time
    rng = np.random.default_rng(4)
    start = random_control(grid, time, rng, scale=0.9)
    cfg = OptimizerConfig(
        max_iters=10, stop_tol=1e-14, initial_step=1e8, backtrack_factor=0.999,
        max_backtracks=2,
    )
    with pytest.raises(OptimizerStalledError) as info:
        minimize(control_prob, cfg, start)
    assert info.value.control is not None
    assert len(info.value.history) >= 1


def test_history_records_fields(control_prob):
    grid, time = control_prob.grid, control_prob.time
    rng = np.random.default_rng(6)
    cfg = OptimizerConfig(max_iters=12, stop_tol=1e-13)
    result = minimize(control_prob, cfg, random_control(grid, time, rng, scale=0.5))
    rec = result.history[0]
    assert rec.iter == 0
    assert rec.step == cfg.initial_step
    assert result.reason in ("stationarity", "roundoff", "max_iters")
    assert result.report is not None


@pytest.mark.parametrize("name", ["max_iters", "max_backtracks"])
def test_config_rejects_a_non_integer_count(name):
    """A count of 2.5 is refused by name, not left to fail in minimize's range()."""
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be a positive integer, got 2\.5$"):
        OptimizerConfig(**{name: 2.5})


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(armijo_c=1.5)
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(backtrack_factor=0.0)
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(stop_tol=-1.0)


def test_one_newton_step_lands_on_the_projected_minimizer(grid4, ops4, monkeypatch):
    """On the decoupled quadratic 0.5 beta |u|^2 the Hessian is beta I.

    The box [0.2, 1] excludes the unconstrained minimizer 0, so the
    projected minimizer is 0.2 everywhere. CG solves beta d = -g on the
    free set with one product, the epsilon-active entries move by -g, and
    the projection of the full step puts every entry on the bound.
    """
    import acopt.optimizer

    pf, pg = default_potentials()
    prob = make_problem(
        grid4, ops4, TimeAxis(0.3, 6), pf, pg, betas=(0.0, 0.0, 0.0, 0.3, 0.3), box=(0.2, 1.0)
    )
    start = random_control(grid4, prob.time, np.random.default_rng(5), scale=0.9)
    products = []
    hessian_apply = acopt.optimizer.hessian_apply

    def counted(*args):
        products.append(1)
        return hessian_apply(*args)

    monkeypatch.setattr(acopt.optimizer, "hessian_apply", counted)
    result = minimize(prob, OptimizerConfig(stop_tol=1e-12), start)
    assert result.reason == "stationarity"
    assert [r.step for r in result.history] == [1.0, 1.0]
    assert len(products) == 1
    # x + (P(x + d) - x) rounds to within one ulp of x, and |x| < 1
    for slot in (result.control.bulk, result.control.surface):
        np.testing.assert_allclose(slot, 0.2, rtol=0, atol=np.finfo(float).eps)


def _textbook_cg(matrix, rhs):
    """Residual norms of plain CG on matrix d = rhs from d = 0, one per product."""
    d, r = np.zeros_like(rhs), rhs.copy()
    p, norms = r.copy(), []
    for _ in range(rhs.size):
        hp = matrix @ p
        alpha = (r @ r) / (p @ hp)
        d, r_new = d + alpha * p, r - alpha * hp
        norms.append(np.linalg.norm(r_new))
        p, r = r_new + (r_new @ r_new) / (r @ r) * p, r_new
    return norms


@pytest.mark.parametrize("scale", [1e-2, 4.0])
def test_cg_stops_at_the_forcing_tolerance(scale):
    """CG stops at the first iterate with residual at most min(0.5, sqrt|r0|) |r0|.

    Below |r0| = 0.25 the forcing term is sqrt|r0| (relative 0.1 at 1e-2),
    above it 0.5. The reference is plain CG on the same SPD system.
    """
    from acopt.optimizer import _truncated_cg

    rng = np.random.default_rng(3)
    basis = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    matrix = basis @ np.diag(np.geomspace(1.0, 1e3, 40)) @ basis.T
    rhs = rng.standard_normal(40)
    rhs *= scale / np.linalg.norm(rhs)
    forcing = min(0.5, np.sqrt(scale)) * scale
    products = []

    def apply(p):
        products.append(1)
        return matrix @ p

    d = _truncated_cg(apply, rhs, np.dot)
    norms = _textbook_cg(matrix, rhs)
    stop = next(k for k, norm in enumerate(norms) if norm <= forcing)
    assert 0 < stop < 39 and len(products) == stop + 1
    residual = np.linalg.norm(rhs - matrix @ d)
    assert residual <= forcing and residual == pytest.approx(norms[stop], rel=1e-6)


def test_cg_stops_at_nonpositive_curvature():
    """A direction with p.Hp <= 0 stops CG with the iterate so far, or with rhs before any step."""
    from acopt.optimizer import _truncated_cg

    matrix = np.diag([2.0, -1.0])
    rhs = np.array([1.0, 1.0])
    first = 2.0 * rhs  # the first CG step (r.r) / (r.Hr) = 2 / 1; the next p has p.Hp = -72
    np.testing.assert_array_equal(_truncated_cg(lambda p: matrix @ p, rhs, np.dot), first)
    assert _truncated_cg(lambda p: -p, rhs, np.dot) is rhs


@pytest.fixture
def unit_weight_run(grid4, ops4):
    """minimize on the tanh tracking problem with unit control weights, and its first iterate.

    Returns (result, first, want): want is the projected gradient point
    P(u0 - g) at the clipped start u0, which the first iterate matches
    when the step is the unit projected gradient step. Only x + (P(x - g) - x)
    separates the two, by at most one ulp of |x| < 1.
    """
    pf, pg = default_potentials()
    prob = make_problem(
        grid4, ops4, TimeAxis(0.25, 5), pf, pg, betas=(1.0, 1.0, 1.0, 1.0, 1.0), targets="tanh", seed=3
    )
    start = random_control(grid4, prob.time, np.random.default_rng(9), scale=0.8)
    u0 = clip_to_box(prob, start)
    state = prob.solve(u0)
    adjoint = solve_adjoint(linearized_operator(state, prob.potential, prob.ops), tracking_seeds(prob, state))
    grad = reduced_gradient(prob, adjoint, u0)
    want = clip_to_box(prob, ControlPair(u0.bulk - grad.bulk, u0.surface - grad.surface))

    def run():
        seen = []
        result = minimize(prob, OptimizerConfig(max_iters=100), start, callback=lambda rec, u: seen.append(u))
        return result, seen[1], want

    return run


def _assert_descent_from_the_projected_gradient_point(result, first, want):
    assert result.reason == "stationarity"
    costs = [r.cost for r in result.history]
    assert all(c2 < c1 for c1, c2 in zip(costs, costs[1:]))
    assert result.history[1].step == 1.0
    for got, point in ((first.bulk, want.bulk), (first.surface, want.surface)):
        np.testing.assert_allclose(got, point, rtol=0, atol=np.finfo(float).eps)


def test_negative_curvature_takes_the_free_set_steepest_descent(unit_weight_run, monkeypatch):
    """With hessian_apply patched to -v, every CG run stops before its first step.

    The step is then -g on every entry (the free set's negative gradient,
    and -g on the active set as always), so the first trial is the
    projected gradient point P(u - g). The run stays a descent method and
    still stops by stationarity.
    """
    import acopt.optimizer

    truncated_cg, runs = acopt.optimizer._truncated_cg, []

    def recorded(apply, rhs, dot):
        runs.append((rhs, truncated_cg(apply, rhs, dot)))
        return runs[-1][1]

    monkeypatch.setattr(acopt.optimizer, "hessian_apply", lambda problem, op, weights, v: ControlPair(-v.bulk, -v.surface))
    monkeypatch.setattr(acopt.optimizer, "_truncated_cg", recorded)
    result, first, want = unit_weight_run()
    assert len(runs) == len(result.history) - 1 and all(got is rhs for rhs, got in runs)
    _assert_descent_from_the_projected_gradient_point(result, first, want)


def test_an_ascent_step_falls_back_to_the_projected_gradient(unit_weight_run, monkeypatch):
    """Where the projected step has <g, d> >= 0, d is the projected gradient step P(x - g) - x.

    CG is patched to return -rhs, the gradient on the free set: an ascent
    step. Every move is then the projected gradient step, so the first
    iterate is P(u - g) at t = 1, and the costs still decrease.
    """
    import acopt.optimizer

    monkeypatch.setattr(acopt.optimizer, "_truncated_cg", lambda apply, rhs, dot: -rhs)
    _assert_descent_from_the_projected_gradient_point(*unit_weight_run())


@pytest.mark.parametrize("max_iters, reason", [(50, "stationarity"), (1, "max_iters"), (500, "roundoff")])
def test_final_report_reuses_the_last_operator(grid4, ops4, monkeypatch, max_iters, reason):
    """Every iterate is evaluated in the loop, and at every stop the final report builds nothing again.

    One operator is built per history record, the last iterate's too, each
    after the one before it is freed, and none for the report, which is
    bit for bit the report formed afresh from the run's final state; the
    last record's stationarity is the report's. The roundoff stop is
    `configs/tracking.cfg` at grid.n = 4, time.m = 5 with a stop_tol of
    1e-300, which no stationarity reaches: after 9 records no step lowers
    the cost.
    """
    import acopt.objective

    if reason == "roundoff":
        cfg = load_config(ROOT / "configs" / "tracking.cfg")
        prob, config, start, _ = build_run(replace(cfg, grid_n=4, time_m=5, opt_stop_tol=1e-300))
        assert config.max_iters == max_iters
    else:
        pf, pg = default_potentials()
        time = TimeAxis(0.25, 5)
        prob = make_problem(grid4, ops4, time, pf, pg, targets="tanh", seed=3)
        start = random_control(grid4, time, np.random.default_rng(2), scale=0.5)
        config = OptimizerConfig(max_iters=max_iters, stop_tol=1e-8)
    original, built = acopt.objective.linearized_operator, []

    def counted(*args):
        assert all(ref() is None for ref in built), "an earlier iterate's operator is alive"
        operator = original(*args)
        built.append(weakref.ref(operator))
        return operator

    monkeypatch.setattr(acopt.objective, "linearized_operator", counted)
    result = minimize(prob, config, start)
    monkeypatch.undo()
    assert result.reason == reason and len(built) == len(result.history)
    fresh = first_order(prob, result.control, result.state)
    assert result.report == optimality_report(prob, result.control, system=fresh)
    assert result.history[-1].stationarity == result.report.stationarity
