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
    hinner,
    linearized_operator,
    minimize,
    reduced_gradient,
    solve_adjoint,
    stationarity_norm,
    tracking_seeds,
)

from conftest import default_potentials, make_problem, random_control


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


@pytest.fixture
def quadratic_run(grid4, ops4):
    """minimize on the decoupled quadratic 0.5 beta |u|^2 at beta = 0.3, from a start inside the box."""
    pf, pg = default_potentials()
    prob = make_problem(grid4, ops4, TimeAxis(0.3, 6), pf, pg, betas=(0.0, 0.0, 0.0, 0.3, 0.3))
    start = random_control(grid4, prob.time, np.random.default_rng(5), scale=0.9)
    return lambda max_iters: minimize(prob, OptimizerConfig(max_iters=max_iters, stop_tol=1e-10), start)


def test_bb_step_is_one_over_beta_on_the_decoupled_quadratic(quadratic_run):
    """The gradient is beta u, so <s, y> / <y, y> = 1/beta: the second trial lands on the minimizer."""
    result = quadratic_run(200)
    assert result.reason == "stationarity"
    assert len(result.history) <= 3
    assert result.history[1].step == pytest.approx(1.0 / 0.3, rel=1e-12)


def test_first_trial_step_is_the_bb2_quotient(grid4, ops4):
    """history[k].step = <s, y> / <y, y> for the moves of control and gradient into iterate k."""
    pf, pg = default_potentials()
    prob = make_problem(grid4, ops4, TimeAxis(0.25, 5), pf, pg, targets="tanh", seed=3)
    start = random_control(grid4, prob.time, np.random.default_rng(9), scale=0.8)
    seen = []
    cfg = OptimizerConfig(max_iters=10, stop_tol=1e-12)
    history = minimize(prob, cfg, start, callback=lambda rec, u: seen.append(u)).history
    grads = []
    for u in seen:
        state = prob.solve(u)
        adjoint = solve_adjoint(
            linearized_operator(state, prob.potential, prob.ops), tracking_seeds(prob, state)
        )
        grads.append(reduced_gradient(prob, adjoint, u))
    assert history[0].step == cfg.initial_step
    for k in range(1, len(history)):
        s = ControlPair(seen[k].bulk - seen[k - 1].bulk, seen[k].surface - seen[k - 1].surface)
        y = ControlPair(grads[k].bulk - grads[k - 1].bulk, grads[k].surface - grads[k - 1].surface)
        sy = hinner(prob, s, y)
        assert sy > 0.0
        # the cold-started states here differ from the tangent-started ones within newton.tol
        assert history[k].step == pytest.approx(sy / hinner(prob, y, y), rel=1e-8)


def test_a_nonpositive_pairing_is_skipped(quadratic_run, monkeypatch):
    """A pair with <s, y> <= eps <y, y> is not stored, and gamma stays that of the newest stored pair.

    With every pairing negated the memory stays empty, so every Cauchy step
    is initial_step: on the quadratic each unit step is accepted. No tier-1
    problem has <s, y> <= 0, so the pairs are patched to make it so.
    """
    import acopt.optimizer

    memory = acopt.optimizer._Memory(4)
    s = np.array([1.0, 2.0, 0.0, -1.0])
    memory.push(s, 2.0 * s)
    memory.push(s, -s)
    assert (memory.k, memory.gamma) == (1, 0.5)

    push = acopt.optimizer._Memory.push
    monkeypatch.setattr(acopt.optimizer._Memory, "push", lambda self, s, y: push(self, s, -y))
    assert [r.step for r in quadratic_run(6).history] == [1.0] * 6


@pytest.fixture
def filled_memory(control_prob):
    """A memory past MEMORY pairs s, H s of a fixed SPD H, in the dimension of the n = 4 control."""
    import acopt.optimizer

    n = control_prob.u_lo.size + control_prob.u_lo_surf.size
    rng = np.random.default_rng(8)
    basis = rng.standard_normal((n, 3))
    hessian = np.diag(rng.uniform(0.5, 4.0, n)) + basis @ basis.T
    memory = acopt.optimizer._Memory(n)
    for _ in range(acopt.optimizer.MEMORY + 3):
        s = rng.standard_normal(n)
        memory.push(s, hessian @ s)
    assert memory.k == acopt.optimizer.MEMORY
    return memory, s, hessian @ s, rng


def test_compact_matrix_meets_the_secant_equation(filled_memory):
    memory, s, y, _ = filled_memory
    np.testing.assert_allclose(memory.times(s), y, rtol=0, atol=1e-11 * np.abs(y).max())


def test_woodbury_free_solve_equals_the_dense_reduced_solve(filled_memory):
    """(Z^T B Z)^-1 Z^T r from the 2k x 2k solve against Z^T B Z built one column at a time."""
    memory, _, _, rng = filled_memory
    n = memory.pairs.shape[-1]
    free = rng.uniform(size=n) < 0.6
    index = np.flatnonzero(free)
    reduced = np.empty((index.size, index.size))
    for col, i in enumerate(index):
        unit = np.zeros(n)
        unit[i] = 1.0
        reduced[:, col] = memory.times(unit)[free]
    r = rng.standard_normal(n)
    got = memory.free_solve(r, free)
    want = np.linalg.solve(reduced, r[free])
    np.testing.assert_allclose(got[free], want, rtol=0, atol=1e-10 * np.abs(want).max())
    assert (got[~free] == 0.0).all()


def test_an_ascent_direction_resets_the_memory(grid4, ops4, monkeypatch):
    """Where the subspace direction d has <g, d> >= 0 the memory is dropped and d is the Cauchy step.

    The direction is patched to the gradient itself, an ascent direction:
    each iteration then meets one stored pair, the one made since the reset.
    """
    import acopt.optimizer

    pf, pg = default_potentials()
    prob = make_problem(grid4, ops4, TimeAxis(0.25, 5), pf, pg, targets="tanh", seed=3)
    start = random_control(grid4, prob.time, np.random.default_rng(9), scale=0.8)
    held = []

    def ascent(memory, x, g, cauchy, lo, hi):
        held.append(memory.k)
        return g

    monkeypatch.setattr(acopt.optimizer._Memory, "direction", ascent)
    history = minimize(prob, OptimizerConfig(max_iters=10, stop_tol=1e-12), start).history
    assert held == [1] * (len(history) - 1)
    costs = [r.cost for r in history]
    assert len(costs) == 10 and all(c2 < c1 for c1, c2 in zip(costs, costs[1:]))
