from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from acopt import (
    ControlPair,
    DimensionMismatchError,
    DomainError,
    Potential,
    SolverFailureError,
    TimeAxis,
    Trajectory,
    build_grid,
    build_operators,
    energy,
    invariant_interval,
    solve_state,
    linearized_operator,
    solve_linearized,
    trajectory_space_time_norm,
    trajectory_sup_norm,
)
from acopt.cli_io import RunConfig, build_control, build_problem, load_config
from acopt.geometry import StepMatrix
from acopt.objective import hnorm
from acopt.pde_state import slot_fields

from conftest import default_potentials, make_problem, random_control

ROOT = Path(__file__).parents[1]


def constant_control(grid, time, bulk_value, surf_value):
    u = ControlPair.zeros(grid, time)
    u.bulk[:] = bulk_value
    u.surface[:] = surf_value
    return u


def test_half_is_fixed_point(grid4, ops4):
    pf, pg = default_potentials()  # f'(0.5) = g'(0.5) = 0 by symmetry
    time = TimeAxis(0.5, 10)
    init = np.full(grid4.num_nodes, 0.5)
    traj = solve_state(
        grid4, ops4, time, Potential.on(grid4, pf, pg), ControlPair.zeros(grid4, time), init
    )
    assert np.abs(traj.values - 0.5).max() == 0.0
    assert traj.info["clamp_events"] == 0


def test_stationary_solution_any_constant(grid4, ops4):
    pf, pg = Potential(1.0, 3.0), Potential(1.0, 2.0)
    time = TimeAxis(0.3, 6)
    y_star = 0.37
    u = constant_control(grid4, time, pf.d1(y_star), pg.d1(y_star))
    init = np.full(grid4.num_nodes, y_star)
    traj = solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init)
    assert np.abs(traj.values - y_star).max() < 1e-11


def test_constant_field_matches_scalar_ode():
    """Spatially constant data reduce the system to a scalar ODE in time."""
    grid, time = None, TimeAxis(0.5, 400)
    from acopt import build_grid, build_operators

    grid = build_grid(4)
    ops = build_operators(grid)
    pf, pg = default_potentials()  # same potential on both sides keeps fields constant
    u_val = 0.25
    u = constant_control(grid, time, u_val, u_val)
    init = np.full(grid.num_nodes, 0.3)
    traj = solve_state(grid, ops, time, Potential.on(grid, pf, pg), u, init)
    assert np.ptp(traj.values, axis=1).max() < 1e-12  # stays spatially constant

    sol = solve_ivp(
        lambda t, y: u_val - np.asarray(pf.d1(y)),
        (0.0, time.T),
        [0.3],
        rtol=1e-12,
        atol=1e-13,
        dense_output=True,
    )
    exact = sol.sol(time.levels)[0]
    err = np.abs(traj.values[:, 0] - exact).max()
    assert err < 3.0 * time.dt  # implicit Euler is first order
    # and the error really is O(dt): halving dt roughly halves it
    time2 = TimeAxis(0.5, 800)
    u2 = constant_control(grid, time2, u_val, u_val)
    traj2 = solve_state(grid, ops, time2, Potential.on(grid, pf, pg), u2, init)
    err2 = np.abs(traj2.values[:, 0] - sol.sol(time2.levels)[0]).max()
    assert err2 < 0.7 * err


def test_energy_constant_minimizer(grid8, ops8):
    pf, pg = default_potentials()
    y_star = 0.07072018167994482  # interior minimizer of the double well
    state = np.full(grid8.num_nodes, y_star)
    expected = (
        float(pf.value(y_star)) * (1.0 - grid8.h) ** 2 + float(pg.value(y_star)) * 4.0
    )
    potential = Potential.on(grid8, pf, pg)
    assert energy(grid8, ops8, potential, state) == pytest.approx(expected, rel=1e-13)


def test_energy_constant_half_closed_form(grid8, ops8):
    # f(0.5) = ln(0.5) + 3/4; bulk potential weight (1-h)^2, surface weight 4
    pf, pg = default_potentials()
    state = np.full(grid8.num_nodes, 0.5)
    f_half = np.log(0.5) + 0.75
    expected = f_half * ((1.0 - grid8.h) ** 2 + 4.0)
    potential = Potential.on(grid8, pf, pg)
    assert energy(grid8, ops8, potential, state) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [4, 5, 8, 16, 32, 64])
def test_energy_dirichlet_part_is_an_exact_edge_sum(n):
    """Zero potentials leave the Dirichlet edge sum: exactly 0 on a constant, 3/2 on z = x.

    z = x has unit gradient: the bulk contributes 1/2, the cycle's two
    horizontal sides 1/2 each, its vertical sides nothing.
    """
    grid = build_grid(n)
    ops = build_operators(grid)
    zero = Potential.on(grid, Potential(0.0, 0.0), Potential(0.0, 0.0))
    assert energy(grid, ops, zero, np.full(grid.num_nodes, 3.7)) == 0.0
    assert energy(grid, ops, zero, grid.bulk_nodes[:, 0]) == 1.5


def test_energy_matches_independent_quadrature(grid4, ops4, rng):
    """Independent re-summation with explicit edge loops."""
    pf, pg = default_potentials()
    z = rng.uniform(0.2, 0.8, size=grid4.num_nodes)
    n, h = grid4.n, grid4.h
    side = n + 1

    def gid(i, j):
        return j * side + i

    grad = 0.0
    for j in range(side):  # horizontal differences
        wj = h / 2 if j in (0, n) else h
        for i in range(n):
            grad += 0.5 * wj * (z[gid(i + 1, j)] - z[gid(i, j)]) ** 2 / h
    for i in range(side):  # vertical differences
        wi = h / 2 if i in (0, n) else h
        for j in range(n):
            grad += 0.5 * wi * (z[gid(i, j + 1)] - z[gid(i, j)]) ** 2 / h
    cyc = grid4.boundary_cycle
    tr = z[cyc]
    for k in range(len(cyc)):
        grad += 0.5 * (tr[(k + 1) % len(cyc)] - tr[k]) ** 2 / h
    pot = sum(
        h * h * float(pf.value(z[gid(i, j)])) for i in range(1, n) for j in range(1, n)
    )
    pot += sum(h * float(pg.value(v)) for v in tr)
    assert energy(grid4, ops4, Potential.on(grid4, pf, pg), z) == pytest.approx(
        grad + pot, rel=1e-12
    )


def test_trajectory_norms_match_per_level_loops(grid4, rng):
    """Both trajectory norms equal their per-level sums up to summation order."""
    time = TimeAxis(0.7, 6)
    a = Trajectory(rng.uniform(-1.0, 1.0, size=(time.m + 1, grid4.num_nodes)), grid4, time)
    b = Trajectory(rng.uniform(-1.0, 1.0, size=(time.m + 1, grid4.num_nodes)), grid4, time)
    diff = a.values - b.values
    theta = time.weights()
    sup_sq, st_sq = 0.0, 0.0
    for k in range(time.m + 1):
        bulk = float(np.dot(diff[k] * grid4.bulk_weights, diff[k]))
        trace = diff[k][grid4.boundary_cycle]
        sup_sq = max(sup_sq, bulk)
        st_sq += theta[k] * (bulk + float(np.dot(trace * grid4.surface_weights, trace)))
    diff_traj = Trajectory(diff, grid4, time)
    assert trajectory_sup_norm(diff_traj) == pytest.approx(np.sqrt(sup_sq), rel=1e-14)
    assert trajectory_space_time_norm(diff_traj) == pytest.approx(np.sqrt(st_sq), rel=1e-14)
    ones = Trajectory(np.ones((time.m + 1, grid4.num_nodes)), grid4, time)
    # |Q| + |Sigma| = T * (1 + 4)
    assert trajectory_space_time_norm(ones) == pytest.approx(np.sqrt(time.T * 5.0), rel=1e-14)


def test_energy_domain_error_at_endpoint(grid4, ops4):
    pf, pg = default_potentials()
    z = np.full(grid4.num_nodes, 0.5)
    z[3] = 1.0
    with pytest.raises(DomainError):
        energy(grid4, ops4, Potential.on(grid4, pf, pg), z)


def test_energy_dissipation_zero_control():
    from acopt import build_grid, build_operators

    grid = build_grid(16)
    ops = build_operators(grid)
    time = TimeAxis(0.5, 50)  # dt = 1e-2
    pf, pg = default_potentials()
    x, y = grid.bulk_nodes[:, 0], grid.bulk_nodes[:, 1]
    init = 0.5 + 0.25 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
    potential = Potential.on(grid, pf, pg)
    traj = solve_state(grid, ops, time, potential, ControlPair.zeros(grid, time), init)
    E = [energy(grid, ops, potential, traj.values[k]) for k in range(time.m + 1)]
    increments = np.diff(E)
    assert increments.max() <= 1e-10


def test_maximum_principle_interval_and_confinement(grid8, ops8, rng):
    pf, pg = default_potentials()
    r_lo, r_hi = invariant_interval(pf, pg, 1.0, 0.2, 0.8)
    assert 0.0 < r_lo <= 0.2 and 0.8 <= r_hi < 1.0
    assert float(pf.d1(r_lo)) + 1.0 <= 0.0
    assert float(pf.d1(r_hi)) - 1.0 >= 0.0

    time = TimeAxis(0.5, 25)
    u = random_control(grid8, time, rng, scale=1.0)
    init = rng.uniform(0.2, 0.8, size=grid8.num_nodes)
    traj = solve_state(grid8, ops8, time, Potential.on(grid8, pf, pg), u, init)
    assert traj.values.min() >= r_lo
    assert traj.values.max() <= r_hi
    assert traj.info["clamp_events"] == 0


def test_stability_ratio_envelope(grid4, ops4):
    """State differences scale with control differences, with a tame spread."""
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 10)
    rng = np.random.default_rng(42)
    init = np.full(grid4.num_nodes, 0.5)
    prob = make_problem(grid4, ops4, time, pf, pg)
    ratios = []
    for _ in range(20):
        u1 = random_control(grid4, time, rng, scale=1.0)
        u2 = random_control(grid4, time, rng, scale=1.0)
        y1 = solve_state(grid4, ops4, time, prob.potential, u1, init)
        y2 = solve_state(grid4, ops4, time, prob.potential, u2, init)
        du = ControlPair(u1.bulk - u2.bulk, u1.surface - u2.surface)
        dy = Trajectory(y1.values - y2.values, grid4, time)
        ratios.append(trajectory_sup_norm(dy) / hnorm(prob, du))
    ratios = np.asarray(ratios)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() < 10.0 * np.median(ratios)


def test_newton_failure_is_reported(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.25, 20)  # a solvable step that one Newton iteration does not finish
    init = np.full(grid4.num_nodes, 0.5)
    u = constant_control(grid4, time, 0.9, 0.9)
    with pytest.raises(SolverFailureError, match="after 1 iterations") as info:
        solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init, max_newton=1)
    assert info.value.step == 1
    assert info.value.residual is not None


def test_singular_newton_jacobian_raises(grid4):
    """dt = 1 and f'' = g'' = -1 with no coupling: every Jacobian row vanishes."""
    N = grid4.num_nodes
    pf = pg = Potential(alpha=0.0, smooth_c=0.5)
    time = TimeAxis(1.0, 1)

    class NoCoupling:
        coupled = sp.csr_matrix((N, N))
        step = StepMatrix(grid4, coupled)

    init = np.full(N, 0.3)
    with pytest.raises(SolverFailureError) as info:
        solve_state(
            grid4, NoCoupling(), time, Potential.on(grid4, pf, pg), ControlPair.zeros(grid4, time), init
        )
    assert info.value.step == 1
    assert info.value.residual == pytest.approx(0.2)


def test_state_solve_unaffected_by_scipy_reads_of_coupled():
    """abs(coupled) must not reorder the operator in place (bit-identical states)."""
    grid = build_grid(8)
    ops = build_operators(grid)
    pf, pg = default_potentials()
    time = TimeAxis(0.2, 5)
    u = random_control(grid, time, np.random.default_rng(3))
    init = np.full(grid.num_nodes, 0.4)
    before = solve_state(grid, ops, time, Potential.on(grid, pf, pg), u, init)
    abs(ops.coupled)
    after = solve_state(grid, ops, time, Potential.on(grid, pf, pg), u, init)
    assert np.array_equal(before.values, after.values)
    assert before.info == after.info


def test_clamp_warning_for_near_endpoint_data(grid4, ops4):
    """Initial data inside (0,1) but within the guard distance gets clamped.

    The one clamped node is counted by the first residual and the first
    Jacobian evaluation, whether or not pf and pg are one object.
    """
    from acopt import BoundsViolationWarning

    time = TimeAxis(0.01, 2)
    init = np.full(grid4.num_nodes, 0.5)
    init[0] = 1e-8  # legal initial datum, closer to 0 than the guard
    pf = Potential(1.0, 3.0, eps_guard=1e-6)
    for pg in (Potential(1.0, 3.0, eps_guard=1e-6), pf):
        with pytest.warns(BoundsViolationWarning, match="clamped 2 potential evaluations"):
            traj = solve_state(
                grid4, ops4, time, Potential.on(grid4, pf, pg), ControlPair.zeros(grid4, time), init
            )
        assert traj.info["clamp_events"] == 2


def test_newton_jacobian_reuses_residual_evaluation(grid4, ops4, grid16, ops16, rng, monkeypatch):
    """Each residual makes one guarded evaluation over all slots; f'' is formed once per factor.

    Logs the derivatives of each `Potential.newton_terms` call ("1" for f',
    "2" for f'', "12" for both) and "F" per step factorization. A level
    logs the evaluation at its start, then one per iteration, the
    candidate's. Below break-even (n = 4) every iteration factors at the
    iterate it starts from, so each evaluation forms f' and f'' and the
    Jacobian reuses that f'': each level of `_guess_setup` goes "12" +
    ("F" + "12") * 3. In the chord regime (n = 16) a candidate forms f'
    alone, and f'' is formed at the one iterate where the factor is built,
    just before its "F". Followed by hand: every iteration accepts its
    first candidate. Level 1 takes one damped Newton step (residual 317 to
    0.12), a plain chord step to 5.4e-4 and four mixed chord steps (2.3e-6,
    1.6e-8, 1.2e-10, 9.8e-13); levels 2 to 4 finish on that same factor
    with six chord steps each (3.3e-13, 1.9e-13, 1.4e-13 last):
    "1" + "2F1" + "1" * 5, then "1" + "1" * 6 per level.
    """
    log = []
    terms, factor = Potential.newton_terms, StepMatrix.factor

    def counted_terms(self, y, names=("d1", "d2")):
        log.append("".join(name[1] for name in names))
        return terms(self, y, names)

    def counted_factor(self, *args, **kwargs):
        log.append("F")
        return factor(self, *args, **kwargs)

    monkeypatch.setattr(Potential, "newton_terms", counted_terms)
    monkeypatch.setattr(StepMatrix, "factor", counted_factor)
    pf, pg, time, u, init = _guess_setup(grid4)
    traj = solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init)
    assert traj.info["newton_iters"] == traj.info["factorizations"] == [3] * time.m
    assert log == ["12", "F", "12", "F", "12", "F", "12"] * time.m

    log.clear()
    time = TimeAxis(0.2, 4)
    init = rng.uniform(0.3, 0.7, grid16.num_nodes)
    traj = solve_state(
        grid16, ops16, time, Potential.on(grid16, pf, pg), random_control(grid16, time, rng), init
    )
    iters = traj.info["newton_iters"]
    assert iters == [6, 6, 6, 6]
    assert traj.info["factorizations"] == [1, 0, 0, 0]
    chord_levels = "".join("1" + "1" * n for n in iters[1:])
    assert "".join(log) == "1" + "2F1" + "1" * (iters[0] - 1) + chord_levels


def _step_residual(grid, ops, time, pf, pg, control, traj):
    """Max-norm residual of every implicit Euler step, from the public operators."""
    new, old = traj.values[1:], traj.values[:-1]
    inner, cycle = grid.interior_nodes, grid.boundary_cycle
    res = (new - old) / time.dt + (ops.coupled @ new.T).T
    res[:, inner] += pf.d1(new[:, inner]) - control.bulk[1:, inner]
    res[:, cycle] += pg.d1(new[:, cycle]) - control.surface[1:]
    return np.abs(res).max()


def test_chord_counts_hand_checked(grid16, ops16):
    """Pinned counters of a run on a carried factor whose iterates were followed by hand.

    Each level stops at newton_tol = 1e-11 here, since its floor, the
    rounding floor at its start / CHORD_CONTRACTION, is 9.7e-13 to 1.2e-12.
    A level's first chord step is plain, and each later one mixes the last
    two. Level 1: the damped Newton step takes the residual from 333 to
    0.104 on the solve's one factorization; chord steps on that factor go
    to 2.3e-4 (plain), 7.5e-7, 2.8e-9, 1.2e-11, then 1.5e-13: 6 iterations.
    Level 2 starts at 328 and stays on the same factor: 0.106 (plain),
    3.8e-4, 8.0e-7, 3.0e-9, 1.4e-11, 1.2e-13: 6 iterations, no
    factorization. Levels 3 to 6 start from the time extrapolation
    (residuals 6.4, 1.9, 1.7, 1.6). Their fifth chord steps reach 4.3e-12,
    1.6e-12, 3.0e-12 and 2.6e-12: each meets newton_tol, but after a
    contraction by more than CHORD_CONTRACTION it still lies above the
    floor, so each level takes a sixth chord step, to about 1e-13: 6
    iterations each. Every step residual lies below 1e-12.
    """
    pf, pg, time, u, init = _guess_setup(grid16)
    traj = solve_state(grid16, ops16, time, Potential.on(grid16, pf, pg), u, init)
    assert traj.info["newton_iters"] == [6, 6, 6, 6, 6, 6]
    assert traj.info["factorizations"] == [1, 0, 0, 0, 0, 0]
    assert traj.info["clamp_events"] == 0
    assert _step_residual(grid16, ops16, time, pf, pg, u, traj) <= 1e-12


def _log_evaluations(monkeypatch, events):
    """Append ("E", y, derivatives) per guarded evaluation (the derivatives named "1" for f',
    "2" for f''), ("F", c) per factorization and ("S", x) per step solve to events."""
    terms, factor, solve = Potential.newton_terms, StepMatrix.factor, StepMatrix.solve

    def logged_terms(self, y, names=("d1", "d2")):
        out = terms(self, y, names)
        events.append(("E", y, "".join(name[1] for name in names), out))
        return out

    def logged_factor(self, c, *args, **kwargs):
        events.append(("F", c))
        return factor(self, c, *args, **kwargs)

    def logged_solve(self, *args):
        x = solve(self, *args)
        events.append(("S", x))
        return x

    monkeypatch.setattr(Potential, "newton_terms", logged_terms)
    monkeypatch.setattr(StepMatrix, "factor", logged_factor)
    monkeypatch.setattr(StepMatrix, "solve", logged_solve)


def test_dropped_chord_candidate_refactors_at_the_iterate(grid16, ops16, monkeypatch):
    """A chord candidate that does not lower the residual is dropped.

    The iteration then refactors at the iterate the chord step started from,
    not at the dropped candidate, takes a damped Newton step there, and the
    level still converges to newton_tol. A candidate's evaluation forms f'
    alone, and the factorization forms f'' at its iterate. Followed by
    hand: the damped Newton step takes the residual from 5.1 to 2.6, the
    (plain) chord step from there does not lower it, and the Newton step
    at 2.6 reaches 0.33.
    """
    events = []
    _log_evaluations(monkeypatch, events)
    pf, pg = default_potentials()
    time = TimeAxis(0.2, 1)
    u = random_control(grid16, time, np.random.default_rng(8), scale=5.0)
    traj = solve_state(
        grid16, ops16, time, Potential.on(grid16, pf, pg), u, np.full(grid16.num_nodes, 0.9)
    )

    # start, f'' at the start, factor, Newton step, its candidate (accepted), chord step,
    # its candidate (dropped), f'' at the Newton candidate, refactor
    kinds = [event[0] + (event[2] if event[0] == "E" else "") for event in events]
    assert kinds[:9] == ["E1", "E2", "F", "S", "E1", "S", "E1", "E2", "F"]
    newton_candidate, chord_candidate, refactored_at = events[4][1], events[6][1], events[7][1]
    assert np.array_equal(refactored_at, newton_candidate)
    assert not np.array_equal(refactored_at, chord_candidate)
    assert np.array_equal(events[8][1], events[7][3][0])  # the factor's f'' is the one formed there
    assert traj.info["factorizations"][0] >= 2
    assert _step_residual(grid16, ops16, time, pf, pg, u, traj) <= 1e-11


def test_rejected_mixed_candidate_falls_back_to_the_chord_candidate(grid16, ops16, monkeypatch):
    """A mixed chord candidate that does not lower the residual gives way to the plain one.

    The mixed candidate is z1 + d1 - gamma ((z1 - z0) + (d1 - d0)) from the
    last two chord steps d0 at z0 and d1 at z1 on one factor, with gamma =
    <d1 - d0, d1> / |d1 - d0|^2 in numpy sums. Followed by hand (n = 16,
    one level from 0.1 under a control of scale 20; 19 iterations, 14
    factorizations): the last Newton step reaches 3.0e-8 and the plain
    chord step from there 7.5e-12. That meets newton_tol, but it
    contracted by more than CHORD_CONTRACTION and lies above the floor
    (about 1e-12), so the level steps again: the mixed candidate reads
    1.2e-11 and is rejected, the plain chord candidate z1 + d1 reads 1.0e-13
    and is accepted, and the level ends there without refactoring.
    """
    events = []
    _log_evaluations(monkeypatch, events)
    pf, pg = default_potentials()
    time = TimeAxis(0.2, 1)
    u = random_control(grid16, time, np.random.default_rng(1), scale=20.0)
    traj = solve_state(
        grid16, ops16, time, Potential.on(grid16, pf, pg), u, np.full(grid16.num_nodes, 0.1)
    )
    assert traj.info["newton_iters"] == [19]
    assert traj.info["factorizations"] == [14]

    # after the last factorization: the Newton step and its candidate, the first chord step
    # and its (plain) candidate, then the second chord step's mixed and plain candidates
    kinds = "".join(event[0] for event in events[-8:])
    assert kinds == "FSESESEE"
    (_, d0), (_, z1, *_), (_, d1), (_, mixed, *_), (_, plain, *_) = events[-5:]
    z0 = events[-6][1]
    assert np.array_equal(z1, z0 + d0)
    d_step = d1 - d0
    gamma = np.sum(d_step * d1) / np.sum(d_step * d_step)
    assert np.array_equal(mixed, z1 + (d1 - gamma * ((z1 - z0) + d_step)))
    assert np.array_equal(plain, z1 + d1)
    assert np.array_equal(traj.values[1], plain)
    assert _step_residual(grid16, ops16, time, pf, pg, u, traj) <= 1e-12


def test_chord_regime_stops_at_the_rounding_floor():
    """tracking.cfg at grid.n = 16 with newton.tol = 1e-14, far below roundoff, solves.

    Each level stops at its rounding floor / CHORD_CONTRACTION where that
    lies above newton_tol, so every step residual is within 4 times the
    rounding floor at its solution (0.26 to 3.0 times here, the floor
    3.8e-13 to 4.0e-13). Stopping on newton_tol alone, level 1 stalled at
    1.1e-13 after 50 iterations.
    """
    cfg = replace(load_config(ROOT / "configs" / "tracking.cfg"), grid_n=16, newton_tol=1e-14)
    problem = build_problem(cfg)
    grid, ops, time = problem.grid, problem.ops, problem.time
    assert ops.step.factor_cost > 1.0
    control = build_control(cfg, problem)
    traj = problem.solve(control)
    new, old = traj.values[1:], traj.values[:-1]
    source = slot_fields(grid, control.bulk, control.surface)[1:]
    d1 = problem.potential.d1(new)
    residual = np.abs((new - old) / time.dt + (ops.coupled @ new.T).T + d1 - source).max(axis=1)
    terms = (np.abs(new) + np.abs(old)) / time.dt + (abs(ops.coupled) @ np.abs(new).T).T
    floor = np.finfo(float).eps * (terms + np.abs(d1) + np.abs(source)).max(axis=1)
    assert (residual <= 4.0 * floor).all(), residual / floor


def test_refactor_rule_prices_the_factor(grid16, ops16):
    """A chord step keeps its factor while finishing the level on it costs at most kappa more steps.

    kappa(17) = 1.22 at n = 16 (band) and 22.2 at n = 128 (SuperLU, whose
    in-solve ratio measured 19.0-20.7 there). A step that halves the
    residual from 1e-9 leaves about 5.6 chord steps at that rate against
    kappa + 0.85 on a fresh factor: it refactors at n = 16 and keeps the
    factor at n = 128. Followed by hand on the run of
    `test_dropped_chord_candidate_refactors_at_the_iterate`, after the
    dropped candidate and the Newton step to 0.33: a chord step to 0.19
    (contraction 0.59) and, after the next Newton step, one from 8.2e-3 to
    6.4e-4 (0.079, 7.1 steps left against kappa + 3.9) both refactor; the
    Newton step to 7.2e-8 is followed by chord steps to 1.5e-11 and, mixing
    the two, 1.3e-13 on its factor: 8 iterations, 4 factorizations.
    """
    from acopt.pde_state import _keeps_factor

    kappa16, kappa128 = ops16.step.factor_cost, build_operators(build_grid(128)).step.factor_cost
    assert 1.0 < kappa16 < 1.3 and 19.0 < kappa128 < 23.0
    assert not _keeps_factor(5e-10, 1e-9, 1e-11, kappa16)
    assert _keeps_factor(5e-10, 1e-9, 1e-11, kappa128)
    assert _keeps_factor(1e-5, 1e-3, 1e-11, kappa16)  # contraction 1/100, as a fresh factor
    assert _keeps_factor(9e-12, 1e-11 * 0.99, 1e-11, kappa16)  # under newton_tol: always kept

    pf, pg = default_potentials()
    time = TimeAxis(0.2, 1)
    u = random_control(grid16, time, np.random.default_rng(8), scale=5.0)
    traj = solve_state(
        grid16, ops16, time, Potential.on(grid16, pf, pg), u, np.full(grid16.num_nodes, 0.9)
    )
    assert traj.info["newton_iters"] == [8]
    assert traj.info["factorizations"] == [4]


def test_newton_regime_refactors_every_iteration(grid4, ops4):
    """Below break-even (n = 4, half-bandwidth 5) every iteration is a damped Newton step.

    Followed by hand on the setup of `test_chord_counts_hand_checked`:
    level 1 goes 13.2, 4.6e-2, 4.1e-7, 6.7e-15, quadratically, with one
    factorization per iteration; each later level starts from the time
    extrapolation and also takes 3. The rounding floor / CHORD_CONTRACTION
    is 8.6e-14 to 9.4e-14 here.
    """
    pf, pg, time, u, init = _guess_setup(grid4)
    traj = solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init)
    assert ops4.step.factor_cost <= 1.0
    assert traj.info["newton_iters"] == [3] * time.m
    assert traj.info["factorizations"] == traj.info["newton_iters"]
    assert traj.info["clamp_events"] == 0
    assert _step_residual(grid4, ops4, time, pf, pg, u, traj) <= 1e-13


def test_newton_regime_far_start_takes_newton_iterations(grid4, ops4):
    """A far start that chord steps on one kept factor took 16 iterations on takes Newton's 6.

    The residual goes 2.2, 0.95, 0.26, 2.2e-2, 1.4e-4, 5.7e-9, then below
    newton_tol, one factorization per iteration.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.2, 1)
    u = random_control(grid4, time, np.random.default_rng(0), scale=2.0)
    traj = solve_state(
        grid4, ops4, time, Potential.on(grid4, pf, pg), u, np.full(grid4.num_nodes, 0.9)
    )
    assert traj.info["newton_iters"][0] <= 6
    assert traj.info["factorizations"] == traj.info["newton_iters"]
    assert _step_residual(grid4, ops4, time, pf, pg, u, traj) <= 1e-11


def test_carried_factor_leaves_levels_without_factorization(grid16, ops16, rng):
    """Above break-even the factor carries into later levels, which may then count 0."""
    pf, pg = default_potentials()
    time = TimeAxis(0.25, 10)
    u = random_control(grid16, time, rng)
    traj = solve_state(
        grid16, ops16, time, Potential.on(grid16, pf, pg), u, np.full(grid16.num_nodes, 0.45)
    )
    factorizations = traj.info["factorizations"]
    assert ops16.step.factor_cost > 1.0
    assert len(factorizations) == time.m
    assert factorizations[0] >= 1
    assert 0 in factorizations
    assert _step_residual(grid16, ops16, time, pf, pg, u, traj) <= 1e-11


def test_back_to_back_solves_each_start_by_factoring(grid16, ops16, monkeypatch):
    """No factor outlives a solve: two solves in a row agree bit for bit, and each factors first.

    Logs "E" and the derivatives formed ("1" for f', "2" for f'') per
    guarded evaluation, and the level of each factorization: both solves
    begin with the start's evaluation, then f'' and a factorization at
    level 1, whatever the first solve left behind.
    """
    events = []
    terms, factor = Potential.newton_terms, StepMatrix.factor

    def logged_terms(self, y, names=("d1", "d2")):
        events.append("E" + "".join(name[1] for name in names))
        return terms(self, y, names)

    def logged_factor(self, c, dt, level=None, residual=None):
        events.append(level)
        return factor(self, c, dt, level=level, residual=residual)

    monkeypatch.setattr(Potential, "newton_terms", logged_terms)
    monkeypatch.setattr(StepMatrix, "factor", logged_factor)
    pf, pg, time, u, init = _guess_setup(grid16)
    first = solve_state(grid16, ops16, time, Potential.on(grid16, pf, pg), u, init)
    split = len(events)
    second = solve_state(grid16, ops16, time, Potential.on(grid16, pf, pg), u, init)
    assert np.array_equal(first.values, second.values)
    assert first.info == second.info
    assert events[:3] == ["E1", "E2", 1] and events[split : split + 3] == ["E1", "E2", 1]
    assert events[split:] == events[:split]


def test_initial_data_validation(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.1, 2)
    bad = np.full(grid4.num_nodes, 1.0)
    with pytest.raises(DomainError):
        solve_state(
            grid4, ops4, time, Potential.on(grid4, pf, pg), ControlPair.zeros(grid4, time), bad
        )
    u = ControlPair.zeros(grid4, time)
    u.bulk[0, 0] = np.inf
    with pytest.raises(DomainError):
        solve_state(
            grid4, ops4, time, Potential.on(grid4, pf, pg), u, np.full(grid4.num_nodes, 0.5)
        )


def _guess_setup(grid):
    pf, pg = default_potentials()
    time = TimeAxis(0.2, 6)
    u = random_control(grid, time, np.random.default_rng(11))
    init = np.random.default_rng(12).uniform(0.3, 0.7, grid.num_nodes)
    return pf, pg, time, u, init


def test_guess_of_converged_trajectory_costs_no_iterations(grid4, ops4):
    pf, pg, time, u, init = _guess_setup(grid4)
    cold = solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init)
    seeded = solve_state(
        grid4, ops4, time, Potential.on(grid4, pf, pg), u, init, guess=cold.values
    )
    assert seeded.info["newton_iters"] == [0] * time.m
    assert np.array_equal(seeded.values, cold.values)


def test_cold_start_extrapolates_in_time(grid4, ops4):
    """Without a guess, step k+1 starts from 2 y_k - y_{k-1} (from y_0 at the first step)."""
    pf, pg, time, u, init = _guess_setup(grid4)
    cold = solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init)
    starts = np.empty_like(cold.values)
    starts[1] = cold.values[0]
    starts[2:] = 2.0 * cold.values[1:-1] - cold.values[:-2]
    again = solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init, guess=starts)
    assert np.array_equal(again.values, cold.values)
    assert again.info == cold.info


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, -0.5])
def test_inadmissible_guess_level_starts_from_previous_level(grid4, ops4, bad):
    """A guess level that is non-finite or leaves (0, 1) is replaced by values[k], bit for bit."""
    pf, pg, time, u, init = _guess_setup(grid4)
    cold = solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init)
    guess = cold.values.copy()
    guess[2, 3] = bad
    reference = cold.values.copy()
    reference[2] = cold.values[1]
    got = solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init, guess=guess)
    want = solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), u, init, guess=reference)
    assert np.array_equal(got.values, want.values)
    assert got.info == want.info
    assert got.info["newton_iters"][1] > 0


def test_guess_shape_checked(grid4, ops4):
    pf, pg, time, u, init = _guess_setup(grid4)
    for shape in ((time.m, grid4.num_nodes), (time.m + 1, grid4.num_nodes + 1)):
        with pytest.raises(DimensionMismatchError):
            solve_state(
                grid4, ops4, time, Potential.on(grid4, pf, pg), u, init, guess=np.full(shape, 0.5)
            )


@pytest.mark.parametrize(
    "extra_levels, extra_nodes, extra_cycle",
    [(3, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, -1)],
    ids=["m+4-levels", "m-levels", "extra-bulk-column", "short-surface"],
)
def test_control_shape_checked(grid4, ops4, extra_levels, extra_nodes, extra_cycle):
    """Only (m+1, N) and (m+1, 4n) controls are solved: no level or column is dropped or missing."""
    pf, pg, time, _, init = _guess_setup(grid4)
    levels = time.m + 1 + extra_levels
    control = ControlPair(
        np.zeros((levels, grid4.num_nodes + extra_nodes)),
        np.zeros((levels, grid4.num_boundary + extra_cycle)),
    )
    with pytest.raises(DimensionMismatchError, match="^control needs shapes"):
        solve_state(grid4, ops4, time, Potential.on(grid4, pf, pg), control, init)


def test_control_pair_owns_one_buffer(grid4, ops4, rng):
    """data is the bulk levels, then the surface levels; bulk and surface are views of it.

    The constructor copies its arrays in, writes through either view (as
    `build_control`'s u.bulk[:] = value) reach data, and `ControlPair.wrap`
    shares the buffer it is given.
    """
    time = TimeAxis(0.4, 3)
    bulk = rng.uniform(size=(time.m + 1, grid4.num_nodes))
    surface = rng.uniform(size=(time.m + 1, grid4.num_boundary))
    u = ControlPair(bulk, surface)
    np.testing.assert_array_equal(u.data, np.concatenate((bulk.ravel(), surface.ravel())), strict=True)
    for part in (u.bulk, u.surface):
        assert np.shares_memory(part, u.data) and part.flags.c_contiguous
    assert not np.shares_memory(u.data, bulk) and not np.shares_memory(u.data, surface)
    bulk[:] = surface[:] = 7.0
    assert not (u.data == 7.0).any()

    u.bulk[:] = 2.0
    u.surface[1] = -3.0
    split = u.bulk.size
    np.testing.assert_array_equal(u.data[:split], 2.0)
    np.testing.assert_array_equal(u.data[split + grid4.num_boundary : split + 2 * grid4.num_boundary], -3.0)
    cfg = RunConfig(grid_n=4, time_m=3, control_preset="constant", control_value=0.3)
    built = build_control(cfg, build_problem(cfg))
    np.testing.assert_array_equal(built.data, 0.3)

    buffer = rng.uniform(size=u.data.size)
    v = ControlPair.wrap(buffer, u)
    assert v.data is buffer and v.bulk.shape == u.bulk.shape and v.surface.shape == u.surface.shape
    buffer[0] = buffer[-1] = 5.0
    assert v.bulk[0, 0] == v.surface[-1, -1] == 5.0
    with pytest.raises(ValueError, match="reshape"):
        ControlPair.wrap(buffer[:-1], u)


def test_tangent_guess_saves_newton_iterations(grid4, ops4):
    """y(u) + y'(u) d starts Newton closer to y(u + d) than the cold start does."""
    pf, pg, time, u, init = _guess_setup(grid4)
    potential = Potential.on(grid4, pf, pg)
    state = solve_state(grid4, ops4, time, potential, u, init)
    d = random_control(grid4, time, np.random.default_rng(13), scale=1e-3)
    moved = ControlPair(u.bulk + d.bulk, u.surface + d.surface)
    tangent = state.values + solve_linearized(linearized_operator(state, potential, ops4), d).values
    cold = solve_state(grid4, ops4, time, potential, moved, init)
    warm = solve_state(grid4, ops4, time, potential, moved, init, guess=tangent)
    assert sum(warm.info["newton_iters"]) < sum(cold.info["newton_iters"])
    assert np.abs(warm.values - cold.values).max() <= 1e-10
