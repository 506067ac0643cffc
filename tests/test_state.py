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
    inner_product_bulk,
    inner_product_surf,
    invariant_interval,
    solve_state,
    linearized_operator,
    solve_linearized,
    trajectory_space_time_norm,
    trajectory_sup_norm,
)
from acopt.geometry import StepMatrix
from acopt.objective import hnorm

from conftest import default_potentials, make_problem, random_control


def constant_control(grid, time, bulk_value, surf_value):
    u = ControlPair.zeros(grid, time)
    u.bulk[:] = bulk_value
    u.surface[:] = surf_value
    return u


def test_half_is_fixed_point(grid4, ops4):
    pf, pg = default_potentials()  # f'(0.5) = g'(0.5) = 0 by symmetry
    time = TimeAxis(0.5, 10)
    init = np.full(grid4.num_nodes, 0.5)
    traj = solve_state(grid4, ops4, time, pf, pg, ControlPair.zeros(grid4, time), init)
    assert np.abs(traj.values - 0.5).max() == 0.0
    assert traj.info["clamp_events"] == 0


def test_stationary_solution_any_constant(grid4, ops4):
    pf, pg = Potential(1.0, 3.0), Potential(1.0, 2.0)
    time = TimeAxis(0.3, 6)
    y_star = 0.37
    u = constant_control(grid4, time, pf.d1(y_star), pg.d1(y_star))
    init = np.full(grid4.num_nodes, y_star)
    traj = solve_state(grid4, ops4, time, pf, pg, u, init)
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
    traj = solve_state(grid, ops, time, pf, pg, u, init)
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
    traj2 = solve_state(grid, ops, time2, pf, pg, u2, init)
    err2 = np.abs(traj2.values[:, 0] - sol.sol(time2.levels)[0]).max()
    assert err2 < 0.7 * err


def test_energy_constant_minimizer(grid8, ops8):
    pf, pg = default_potentials()
    y_star = 0.07072018167994482  # interior minimizer of the double well
    state = np.full(grid8.num_nodes, y_star)
    expected = (
        float(pf.value(y_star)) * (1.0 - grid8.h) ** 2 + float(pg.value(y_star)) * 4.0
    )
    assert energy(grid8, ops8, pf, pg, state) == pytest.approx(expected, rel=1e-13)


def test_energy_constant_half_closed_form(grid8, ops8):
    # f(0.5) = ln(0.5) + 3/4; bulk potential weight (1-h)^2, surface weight 4
    pf, pg = default_potentials()
    state = np.full(grid8.num_nodes, 0.5)
    f_half = np.log(0.5) + 0.75
    expected = f_half * ((1.0 - grid8.h) ** 2 + 4.0)
    assert energy(grid8, ops8, pf, pg, state) == pytest.approx(expected, rel=1e-13)


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
    assert energy(grid4, ops4, pf, pg, z) == pytest.approx(
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
        bulk = inner_product_bulk(diff[k], diff[k], grid4)
        trace = diff[k][grid4.boundary_cycle]
        sup_sq = max(sup_sq, bulk)
        st_sq += theta[k] * (bulk + inner_product_surf(trace, trace, grid4))
    assert trajectory_sup_norm(a, b) == pytest.approx(np.sqrt(sup_sq), rel=1e-14)
    assert trajectory_space_time_norm(a, b) == pytest.approx(np.sqrt(st_sq), rel=1e-14)
    ones = Trajectory(np.ones((time.m + 1, grid4.num_nodes)), grid4, time)
    # |Q| + |Sigma| = T * (1 + 4)
    assert trajectory_space_time_norm(ones) == pytest.approx(np.sqrt(time.T * 5.0), rel=1e-14)


def test_energy_domain_error_at_endpoint(grid4, ops4):
    pf, pg = default_potentials()
    z = np.full(grid4.num_nodes, 0.5)
    z[3] = 1.0
    with pytest.raises(DomainError):
        energy(grid4, ops4, pf, pg, z)


def test_energy_dissipation_zero_control():
    from acopt import build_grid, build_operators

    grid = build_grid(16)
    ops = build_operators(grid)
    time = TimeAxis(0.5, 50)  # dt = 1e-2
    pf, pg = default_potentials()
    x, y = grid.bulk_nodes[:, 0], grid.bulk_nodes[:, 1]
    init = 0.5 + 0.25 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
    traj = solve_state(grid, ops, time, pf, pg, ControlPair.zeros(grid, time), init)
    E = [energy(grid, ops, pf, pg, traj.values[k]) for k in range(time.m + 1)]
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
    traj = solve_state(grid8, ops8, time, pf, pg, u, init)
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
        y1 = solve_state(grid4, ops4, time, pf, pg, u1, init)
        y2 = solve_state(grid4, ops4, time, pf, pg, u2, init)
        du = ControlPair(u1.bulk - u2.bulk, u1.surface - u2.surface)
        ratios.append(trajectory_sup_norm(y1, y2) / hnorm(prob, du))
    ratios = np.asarray(ratios)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() < 10.0 * np.median(ratios)


def test_newton_failure_is_reported(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(50.0, 1)  # absurd step size
    init = np.full(grid4.num_nodes, 0.5)
    u = constant_control(grid4, time, 0.9, 0.9)
    with pytest.raises(SolverFailureError) as info:
        solve_state(grid4, ops4, time, pf, pg, u, init, max_newton=1)
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
        solve_state(grid4, NoCoupling(), time, pf, pg, ControlPair.zeros(grid4, time), init)
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
    before = solve_state(grid, ops, time, pf, pg, u, init)
    abs(ops.coupled)
    after = solve_state(grid, ops, time, pf, pg, u, init)
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
                grid4, ops4, time, pf, pg, ControlPair.zeros(grid4, time), init
            )
        assert traj.info["clamp_events"] == 2


def test_newton_jacobian_reuses_residual_evaluation(grid4, ops4, rng, monkeypatch):
    """Each residual makes one guarded call per potential; the Jacobian makes none.

    Logs "T" per potential call and "F" per step factorization. A level logs
    the residual at its start, then its one Newton iteration (a
    factorization and the candidate's residual), then one residual per
    chord step on the kept factor; a refactorization would add an "F"
    between chord steps. Every iteration here accepts its first candidate
    and no level refactors: "TT" + "FTT" + "TT" * (iters - 1).
    """
    from acopt import pde_state

    log = []
    terms, factor = pde_state.newton_terms, StepMatrix.factor

    def counted_terms(p, y):
        log.append("T")
        return terms(p, y)

    def counted_factor(self, *args, **kwargs):
        log.append("F")
        return factor(self, *args, **kwargs)

    monkeypatch.setattr(pde_state, "newton_terms", counted_terms)
    monkeypatch.setattr(StepMatrix, "factor", counted_factor)
    pf, pg = default_potentials()
    time = TimeAxis(0.2, 4)
    init = rng.uniform(0.3, 0.7, grid4.num_nodes)
    traj = solve_state(grid4, ops4, time, pf, pg, random_control(grid4, time, rng), init)
    iters = traj.info["newton_iters"]
    assert min(iters) >= 2
    assert traj.info["factorizations"] == [1] * time.m
    assert "".join(log) == "".join("TT" + "FTT" + "TT" * (n - 1) for n in iters)


def _step_residual(grid, ops, time, pf, pg, control, traj):
    """Max-norm residual of every implicit Euler step, from the public operators."""
    new, old = traj.values[1:], traj.values[:-1]
    inner, cycle = grid.interior_nodes, grid.boundary_cycle
    res = (new - old) / time.dt + (ops.coupled @ new.T).T
    res[:, inner] += pf.d1(new[:, inner]) - control.bulk[1:, inner]
    res[:, cycle] += pg.d1(new[:, cycle]) - control.surface[1:]
    return np.abs(res).max()


def test_one_factorization_per_level_hand_checked(grid4, ops4):
    """Pinned counters of a run whose iterates were followed by hand.

    Level 1: the Newton step takes the residual from 13.2 to 4.6e-2 on one
    factor; chord steps on that factor then contract by about 1/100 each:
    4.1e-4, 4.1e-6, 4.2e-8, 4.3e-10, 4.5e-12. The last one meets
    newton_tol = 1e-11 by a chord step, so the level takes one more, to
    4.8e-14, which lies below the rounding floor / CHORD_CONTRACTION
    (9.4e-14): 7 iterations, 1 factorization. Every later level starts
    from the time extrapolation and follows the same pattern.
    """
    pf, pg, time, u, init = _guess_setup(grid4)
    traj = solve_state(grid4, ops4, time, pf, pg, u, init)
    assert traj.info["newton_iters"] == [7, 6, 5, 4, 4, 4]
    assert traj.info["factorizations"] == [1] * time.m
    assert traj.info["clamp_events"] == 0
    assert _step_residual(grid4, ops4, time, pf, pg, u, traj) <= 1e-13


def test_dropped_chord_candidate_refactors_at_the_iterate(grid4, ops4, monkeypatch):
    """A chord candidate that does not lower the residual is dropped.

    The iteration then refactors at the iterate the chord step started from,
    not at the dropped candidate, takes a damped Newton step there, and the
    level still converges to newton_tol. Logs ("E", f'') per guarded
    evaluation and ("F", c) per factorization.
    """
    from acopt import pde_state

    events = []
    nonlinearity, factor = pde_state._nonlinearity, StepMatrix.factor

    def logged_nonlinearity(grid, pf, pg, z):
        out = nonlinearity(grid, pf, pg, z)
        events.append(("E", out[1]))
        return out

    def logged_factor(self, c, *args, **kwargs):
        events.append(("F", c))
        return factor(self, c, *args, **kwargs)

    monkeypatch.setattr(pde_state, "_nonlinearity", logged_nonlinearity)
    monkeypatch.setattr(StepMatrix, "factor", logged_factor)
    pf, pg = default_potentials()
    time = TimeAxis(0.2, 1)
    u = random_control(grid4, time, np.random.default_rng(1), scale=2.0)
    traj = solve_state(grid4, ops4, time, pf, pg, u, np.full(grid4.num_nodes, 0.9))

    # start, factor, Newton candidate (accepted), chord candidate (dropped), refactor
    assert "".join(kind for kind, _ in events).startswith("EFEEF")
    newton_candidate, chord_candidate, refactored = events[2][1], events[3][1], events[4][1]
    assert np.array_equal(refactored, newton_candidate)
    assert not np.array_equal(refactored, chord_candidate)
    assert traj.info["factorizations"][0] >= 2
    assert _step_residual(grid4, ops4, time, pf, pg, u, traj) <= 1e-11


def test_initial_data_validation(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.1, 2)
    bad = np.full(grid4.num_nodes, 1.0)
    with pytest.raises(DomainError):
        solve_state(grid4, ops4, time, pf, pg, ControlPair.zeros(grid4, time), bad)
    u = ControlPair.zeros(grid4, time)
    u.bulk[0, 0] = np.inf
    with pytest.raises(DomainError):
        solve_state(
            grid4, ops4, time, pf, pg, u, np.full(grid4.num_nodes, 0.5)
        )


def _guess_setup(grid):
    pf, pg = default_potentials()
    time = TimeAxis(0.2, 6)
    u = random_control(grid, time, np.random.default_rng(11))
    init = np.random.default_rng(12).uniform(0.3, 0.7, grid.num_nodes)
    return pf, pg, time, u, init


def test_guess_of_converged_trajectory_costs_no_iterations(grid4, ops4):
    pf, pg, time, u, init = _guess_setup(grid4)
    cold = solve_state(grid4, ops4, time, pf, pg, u, init)
    seeded = solve_state(grid4, ops4, time, pf, pg, u, init, guess=cold.values)
    assert seeded.info["newton_iters"] == [0] * time.m
    assert np.array_equal(seeded.values, cold.values)


def test_cold_start_extrapolates_in_time(grid4, ops4):
    """Without a guess, step k+1 starts from 2 y_k - y_{k-1} (from y_0 at the first step)."""
    pf, pg, time, u, init = _guess_setup(grid4)
    cold = solve_state(grid4, ops4, time, pf, pg, u, init)
    starts = np.empty_like(cold.values)
    starts[1] = cold.values[0]
    starts[2:] = 2.0 * cold.values[1:-1] - cold.values[:-2]
    again = solve_state(grid4, ops4, time, pf, pg, u, init, guess=starts)
    assert np.array_equal(again.values, cold.values)
    assert again.info == cold.info


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, -0.5])
def test_inadmissible_guess_level_starts_from_previous_level(grid4, ops4, bad):
    """A guess level that is non-finite or leaves (0, 1) is replaced by values[k], bit for bit."""
    pf, pg, time, u, init = _guess_setup(grid4)
    cold = solve_state(grid4, ops4, time, pf, pg, u, init)
    guess = cold.values.copy()
    guess[2, 3] = bad
    reference = cold.values.copy()
    reference[2] = cold.values[1]
    got = solve_state(grid4, ops4, time, pf, pg, u, init, guess=guess)
    want = solve_state(grid4, ops4, time, pf, pg, u, init, guess=reference)
    assert np.array_equal(got.values, want.values)
    assert got.info == want.info
    assert got.info["newton_iters"][1] > 0


def test_guess_shape_checked(grid4, ops4):
    pf, pg, time, u, init = _guess_setup(grid4)
    for shape in ((time.m, grid4.num_nodes), (time.m + 1, grid4.num_nodes + 1)):
        with pytest.raises(DimensionMismatchError):
            solve_state(grid4, ops4, time, pf, pg, u, init, guess=np.full(shape, 0.5))


def test_tangent_guess_saves_newton_iterations(grid4, ops4):
    """y(u) + y'(u) d starts Newton closer to y(u + d) than the cold start does."""
    pf, pg, time, u, init = _guess_setup(grid4)
    state = solve_state(grid4, ops4, time, pf, pg, u, init)
    d = random_control(grid4, time, np.random.default_rng(13), scale=1e-3)
    moved = ControlPair(u.bulk + d.bulk, u.surface + d.surface)
    tangent = state.values + solve_linearized(linearized_operator(state, pf, pg, ops4), d).values
    cold = solve_state(grid4, ops4, time, pf, pg, moved, init)
    warm = solve_state(grid4, ops4, time, pf, pg, moved, init, guess=tangent)
    assert sum(warm.info["newton_iters"]) < sum(cold.info["newton_iters"])
    assert np.abs(warm.values - cold.values).max() <= 1e-10
