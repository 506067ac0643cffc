"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line. The tracking-run fixture is shared
between the optimizer criterion and the sufficient-condition diagnostic.
"""

import numpy as np
import pytest

from acopt import (
    ControlPair,
    OptimizerConfig,
    Potential,
    SteppedOperator,
    TimeAxis,
    Trajectory,
    build_grid,
    build_operators,
    curvature,
    energy,
    evaluate_cost,
    hinner,
    hnorm,
    invariant_interval,
    linearized_operator,
    minimize,
    reduced_gradient,
    solve_adjoint,
    solve_linear,
    solve_linearized,
    solve_state,
    tracking_seeds,
    trajectory_space_time_norm,
    trajectory_sup_norm,
)
from acopt.cli_io import RunConfig, build_problem
from acopt.pde_state import slot_fields

from conftest import (
    default_potentials,
    make_problem,
    quadratic_potentials,
    random_control,
    third_order,
)


def _line(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def duality_setup():
    grid = build_grid(8)
    ops = build_operators(grid)
    time = TimeAxis(0.5, 20)
    pf, pg = default_potentials()
    prob = make_problem(grid, ops, time, pf, pg, betas=(1.0, 0.8, 0.9, 0.05, 0.05), seed=21)
    rng = np.random.default_rng(100)
    u = random_control(grid, time, rng, scale=0.4)
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, ops)
    adj = solve_adjoint(op, tracking_seeds(prob, state))
    return prob, u, state, op, adj, rng


@pytest.fixture(scope="module")
def tracking_run():
    """Default tracking configuration run to convergence (criteria 7 and 11)."""
    cfg = RunConfig()  # beta1=beta2=beta3=1, beta5=beta6=1e-2, box [-1, 1]
    problem = build_problem(cfg)
    opt_cfg = OptimizerConfig(max_iters=500, stop_tol=1e-10)
    start = ControlPair.zeros(problem.grid, problem.time)
    result = minimize(problem, opt_cfg, start)
    return problem, result


def test_criterion_01_adjoint_linearized_duality(duality_setup):
    """(1) <reduced gradient, h> vs the linearized directional derivative."""
    prob, u, state, op, adj, rng = duality_setup
    grad = reduced_gradient(prob, adj, u)
    theta = prob.time.weights()
    w, gam = prob.grid.bulk_weights, prob.grid.surface_weights
    worst = 0.0
    for _ in range(5):
        h = random_control(prob.grid, prob.time, rng)
        xi = solve_linearized(op, h)
        deriv = prob.beta1 * np.einsum("k,kj,kj->", theta, (state.values - prob.z_q) * w, xi.values)
        deriv += prob.beta2 * np.einsum(
            "k,kj,kj->", theta, (state.surface - prob.z_sigma) * gam, xi.surface
        )
        deriv += prob.beta3 * np.dot((state.values[-1] - prob.z_t) * w, xi.values[-1])
        deriv += prob.beta3 * np.dot((state.surface[-1] - prob.z_gamma_t) * gam, xi.surface[-1])
        deriv += prob.beta5 * np.einsum("k,kj,kj->", theta, u.bulk * w, h.bulk)
        deriv += prob.beta6 * np.einsum("k,kj,kj->", theta, u.surface * gam, h.surface)
        lhs = hinner(prob, grad, h)
        worst = max(worst, abs(lhs - deriv) / max(abs(lhs), 1e-300))
    _line(1, "adjoint-linearized duality", worst <= 1e-9, f"max rel discrepancy {worst:.3e} <= 1e-9")


def test_criterion_02_taylor_remainder(duality_setup):
    """(2) first-order remainder of the state map decays at order >= 1.9."""
    prob, u, state, op, adj, rng = duality_setup
    h = random_control(prob.grid, prob.time, rng, scale=1.0)
    xi = solve_linearized(op, h)
    eps_list = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    remainders = []
    for eps in eps_list:
        pert = ControlPair(u.bulk + eps * h.bulk, u.surface + eps * h.surface)
        ypert = prob.solve(pert)
        diff = Trajectory(ypert.values - state.values - eps * xi.values, prob.grid, prob.time)
        remainders.append(trajectory_space_time_norm(diff))
    slope = float(np.polyfit(np.log(eps_list), np.log(remainders), 1)[0])
    _line(2, "Taylor remainder order", slope >= 1.9, f"log-log slope {slope:.3f} >= 1.9")


def test_criterion_03_gradient_fd(duality_setup):
    """(3) central differences match the adjoint gradient: order 2, plateau <= 1e-8."""
    prob, u, state, op, adj, rng = duality_setup
    grad = reduced_gradient(prob, adj, u)
    # steps of 1.5 to 3.3: an order-2 error falls 2.3 to 11 times per step, so the leading
    # run above the 50x plateau margin keeps at least 3 points in every direction
    eps_list = np.array([3e-2, 2e-2, 1e-2, 6e-3, 3e-3, 2e-3, 1e-3, 3e-4, 1e-4])
    worst_plateau = 0.0
    worst_slope = np.inf
    fewest = len(eps_list)
    for _ in range(3):
        h = random_control(prob.grid, prob.time, rng)
        exact = hinner(prob, grad, h)
        errors = []
        for eps in eps_list:
            up = ControlPair(u.bulk + eps * h.bulk, u.surface + eps * h.surface)
            dn = ControlPair(u.bulk - eps * h.bulk, u.surface - eps * h.surface)
            fd = (
                evaluate_cost(prob, prob.solve(up), up)
                - evaluate_cost(prob, prob.solve(dn), dn)
            ) / (2 * eps)
            errors.append(abs(fd - exact) / abs(exact))
        errors = np.asarray(errors)
        worst_plateau = max(worst_plateau, errors.min())
        # Only the leading run above the plateau: past its first roundoff point, a lucky
        # cancellation at a smaller eps would pull roundoff-dominated points into the fit.
        branch = np.cumprod(errors > 50.0 * errors.min()).astype(bool)
        fewest = min(fewest, int(branch.sum()))
        if branch.sum() >= 2:
            slope = np.polyfit(np.log(eps_list[branch]), np.log(errors[branch]), 1)[0]
            worst_slope = min(worst_slope, slope)
    ok = worst_plateau <= 1e-8 and worst_slope >= 1.9 and fewest >= 3
    _line(3, "gradient finite-difference check", ok,
          f"plateau {worst_plateau:.3e} <= 1e-8, order {worst_slope:.2f} >= 1.9, "
          f"fewest fitted points {fewest} >= 3")


def test_criterion_04_curvature(duality_setup):
    """(4) second differences match curvature to 1e-4; the parallelogram law to 1e-9."""
    prob, u, state, op, adj, rng = duality_setup
    third = third_order(prob, state, adj)
    j0 = evaluate_cost(prob, state, u)
    worst = 0.0
    for _ in range(5):
        h = random_control(prob.grid, prob.time, rng)
        exact = curvature(prob, op, third, h)
        best = np.inf
        for eps in (1e-2, 3e-3, 1e-3):
            up = ControlPair(u.bulk + eps * h.bulk, u.surface + eps * h.surface)
            dn = ControlPair(u.bulk - eps * h.bulk, u.surface - eps * h.surface)
            fd = (
                evaluate_cost(prob, prob.solve(up), up)
                - 2 * j0
                + evaluate_cost(prob, prob.solve(dn), dn)
            ) / eps**2
            best = min(best, abs(fd - exact) / abs(exact))
        worst = max(worst, best)

    h = random_control(prob.grid, prob.time, rng)
    k = random_control(prob.grid, prob.time, rng)
    hp = ControlPair(h.bulk + k.bulk, h.surface + k.surface)
    hm = ControlPair(h.bulk - k.bulk, h.surface - k.surface)
    plus = curvature(prob, op, third, hp)
    minus = curvature(prob, op, third, hm)
    sides = 2.0 * curvature(prob, op, third, h) + 2.0 * curvature(prob, op, third, k)
    parallelogram = abs(plus + minus - sides)
    ok = worst <= 1e-4 and parallelogram <= 1e-9
    _line(4, "curvature representation", ok,
          f"max FD rel error {worst:.3e} <= 1e-4, parallelogram residual {parallelogram:.3e} <= 1e-9")


def test_criterion_05_maximum_principle():
    """(5) confinement interval holds with zero clamp events (R = 1)."""
    grid = build_grid(8)
    ops = build_operators(grid)
    time = TimeAxis(0.5, 25)
    pf, pg = default_potentials()
    r_lo, r_hi = invariant_interval(pf, pg, 1.0, 0.2, 0.8)
    rng = np.random.default_rng(5)
    ok = True
    detail = f"[r_lo, r_hi] = [{r_lo:.4f}, {r_hi:.4f}]"
    for trial in range(3):
        u = random_control(grid, time, rng, scale=1.0)
        init = rng.uniform(0.2, 0.8, size=grid.num_nodes)
        traj = solve_state(grid, ops, time, Potential.on(grid, pf, pg), u, init)
        inside = traj.values.min() >= r_lo and traj.values.max() <= r_hi
        clean = traj.info["clamp_events"] == 0
        ok = ok and inside and clean
        detail += f"; trial {trial}: range [{traj.values.min():.4f}, {traj.values.max():.4f}], clamps {traj.info['clamp_events']}"
    _line(5, "maximum principle", ok, detail)


def test_criterion_06_energy_dissipation():
    """(6) zero-control energy non-increasing on n=16, m=100, dt=1e-2."""
    grid = build_grid(16)
    ops = build_operators(grid)
    time = TimeAxis(1.0, 100)  # dt = 1e-2
    pf, pg = default_potentials()
    x, y = grid.bulk_nodes[:, 0], grid.bulk_nodes[:, 1]
    init = 0.5 + 0.25 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
    potential = Potential.on(grid, pf, pg)
    traj = solve_state(grid, ops, time, potential, ControlPair.zeros(grid, time), init)
    E = np.array([energy(grid, ops, potential, traj.values[k]) for k in range(time.m + 1)])
    worst = float(np.diff(E).max())
    _line(6, "energy dissipation", worst <= 1e-10, f"max step increase {worst:.3e} <= 1e-10")


def test_criterion_07_optimizer_and_projection(tracking_run):
    """(7) default tracking config: stationarity, projection residual, descent."""
    problem, result = tracking_run
    report = result.report
    iters = len(result.history)
    costs = [r.cost for r in result.history]
    strictly_decreasing = all(c2 < c1 for c1, c2 in zip(costs, costs[1:]))
    ok = (
        iters <= 500
        and report.stationarity <= 1e-6
        and report.projection_residual <= 1e-6
        and strictly_decreasing
    )
    _line(
        7,
        "projected gradient + pointwise projection",
        ok,
        f"iters {iters} <= 500, stationarity {report.stationarity:.3e} <= 1e-6, "
        f"projection residual {report.projection_residual:.3e} <= 1e-6, "
        f"costs strictly decreasing: {strictly_decreasing}",
    )


def test_criterion_08_linear_quadratic_oracle():
    """(8) optimizer matches the dense normal-equations solution to 1e-6."""
    n, m, T = 6, 8, 0.4
    grid = build_grid(n)
    ops = build_operators(grid)
    time = TimeAxis(T, m)
    pf, pg = quadratic_potentials()  # third derivatives vanish
    prob = make_problem(
        grid, ops, time, pf, pg, betas=(1.0, 1.0, 1.0, 1.0, 1.0),
        box=(-100.0, 100.0), init_value=0.4, seed=11,
    )
    result = minimize(
        prob, OptimizerConfig(max_iters=4000, stop_tol=1e-9),
        ControlPair.zeros(grid, time),
    )

    # independent dense assembly: monolithic forward matrix, stacked quadratic
    N, nb, dt = grid.num_nodes, grid.num_boundary, time.dt
    coeffs = slot_fields(
        grid,
        np.broadcast_to(np.asarray(pf.d2(0.0)), (m + 1, N)).copy(),
        np.broadcast_to(np.asarray(pg.d2(0.0)), (m + 1, nb)).copy(),
    )
    eye = np.eye(N)
    B = np.zeros((m * N, m * N))
    for k in range(m):
        B[k * N : (k + 1) * N, k * N : (k + 1) * N] = (
            eye / dt + ops.coupled.toarray()
            + np.diag(coeffs[k + 1])
        )
        if k > 0:
            B[k * N : (k + 1) * N, (k - 1) * N : k * N] = -eye / dt
    Binv = np.linalg.inv(B)

    nu = (m + 1) * (N + nb)
    S = np.zeros((m * N, nu))  # control vector -> stacked states (levels 1..m)
    for k in range(1, m + 1):
        for j_local in range(N):  # distributed control, interior slots only
            if j_local in grid.boundary_cycle:
                continue
            col = k * N + j_local
            src = np.zeros(m * N)
            src[(k - 1) * N + j_local] = 1.0
            S[:, col] = Binv @ src
        for b_local in range(nb):
            col = (m + 1) * N + k * nb + b_local
            src = np.zeros(m * N)
            src[(k - 1) * N + grid.boundary_cycle[b_local]] = 1.0
            S[:, col] = Binv @ src

    # uncontrolled trajectory (affine offset): the quadratic potentials
    # contribute the constant forcing f'(0), g'(0) beside the diag slopes
    y_free = np.zeros((m + 1, N))
    y_free[0] = prob.init.bulk
    const_force = slot_fields(
        grid,
        np.full(N, float(pf.d1(0.0))),
        np.full(nb, float(pg.d1(0.0))),
    )
    rhs = np.tile(-const_force, m)
    rhs[:N] += y_free[0] / dt
    stacked_free = Binv @ rhs
    y_free[1:] = stacked_free.reshape(m, N)

    theta = time.weights()
    w, gam = grid.bulk_weights, grid.surface_weights
    # running + terminal observation weights on stacked states (levels 1..m)
    q_diag = np.zeros(m * N)
    r_resid = np.zeros(m * N)
    for k in range(1, m + 1):
        block = slice((k - 1) * N, k * N)
        qk = prob.beta1 * theta[k] * w.copy()
        qk[grid.boundary_cycle] += prob.beta2 * theta[k] * gam
        if k == m:
            qk += prob.beta3 * w
            qk[grid.boundary_cycle] += prob.beta3 * gam
        q_diag[block] = qk
        # weighted residual of the free trajectory against the targets
        resid_run = prob.beta1 * theta[k] * w * (y_free[k] - prob.z_q[k])
        resid_run[grid.boundary_cycle] += prob.beta2 * theta[k] * gam * (
            y_free[k][grid.boundary_cycle] - prob.z_sigma[k]
        )
        if k == m:
            resid_run += prob.beta3 * w * (y_free[k] - prob.z_t)
            resid_run[grid.boundary_cycle] += prob.beta3 * gam * (
                y_free[k][grid.boundary_cycle] - prob.z_gamma_t
            )
        r_resid[block] = resid_run

    r_diag = np.concatenate(
        [
            (prob.beta5 * theta[:, None] * w[None, :]).ravel(),
            (prob.beta6 * theta[:, None] * gam[None, :]).ravel(),
        ]
    )
    H = S.T @ (q_diag[:, None] * S) + np.diag(r_diag)
    g = S.T @ r_resid
    u_star = np.linalg.solve(H, -g)

    u_dense = ControlPair(
        u_star[: (m + 1) * N].reshape(m + 1, N),
        u_star[(m + 1) * N :].reshape(m + 1, nb),
    )
    diff = ControlPair(
        u_dense.bulk - result.control.bulk, u_dense.surface - result.control.surface
    )
    gap = hnorm(prob, diff)
    _line(8, "linear-quadratic dense oracle", gap <= 1e-6, f"H-norm gap {gap:.3e} <= 1e-6")


def test_criterion_09_monolithic_linear_oracle():
    """(9) solve_linear matches the dense space-time block solve to 1e-10."""
    grid = build_grid(4)
    ops = build_operators(grid)
    time = TimeAxis(0.3, 3)
    rng = np.random.default_rng(77)
    N, m = grid.num_nodes, time.m
    coeffs = slot_fields(
        grid, rng.normal(size=(m + 1, N)), rng.normal(size=(m + 1, grid.num_boundary))
    )
    src = slot_fields(
        grid, rng.normal(size=(m + 1, N)), rng.normal(size=(m + 1, grid.num_boundary))
    )
    init = rng.normal(size=N)
    traj = solve_linear(SteppedOperator(grid, ops, time, coeffs), src, init)

    eye = np.eye(N)
    B = np.zeros((m * N, m * N))
    for k in range(m):
        B[k * N : (k + 1) * N, k * N : (k + 1) * N] = (
            eye / time.dt + ops.coupled.toarray()
            + np.diag(coeffs[k + 1])
        )
        if k > 0:
            B[k * N : (k + 1) * N, (k - 1) * N : k * N] = -eye / time.dt
    rhs = src[1:].flatten()
    rhs[:N] += init / time.dt
    dense = np.linalg.solve(B, rhs).reshape(m, N)
    gap = float(np.abs(traj.values[1:] - dense).max())
    _line(9, "monolithic linear oracle", gap <= 1e-10, f"max abs gap {gap:.3e} <= 1e-10")


def test_criterion_10_stability_envelope():
    """(10) state/control difference ratios: finite, max < 10 x median."""
    grid = build_grid(6)
    ops = build_operators(grid)
    time = TimeAxis(0.4, 10)
    pf, pg = default_potentials()
    prob = make_problem(grid, ops, time, pf, pg)
    rng = np.random.default_rng(88)
    init = np.full(grid.num_nodes, 0.5)
    ratios = []
    for _ in range(20):
        u1 = random_control(grid, time, rng, scale=1.0)
        u2 = random_control(grid, time, rng, scale=1.0)
        y1 = solve_state(grid, ops, time, prob.potential, u1, init)
        y2 = solve_state(grid, ops, time, prob.potential, u2, init)
        du = ControlPair(u1.bulk - u2.bulk, u1.surface - u2.surface)
        dy = Trajectory(y1.values - y2.values, grid, time)
        ratios.append(trajectory_sup_norm(dy) / hnorm(prob, du))
    ratios = np.asarray(ratios)
    ok = bool(np.all(np.isfinite(ratios)) and ratios.max() < 10.0 * np.median(ratios))
    _line(
        10,
        "stability envelope",
        ok,
        f"max {ratios.max():.3e}, median {np.median(ratios):.3e}, "
        f"max/median {ratios.max() / np.median(ratios):.2f} < 10",
    )


def test_criterion_11_sufficient_condition_diagnostic(tracking_run):
    """(11) tau-critical-cone curvature ratios at the converged control."""
    problem, result = tracking_run
    report = result.report
    ratios = [s[3] for s in report.curvature_samples]
    floor = 0.5 * problem.beta5
    ok = (
        len(ratios) > 0
        and all(np.isfinite(r) and r > 0 for r in ratios)
        and min(ratios) >= floor
    )
    _line(
        11,
        "sufficient-condition diagnostic",
        ok,
        f"{len(ratios)} sampled cone directions, min ratio {min(ratios):.4e} >= {floor:.1e}, all positive",
    )
