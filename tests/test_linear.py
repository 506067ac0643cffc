import re

import numpy as np
import pytest
import scipy.sparse as sp

from acopt import (
    ControlPair,
    DimensionMismatchError,
    Potential,
    SolverFailureError,
    SteppedOperator,
    TimeAxis,
    adjoint_as_control,
    build_grid,
    build_operators,
    energy,
    hinner,
    linearized_operator,
    optimality_report,
    solve_adjoint,
    solve_linear,
    solve_linearized,
    solve_second_derivative,
    solve_state,
    tracking_seeds,
    trajectory_space_time_norm,
)
from acopt.geometry import StepMatrix
from acopt.pde_state import Trajectory, slot_fields

from conftest import default_potentials, make_problem, quadratic_potentials, random_control


def test_zero_everything_gives_zero(grid4, ops4):
    time = TimeAxis(0.3, 5)
    src = np.zeros((time.m + 1, grid4.num_nodes))
    op = SteppedOperator(grid4, ops4, time, np.zeros((time.m + 1, grid4.num_nodes)))
    traj = solve_linear(op, src, np.zeros(grid4.num_nodes))
    assert np.abs(traj.values).max() == 0.0


@pytest.mark.parametrize(
    "make_source",
    [
        lambda grid, time: np.zeros((time.m + 4, grid.num_nodes)),
        lambda grid, time: np.zeros((time.m + 1, grid.num_nodes - 1)),
        lambda grid, time: np.zeros(grid.num_nodes),
        ControlPair.zeros,
    ],
    ids=["extra-levels", "short-rows", "one-level", "control-pair"],
)
def test_solve_linear_rejects_a_source_off_the_slot_shape(grid4, ops4, make_source):
    """The source must be (m+1, N) in slot layout: extra levels are not ignored, a pair not mapped."""
    time = TimeAxis(0.3, 5)
    op = SteppedOperator(grid4, ops4, time, np.zeros((time.m + 1, grid4.num_nodes)))
    with pytest.raises(DimensionMismatchError, match=r"^source needs shape \(6, 25\)"):
        solve_linear(op, make_source(grid4, time), np.zeros(grid4.num_nodes))


@pytest.mark.parametrize("shape", [(9, 25), (6, 24)], ids=["extra-levels", "short-rows"])
def test_solve_adjoint_rejects_seeds_off_the_slot_shape(grid4, ops4, shape, capfd):
    """The seeds must be (m+1, N): extra levels are not ignored, short rows never reach LAPACK."""
    time = TimeAxis(0.3, 5)
    op = SteppedOperator(grid4, ops4, time, np.zeros((time.m + 1, grid4.num_nodes)))
    expected = rf"^seeds need shape \(6, 25\), got {re.escape(str(shape))}$"
    with pytest.raises(DimensionMismatchError, match=expected):
        solve_adjoint(op, np.ones(shape))
    assert capfd.readouterr().err == ""


def test_scalar_recursion_exact(grid4, ops4):
    """c=1, unit source, zero init: w_{k+1} = (w_k + dt)/(1 + dt), limit 1 - e^{-t}."""
    time = TimeAxis(1.0, 8)
    coeffs = slot_fields(
        grid4, np.ones((time.m + 1, grid4.num_nodes)), np.ones((time.m + 1, grid4.num_boundary))
    )
    src = np.ones((time.m + 1, grid4.num_nodes))
    op = SteppedOperator(grid4, ops4, time, coeffs)
    traj = solve_linear(op, src, np.zeros(grid4.num_nodes))
    w = 0.0
    for k in range(time.m):
        w = (w + time.dt) / (1.0 + time.dt)
        np.testing.assert_allclose(traj.values[k + 1], w, rtol=1e-13)
    assert w == pytest.approx(1.0 - np.exp(-1.0), abs=0.1)


def _dense_forward_matrix(grid, ops, time, coeffs):
    """Monolithic space-time block system for the stepping, solved densely."""
    N, m, dt = grid.num_nodes, time.m, time.dt
    eye = np.eye(N)
    blocks = []
    for k in range(1, m + 1):
        blocks.append(eye / dt + ops.coupled.toarray() + np.diag(coeffs[k]))
    B = np.zeros((m * N, m * N))
    for k in range(m):
        B[k * N : (k + 1) * N, k * N : (k + 1) * N] = blocks[k]
        if k > 0:
            B[k * N : (k + 1) * N, (k - 1) * N : k * N] = -eye / dt
    return B


def test_monolithic_dense_oracle(grid4, ops4, rng):
    time = TimeAxis(0.3, 3)
    N, m = grid4.num_nodes, time.m
    coeffs = slot_fields(
        grid4, rng.normal(size=(m + 1, N)), rng.normal(size=(m + 1, grid4.num_boundary))
    )
    src = slot_fields(
        grid4, rng.normal(size=(m + 1, N)), rng.normal(size=(m + 1, grid4.num_boundary))
    )
    init = rng.normal(size=N)
    traj = solve_linear(SteppedOperator(grid4, ops4, time, coeffs), src, init)

    B = _dense_forward_matrix(grid4, ops4, time, coeffs)
    rhs = src[1:].flatten()
    rhs[:N] += init / time.dt
    dense = np.linalg.solve(B, rhs).reshape(m, N)
    np.testing.assert_allclose(traj.values[1:], dense, atol=1e-10)


def test_solve_linear_is_linear(grid4, ops4, rng):
    time = TimeAxis(0.2, 4)
    coeffs = slot_fields(
        grid4, rng.normal(size=(5, grid4.num_nodes)), rng.normal(size=(5, grid4.num_boundary))
    )
    op = SteppedOperator(grid4, ops4, time, coeffs)
    s1 = random_control(grid4, time, rng)
    s2 = random_control(grid4, time, rng)
    s1, s2 = (slot_fields(grid4, s.bulk, s.surface) for s in (s1, s2))
    a, b = 2.5, -1.3
    combo = a * s1 + b * s2
    zero = np.zeros(grid4.num_nodes)
    t1 = solve_linear(op, s1, zero)
    t2 = solve_linear(op, s2, zero)
    tc = solve_linear(op, combo, zero)
    np.testing.assert_allclose(tc.values, a * t1.values + b * t2.values, atol=1e-12)


def test_singular_step_matrix_raises(grid4, ops4):
    time = TimeAxis(1.0, 1)  # dt = 1: coefficient -1 makes I/dt + diag(c) singular rows
    N = grid4.num_nodes
    c1 = np.full((2, N), -1.0)
    c2 = np.full((2, grid4.num_boundary), -1.0)
    # cancel the coupling too so the step matrix is exactly singular
    class NoCoupling:
        coupled = sp.csr_matrix((N, N))
        step = StepMatrix(grid4, coupled)

    with pytest.raises(SolverFailureError):
        solve_linear(
            SteppedOperator(grid4, NoCoupling(), time, slot_fields(grid4, c1, c2)),
            np.zeros((2, N)),
            np.zeros(N),
        )


def _random_step_operator(dt, c_range):
    """A one-step operator on the n = 6 grid with seeded coefficients drawn from c_range."""
    rng = np.random.default_rng(7)
    grid = build_grid(6)
    ops = build_operators(grid)
    coeffs = slot_fields(
        grid,
        rng.uniform(*c_range, size=(2, grid.num_nodes)),
        rng.uniform(*c_range, size=(2, grid.num_boundary)),
    )
    return rng, ops, coeffs, SteppedOperator(grid, ops, TimeAxis(dt, 1), coeffs)


def test_step_solves_match_dense():
    """Forward and transposed band solves equal dense solves with M and M^T."""
    dt = 0.1
    rng, ops, coeffs, op = _random_step_operator(dt, (-3.0, 5.0))
    N = coeffs.shape[1]
    M = np.eye(N) / dt + ops.coupled.toarray() + np.diag(coeffs[1])
    rhs = rng.normal(size=N)
    x = op.solve(1, rhs)
    xt = op.solve_transposed(1, rhs)
    assert x.shape == rhs.shape and xt.shape == rhs.shape
    np.testing.assert_allclose(x, np.linalg.solve(M, rhs), rtol=0, atol=1e-12 * np.abs(x).max())
    np.testing.assert_allclose(xt, np.linalg.solve(M.T, rhs), rtol=0, atol=1e-12 * np.abs(xt).max())


def test_indefinite_step_matrix_raises():
    """dt = 0.5 and coefficients down to -30 make the step matrix indefinite: the factor fails."""
    rng, ops, coeffs, op = _random_step_operator(0.5, (-30.0, 1.0))
    with pytest.raises(SolverFailureError, match="^step matrix is not positive definite at step 1$") as info:
        op.solve(1, rng.normal(size=coeffs.shape[1]))
    assert info.value.step == 1


# -- the SuperLU step path ----------------------------------------------------


@pytest.fixture(scope="module")
def wide():
    """The smallest grid whose step matrices SuperLU factors: n = 104, half-bandwidth 105."""
    grid = build_grid(104)
    ops = build_operators(grid)
    assert ops.step.sparse and not build_operators(build_grid(103)).step.sparse
    return grid, ops


def test_sparse_step_solves_leave_roundoff_residuals(wide):
    """Forward and transposed SuperLU solves against M = coupled + diag(1/dt + c)."""
    grid, ops = wide
    rng = np.random.default_rng(5)
    dt = 0.0125
    c = rng.uniform(-3.0, 5.0, grid.num_nodes)
    M = ops.coupled + sp.diags(1.0 / dt + c)
    norm = abs(M).sum(axis=1).max()
    factor = ops.step.factor(c, dt)
    rhs = rng.normal(size=grid.num_nodes)
    x = ops.step.solve(factor, rhs)
    xt = ops.step.solve_transposed(factor, rhs)
    assert np.abs(M @ x - rhs).max() <= 1e-14 * norm * np.abs(x).max()
    assert np.abs(M.T @ xt - rhs).max() <= 1e-14 * norm * np.abs(xt).max()
    a, b = rng.normal(size=(2, grid.num_nodes))
    forward = b @ ops.step.solve(factor, a)
    assert abs(forward - ops.step.solve_transposed(factor, b) @ a) <= 1e-13 * abs(forward)


@pytest.mark.parametrize("shift", [-2.0, -1.0], ids=["indefinite", "singular"])
def test_sparse_step_matrix_not_spd_raises(wide, shift):
    """c = -2/dt makes S = K - W/dt indefinite, c = -1/dt makes it K, singular up to rounding."""
    grid, ops = wide
    dt = 0.0125
    with pytest.raises(SolverFailureError, match="^step matrix is not positive definite at step 7$") as info:
        ops.step.factor(np.full(grid.num_nodes, shift / dt), dt, level=7, residual=0.5)
    assert info.value.step == 7 and info.value.residual == 0.5


def test_sparse_singular_step_matrix_with_a_positive_pivot_raises():
    """At n = 112, c = -1/dt makes S = K, singular, yet SuperLU's smallest pivot comes out
    +9.2e-13: positive, but under the rounding floor N eps max S_ii = 6.4e-10."""
    grid = build_grid(112)
    ops = build_operators(grid)
    dt = 0.0125
    with pytest.raises(SolverFailureError, match="^step matrix is not positive definite at step 3$"):
        ops.step.factor(np.full(grid.num_nodes, -1.0 / dt), dt, level=3)
    assert ops.step.factor(np.zeros(grid.num_nodes), dt).U.diagonal().min() > 1.0


def test_sparse_exactly_singular_step_matrix_raises(wide):
    """A stiffness of explicit zeros with c = -1/dt at dt = 1 leaves S = 0 exactly: SuperLU's
    singular-factor error surfaces as SolverFailureError."""
    grid, ops = wide
    zeros = ops.coupled.copy()
    zeros.data[:] = 0.0
    step = StepMatrix(grid, zeros)
    assert step.sparse
    with pytest.raises(SolverFailureError) as info:
        step.factor(np.full(grid.num_nodes, -1.0), 1.0, level=2)
    assert info.value.step == 2


def test_sparse_linear_and_adjoint_marches_pair(wide):
    """seeds . F source = sum_k lambda_k . source_k for the transposed march's multipliers on m = 2."""
    grid, ops = wide
    rng = np.random.default_rng(11)
    time = TimeAxis(0.025, 2)
    N = grid.num_nodes
    op = SteppedOperator(grid, ops, time, rng.uniform(-3.0, 5.0, size=(time.m + 1, N)))
    source, seeds = rng.normal(size=(2, time.m + 1, N))
    z = solve_linear(op, source, np.zeros(N)).values
    lam = solve_adjoint(op, seeds).values
    lhs = np.sum(seeds[1:] * z[1:])
    rhs = np.sum(lam[1:] * source[1:])
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


@pytest.mark.parametrize("path", ["band", "sparse"])
def test_solves_leave_the_callers_arrays_unchanged(request, grid4, ops4, path):
    """A step solve or march overwrites only temporaries of its own: never rhs, source or seeds."""
    grid, ops = (grid4, ops4) if path == "band" else request.getfixturevalue("wide")
    assert ops.step.sparse == (path == "sparse")
    rng = np.random.default_rng(3)
    time = TimeAxis(0.025, 2)
    N = grid.num_nodes
    op = SteppedOperator(grid, ops, time, rng.uniform(-3.0, 5.0, size=(time.m + 1, N)))
    source, seeds = rng.normal(size=(2, time.m + 1, N))
    rhs = rng.normal(size=N)
    kept = source.copy(), seeds.copy(), rhs.copy()
    solve_linear(op, source, np.zeros(N))
    solve_adjoint(op, seeds)
    op.solve(1, rhs)
    op.solve_transposed(2, rhs)
    for array, copy in zip((source, seeds, rhs), kept):
        assert np.array_equal(array, copy)


# -- linearized system --------------------------------------------------------


def _solved_state(grid, ops, time, pf, pg, control, init_value=0.45):
    init = np.full(grid.num_nodes, init_value)
    return solve_state(grid, ops, time, Potential.on(grid, pf, pg), control, init)


def test_linearized_zero_direction(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    state = _solved_state(grid4, ops4, time, pf, pg, ControlPair.zeros(grid4, time), 0.5)
    op = linearized_operator(state, Potential.on(grid4, pf, pg), ops4)
    xi = solve_linearized(op, ControlPair.zeros(grid4, time))
    assert np.abs(xi.values).max() == 0.0


def test_linearized_constant_state_scalar_recursion(grid4, ops4):
    """At the flat state 0.5 a constant direction obeys xi' + (4a - 2c) xi = h."""
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 8)
    state = _solved_state(grid4, ops4, time, pf, pg, ControlPair.zeros(grid4, time), 0.5)
    h_val = 0.7
    direction = ControlPair(
        np.full((time.m + 1, grid4.num_nodes), h_val),
        np.full((time.m + 1, grid4.num_boundary), h_val),
    )
    xi = solve_linearized(linearized_operator(state, Potential.on(grid4, pf, pg), ops4), direction)
    c_lin = 4.0 * pf.alpha - 2.0 * pf.smooth_c
    assert c_lin == pytest.approx(float(pf.d2(0.5)))
    w = 0.0
    for k in range(time.m):
        w = (w + time.dt * h_val) / (1.0 + time.dt * c_lin)
        np.testing.assert_allclose(xi.values[k + 1], w, rtol=1e-12)


def test_taylor_remainder_second_order(grid8, ops8, rng):
    """|S(u + eps h) - S(u) - eps xi| decays like eps^2 (log-log slope >= 1.9)."""
    pf, pg = default_potentials()
    time = TimeAxis(0.5, 20)
    u = ControlPair.zeros(grid8, time)
    state = _solved_state(grid8, ops8, time, pf, pg, u)
    h = random_control(grid8, time, rng, scale=1.0)
    xi = solve_linearized(linearized_operator(state, Potential.on(state.grid, pf, pg), ops8), h)
    eps_list = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    remainders = []
    for eps in eps_list:
        pert = ControlPair(u.bulk + eps * h.bulk, u.surface + eps * h.surface)
        ypert = _solved_state(grid8, ops8, time, pf, pg, pert)
        diff = Trajectory(ypert.values - state.values - eps * xi.values, grid8, time)
        remainders.append(trajectory_space_time_norm(diff))
    slope = np.polyfit(np.log(eps_list), np.log(remainders), 1)[0]
    assert slope >= 1.9


# -- adjoint ------------------------------------------------------------------


def test_adjoint_zero_weights(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(0.0, 0.0, 0.0, 1.0, 1.0))
    state = prob.solve(ControlPair.zeros(grid4, time))
    adj = solve_adjoint(linearized_operator(state, prob.potential, ops4), tracking_seeds(prob, state))
    assert np.abs(adj.values).max() == 0.0


def test_adjoint_matches_dense_transpose(grid4, ops4, rng):
    """Multipliers are the exact transpose solve of the forward block system."""
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 4)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(1.0, 0.5, 2.0, 0.1, 0.1), seed=5)
    u = random_control(grid4, time, rng, scale=0.4)
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, ops4)
    adj = solve_adjoint(op, tracking_seeds(prob, state))

    coeffs = slot_fields(grid4, pf.d2(state.values), pg.d2(state.surface))
    B = _dense_forward_matrix(grid4, ops4, time, coeffs)
    seeds = tracking_seeds(prob, state)
    N, m = grid4.num_nodes, time.m
    lam = np.linalg.solve(B.T, seeds[1:].ravel()).reshape(m, N)
    np.testing.assert_allclose(adj.values[1:], lam, rtol=1e-9, atol=1e-12)


def test_adjoint_march_stops_at_level_one(grid4, ops4, rng, monkeypatch):
    """Level 0 is initial data: the adjoint leaves it zero and never factors its step matrix."""
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, seed=3)
    state = prob.solve(random_control(grid4, time, rng, scale=0.4))
    factored = []
    original = StepMatrix.factor

    def counting_factor(self, c, dt, level=None, residual=None):
        factored.append(level)
        return original(self, c, dt, level=level, residual=residual)

    monkeypatch.setattr(StepMatrix, "factor", counting_factor)
    adj = solve_adjoint(linearized_operator(state, prob.potential, ops4), tracking_seeds(prob, state))
    assert np.all(adj.values[0] == 0.0)
    assert np.all(np.abs(adj.values[1:]).max(axis=1) > 0.0)
    assert sorted(factored) == list(range(1, time.m + 1))


def test_adjoint_terminal_cost_geometric_decay(grid4, ops4):
    """Terminal-only cost with frozen unit coefficients: the representer decays backward at 1/(1+dt).

    Read through `adjoint_as_control`, where it is O(1): the multipliers
    carry the factor theta W. Checked on the interior levels; the endpoint
    levels absorb the half trapezoid weights, and the full structure is
    pinned by the dense transpose above.
    """
    pq = Potential(0.0, -0.5)  # f'' = 1 frozen
    time = TimeAxis(0.6, 8)
    prob = make_problem(
        grid4, ops4, time, pq, pq, betas=(0.0, 0.0, 1.0, 1.0, 1.0), targets="zero",
        init_value=0.3, box=(-9.0, 9.0),
    )
    state = prob.solve(ControlPair.zeros(grid4, time))
    adj = solve_adjoint(linearized_operator(state, prob.potential, ops4), tracking_seeds(prob, state))
    rep = adjoint_as_control(prob, adj)
    p = slot_fields(grid4, rep.bulk, rep.surface)
    # spatially constant up to the O(h) boundary quadrature correction
    assert np.ptp(p, axis=1).max() <= 0.5 * grid4.h
    p0 = p[:, grid4.interior_nodes[0]]
    ratios = p0[1 : time.m - 1] / p0[2 : time.m]
    np.testing.assert_allclose(ratios, 1.0 / (1.0 + time.dt), rtol=2.0 * grid4.h)


def test_adjoint_duality_identity(grid8, ops8, rng):
    """Tracking pairing with xi equals the adjoint representer's `hinner` pairing with the direction."""
    pf, pg = default_potentials()
    time = TimeAxis(0.5, 10)
    prob = make_problem(grid8, ops8, time, pf, pg, betas=(1.0, 0.7, 0.9, 0.0, 0.0), seed=2)
    u = random_control(grid8, time, rng, scale=0.4)
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, ops8)
    adj = solve_adjoint(op, tracking_seeds(prob, state))
    rep = adjoint_as_control(prob, adj)

    theta = time.weights()
    w, gam = grid8.bulk_weights, grid8.surface_weights
    for _ in range(3):
        h = random_control(grid8, time, rng)
        xi = solve_linearized(op, h)
        lhs = prob.beta1 * np.einsum("k,kj,kj->", theta, (state.values - prob.z_q) * w, xi.values)
        lhs += prob.beta2 * np.einsum(
            "k,kj,kj->", theta, (state.surface - prob.z_sigma) * gam, xi.surface
        )
        lhs += prob.beta3 * np.dot((state.values[-1] - prob.z_t) * w, xi.values[-1])
        lhs += prob.beta3 * np.dot((state.surface[-1] - prob.z_gamma_t) * gam, xi.surface[-1])
        rhs = hinner(prob, rep, h)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_transpose_involution_reproduces_forward(grid4, ops4):
    """The adjoint march is the plain transpose of the forward march.

    With time-constant coefficients, assemble the forward propagator F and
    the adjoint propagator G on basis vectors, as maps on raw source and
    seed slot vectors. No weight stands between them, so G = F^T, and
    transposing G once more reproduces F.
    """
    time = TimeAxis(0.4, 2)
    N, m = grid4.num_nodes, time.m
    coeffs = slot_fields(grid4, np.full((m + 1, N), 0.8), np.full((m + 1, grid4.num_boundary), 0.8))
    op = SteppedOperator(grid4, ops4, time, coeffs)
    zero = np.zeros(N)

    dim = m * N
    F = np.zeros((dim, dim))
    G = np.zeros((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        # one slot array serves as the forward source and as the adjoint seeds
        slots = np.vstack([np.zeros((1, N)), e.reshape(m, N)])
        F[:, j] = solve_linear(op, slots, zero).values[1:].ravel()
        G[:, j] = solve_adjoint(op, slots).values[1:].ravel()

    np.testing.assert_allclose(G, F.T, atol=1e-11)


def test_derivative_lipschitz_envelope(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 8)
    prob = make_problem(grid4, ops4, time, pf, pg)
    rng = np.random.default_rng(77)
    from acopt.objective import hnorm

    ratios = []
    for _ in range(8):
        u = random_control(grid4, time, rng, scale=0.6)
        du = random_control(grid4, time, rng, scale=0.3)
        h = random_control(grid4, time, rng, scale=1.0)
        u2 = ControlPair(u.bulk + du.bulk, u.surface + du.surface)
        s1 = prob.solve(u)
        s2 = prob.solve(u2)
        xi1 = solve_linearized(linearized_operator(s1, prob.potential, ops4), h)
        xi2 = solve_linearized(linearized_operator(s2, prob.potential, ops4), h)
        diff = Trajectory(xi1.values - xi2.values, grid4, time)
        ratios.append(
            trajectory_space_time_norm(diff) / (hnorm(prob, du) * hnorm(prob, h))
        )
    ratios = np.asarray(ratios)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() < 10.0 * np.median(ratios)


# -- second derivative --------------------------------------------------------


def test_second_derivative_zero_for_quadratic(grid4, ops4, rng):
    pf, pg = quadratic_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, box=(-5.0, 5.0))
    u = random_control(grid4, time, rng)
    state = prob.solve(u)
    h = random_control(grid4, time, rng)
    op = linearized_operator(state, prob.potential, ops4)
    phi = solve_linearized(op, h)
    eta = solve_second_derivative(state, prob.potential, phi, phi, op)
    assert np.abs(eta.values).max() == 0.0


def test_second_derivative_zero_for_zero_phi(grid4, ops4, rng):
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    state = _solved_state(grid4, ops4, time, pf, pg, ControlPair.zeros(grid4, time), 0.5)
    potential = Potential.on(state.grid, pf, pg)
    op = linearized_operator(state, potential, ops4)
    zero = solve_linearized(op, ControlPair.zeros(grid4, time))
    psi = solve_linearized(op, random_control(grid4, time, rng))
    eta = solve_second_derivative(state, potential, zero, psi, op)
    assert np.abs(eta.values).max() == 0.0


def test_second_derivative_mixed_difference_oracle(grid8, ops8, rng):
    """[S(u+eh+ek) - S(u+eh) - S(u+ek) + S(u)]/e^2 -> eta with order >= 0.9."""
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 10)
    u = ControlPair.zeros(grid8, time)
    state = _solved_state(grid8, ops8, time, pf, pg, u)
    potential = Potential.on(state.grid, pf, pg)
    op = linearized_operator(state, potential, ops8)
    h = random_control(grid8, time, rng, scale=1.0)
    k = random_control(grid8, time, rng, scale=1.0)
    phi = solve_linearized(op, h)
    psi = solve_linearized(op, k)
    eta = solve_second_derivative(state, potential, phi, psi, op)

    eps_list = np.array([3e-2, 1e-2, 3e-3])
    errs = []
    for eps in eps_list:
        def shifted(*dirs):
            bulk = u.bulk.copy()
            surf = u.surface.copy()
            for d in dirs:
                bulk = bulk + eps * d.bulk
                surf = surf + eps * d.surface
            return _solved_state(grid8, ops8, time, pf, pg, ControlPair(bulk, surf))

        mixed = (
            shifted(h, k).values - shifted(h).values - shifted(k).values + state.values
        ) / eps**2
        errs.append(
            trajectory_space_time_norm(Trajectory(mixed - eta.values, grid8, time))
        )
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert slope >= 0.9


def _mixed_difference_errors(grid, ops, rng, eps_list):
    """Space-time error of the mixed difference of the state against eta, per eps."""
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 10)
    u = ControlPair.zeros(grid, time)
    state = _solved_state(grid, ops, time, pf, pg, u)
    potential = Potential.on(grid, pf, pg)
    op = linearized_operator(state, potential, ops)
    h = random_control(grid, time, rng, scale=1.0)
    k = random_control(grid, time, rng, scale=1.0)
    eta = solve_second_derivative(state, potential, solve_linearized(op, h), solve_linearized(op, k), op)

    def error(eps):
        def solved(*dirs):
            shift = ControlPair(
                u.bulk + eps * sum(d.bulk for d in dirs),
                u.surface + eps * sum(d.surface for d in dirs),
            )
            return _solved_state(grid, ops, time, pf, pg, shift).values

        mixed = (solved(h, k) - solved(h) - solved(k) + state.values) / eps**2
        return trajectory_space_time_norm(Trajectory(mixed - eta.values, grid, time))

    return [error(eps) for eps in eps_list]


def test_mixed_difference_follows_linear_trend_at_small_eps(grid8, ops8, rng):
    """At eps = 3e-3 the mixed-difference error stays within 1.1x of its eps-linear trend.

    The mixed difference divides state differences by eps^2, so a state
    solved only just under newton_tol adds an error of order tol / eps^2
    that bends the trend at small eps. At n = 8 every iteration is a
    damped Newton step, which lands far below newton_tol.
    """
    small, large = _mixed_difference_errors(grid8, ops8, rng, (3e-3, 1e-2))
    assert small <= 1.1 * (3e-3 / 1e-2) * large


def test_mixed_difference_follows_linear_trend_on_carried_factor(grid16, ops16, rng):
    """The same 1.1x bound at n = 16, where levels finish by chord steps on a carried factor.

    A chord step that meets newton_tol can sit just under it, so a level
    whose last step was a contracting chord step keeps stepping down to its
    rounding floor. Here the chord steps contract by about 1/100, so most
    levels land far below newton_tol anyway: without that guard this case
    reads 1.005x instead of 0.985x. `test_state.test_chord_counts_hand_checked`
    pins the guard itself.
    """
    small, large = _mixed_difference_errors(grid16, ops16, rng, (3e-3, 1e-2))
    assert small <= 1.1 * (3e-3 / 1e-2) * large


def test_linearized_fields_evaluated_on_levels_one_to_m_only(grid4, ops4, rng, monkeypatch):
    """f'', g'' and f''', g''' are evaluated only where the marches read them.

    The step to level k reads the level-k coefficients and sources at the
    interior slots and on the boundary cycle, k = 1..m. Those values equal
    the potentials evaluated on the whole state bit for bit. The curvature's
    third-derivative term reads the same slots, once per report whatever
    its number of directions, and the energy evaluates each slot once. Each
    is one evaluation of the per-slot `Potential.on` over all slots.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    control = random_control(grid4, time, rng)
    state = _solved_state(grid4, ops4, time, pf, pg, control)
    h, k = random_control(grid4, time, rng), random_control(grid4, time, rng)

    def log_sizes(*names):
        sizes = {name: [] for name in names}
        for name, evaluated in sizes.items():
            def logged(self, y, _original=getattr(Potential, name), _sizes=evaluated):
                _sizes.append(np.size(y))
                return _original(self, y)

            monkeypatch.setattr(Potential, name, logged)
        return sizes

    sizes = log_sizes("d2", "d3")
    factored = {}
    factor = StepMatrix.factor

    def logged_factor(self, c, dt, level=None, residual=None):
        factored[level] = c.copy()
        return factor(self, c, dt, level=level, residual=residual)

    monkeypatch.setattr(StepMatrix, "factor", logged_factor)
    potential = Potential.on(state.grid, pf, pg)
    op = linearized_operator(state, potential, ops4)
    phi, psi = solve_linearized(op, h), solve_linearized(op, k)
    eta = solve_second_derivative(state, potential, phi, psi, op)
    monkeypatch.undo()

    m, N = time.m, grid4.num_nodes
    assert sizes == {"d2": [m * N], "d3": [m * N]}
    full = slot_fields(grid4, pf.d2(state.values), pg.d2(state.surface))
    assert sorted(factored) == list(range(1, m + 1))
    for level, c in factored.items():
        assert np.array_equal(c, full[level])
    source = slot_fields(
        grid4,
        -pf.d3(state.values) * phi.values * psi.values,
        -pg.d3(state.surface) * phi.surface * psi.surface,
    )
    assert np.array_equal(eta.values, solve_linear(op, source, np.zeros(grid4.num_nodes)).values)

    # a report reads f''' and g''' on levels 1..m once for all its directions, and f'' and
    # g'' once for its one linearized operator; the energy reads each slot once
    prob = make_problem(grid4, ops4, time, pf, pg)
    sizes = log_sizes("value", "d2", "d3")
    report = optimality_report(prob, control, tau=1e9, n_dir=5, state=state)
    assert len(report.curvature_samples) == 5
    assert sizes == {"value": [], "d2": [m * N], "d3": [m * N]}
    energy(grid4, ops4, prob.potential, state.values[-1])
    assert sizes == {"value": [N], "d2": [m * N], "d3": [m * N]}
