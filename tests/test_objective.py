import itertools
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import acopt
from acopt import (
    ControlPair,
    DomainError,
    FieldPair,
    InvalidParameterError,
    Potential,
    TimeAxis,
    Trajectory,
    build_grid,
    build_operators,
    curvature,
    curvature_weights,
    evaluate_cost,
    first_order,
    hessian_apply,
    hinner,
    hnorm,
    linearized_operator,
    optimality_report,
    projection_residual,
    reduced_gradient,
    solve_adjoint,
    solve_linearized,
    stationarity_norm,
    tracking_seeds,
)
from acopt.cli_io import RunConfig, build_problem, load_config
from acopt.objective import _cone_directions, _cost_form, _seed_form, adjoint_as_control, clip_to_box
from acopt.pde_state import slot_fields

from conftest import (
    default_potentials,
    make_problem,
    quadratic_potentials,
    random_control,
)


def test_cost_zero_when_state_matches_targets(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 6)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(1.0, 1.0, 1.0, 1.0, 1.0))
    state = Trajectory(prob.z_q.copy(), grid4, time)
    # make the surface targets the trace so every term vanishes
    prob = replace(prob, z_sigma=prob.z_q[:, grid4.boundary_cycle], z_t=prob.z_q[-1])
    assert evaluate_cost(prob, state, ControlPair.zeros(grid4, time)) == 0.0


def test_cost_pure_control_term(grid4, ops4):
    pf, pg = default_potentials()
    T = 0.8
    time = TimeAxis(T, 10)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(0.0, 0.0, 0.0, 1.0, 0.0))
    u = ControlPair(
        np.ones((time.m + 1, grid4.num_nodes)), np.zeros((time.m + 1, grid4.num_boundary))
    )
    state = Trajectory(np.full((time.m + 1, grid4.num_nodes), 0.5), grid4, time)
    assert evaluate_cost(prob, state, u) == pytest.approx(T / 2.0, rel=1e-14)


def test_cost_matches_independent_quadrature(grid4, ops4, rng):
    pf, pg = default_potentials()
    time = TimeAxis(0.5, 7)
    prob = make_problem(
        grid4, ops4, time, pf, pg, betas=(1.0, 0.8, 0.6, 0.4, 0.2), seed=9
    )
    state = Trajectory(rng.uniform(0.2, 0.8, size=(time.m + 1, grid4.num_nodes)), grid4, time)
    u = random_control(grid4, time, rng)

    # plain-loop re-summation with trapezoid weights
    dt = time.dt
    theta = [dt * (0.5 if k in (0, time.m) else 1.0) for k in range(time.m + 1)]
    total = 0.0
    for k in range(time.m + 1):
        for j in range(grid4.num_nodes):
            total += 0.5 * prob.beta1 * theta[k] * grid4.bulk_weights[j] * (
                state.values[k, j] - prob.z_q[k, j]
            ) ** 2
            total += 0.5 * prob.beta5 * theta[k] * grid4.bulk_weights[j] * u.bulk[k, j] ** 2
        for b in range(grid4.num_boundary):
            total += 0.5 * prob.beta2 * theta[k] * grid4.surface_weights[b] * (
                state.surface[k, b] - prob.z_sigma[k, b]
            ) ** 2
            total += 0.5 * prob.beta6 * theta[k] * grid4.surface_weights[b] * u.surface[k, b] ** 2
    for j in range(grid4.num_nodes):
        total += 0.5 * prob.beta3 * grid4.bulk_weights[j] * (
            state.values[-1, j] - prob.z_t[j]
        ) ** 2
    for b in range(grid4.num_boundary):
        total += 0.5 * prob.beta3 * grid4.surface_weights[b] * (
            state.surface[-1, b] - prob.z_gamma_t[b]
        ) ** 2
    assert evaluate_cost(prob, state, u) == pytest.approx(total, rel=1e-12)


def test_cost_and_hinner_bit_identical_to_written_out_terms(rng):
    """evaluate_cost is half the six terms summed in order, and hinner one pairing, bit for bit.

    Each space-time term of the cost is the three-operand sum of the metric
    theta w (theta gamma over Sigma) with its two arrays; the terminal terms
    are numpy sums. hinner is one three-operand sum over the bulk levels,
    then the surface levels, of the metric and both controls. The
    optimizer's Armijo tail is decided at the 1e-15 level, so neither may
    move by so much as a reordered sum or product. At n = 4 the area weights
    are powers of two, so the pairing theta (a w) b gives the same bits as
    the metric's (theta w) a b and a reordered product cannot show; at
    n = 6 (h = 1/6) it differs on some draw. The two-sum pairing, bulk plus
    surface, differs from hinner on some draw at either n. One problem has
    all five weights positive, one has beta2 = beta5 = 0.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.5, 7)
    theta = time.weights()
    draws = []
    for n in (4, 6):
        grid = build_grid(n)
        ops = build_operators(grid)
        w, gam = grid.bulk_weights, grid.surface_weights
        tw, tgam = theta[:, None] * w, theta[:, None] * gam
        metric = np.concatenate((tw.ravel(), tgam.ravel()))
        reordered, two_sums = [], []
        for betas in [(1.0, 0.8, 0.6, 0.4, 0.2), (1.0, 0.0, 0.6, 0.0, 0.2)]:
            prob = make_problem(grid, ops, time, pf, pg, betas=betas, seed=9)
            for _ in range(30):
                state = Trajectory(rng.uniform(0.2, 0.8, size=(time.m + 1, grid.num_nodes)), grid, time)
                u, v = random_control(grid, time, rng), random_control(grid, time, rng)
                dq, ds = state.values - prob.z_q, state.surface - prob.z_sigma
                dt, dg = state.values[-1] - prob.z_t, state.surface[-1] - prob.z_gamma_t
                terms = [
                    prob.beta1 * np.einsum("kj,kj,kj->", tw, dq, dq),
                    prob.beta2 * np.einsum("kj,kj,kj->", tgam, ds, ds),
                    prob.beta3 * np.sum(dt * w * dt),
                    prob.beta3 * np.sum(dg * gam * dg),
                    prob.beta5 * np.einsum("kj,kj,kj->", tw, u.bulk, u.bulk),
                    prob.beta6 * np.einsum("kj,kj,kj->", tgam, u.surface, u.surface),
                ]
                assert evaluate_cost(prob, state, u) == 0.5 * sum(terms)

                a = np.concatenate((u.bulk.ravel(), u.surface.ravel()))
                b = np.concatenate((v.bulk.ravel(), v.surface.ravel()))
                one_sum = np.einsum("i,i,i->", metric, a, b)
                assert hinner(prob, u, v) == one_sum
                draws.append(terms)
                bulk = np.einsum("kj,kj,kj->", tw, u.bulk, v.bulk)
                two_sums.append(bulk + np.einsum("kj,kj,kj->", tgam, u.surface, v.surface) != one_sum)
                # theta applied to a w: the same pairing, its product reordered
                reordered.append(np.einsum("k,kj,kj->", theta, u.bulk * w, v.bulk) != bulk)
        assert any(reordered) == (n == 6)
        assert any(two_sums)

    # Every other order of the six terms changes the sum on some draw, so a
    # reordered cost form fails the checks above. Swapping the first two
    # terms is exact (a + b == b + a) and cannot show.
    for order in itertools.permutations(range(6)):
        if order[2:] != (2, 3, 4, 5):
            assert any(sum(t[i] for i in order) != sum(t) for t in draws), order


# Prints the cost on seeded draws at n = 4, 8 and 16, and the energy of each level, as hex.
_KERNEL_PROBE = """
import numpy as np
from acopt import ControlPair, Trajectory, energy, evaluate_cost
from acopt.cli_io import RunConfig, build_problem

for n in (4, 8, 16):
    problem = build_problem(RunConfig(grid_n=n))
    grid, time = problem.grid, problem.time
    rng = np.random.default_rng(n)
    for _ in range(20):
        values = rng.uniform(0.05, 0.95, (time.m + 1, grid.num_nodes))
        control = ControlPair(
            rng.uniform(-1.0, 1.0, (time.m + 1, grid.num_nodes)),
            rng.uniform(-1.0, 1.0, (time.m + 1, grid.num_boundary)),
        )
        cost = evaluate_cost(problem, Trajectory(values, grid, time), control)
        print(cost.hex(), *(energy(grid, problem.ops, problem.potential, v).hex() for v in values))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86-64 OpenBLAS kernel names")
def test_cost_and_energy_bit_identical_across_blas_kernels():
    """evaluate_cost and energy give the same bits under the Haswell and Prescott kernels.

    OpenBLAS picks its kernel when it loads, so each kernel runs in its own
    process. A BLAS dot in either sum differs between these two kernels on
    some of the 60 draws; numpy's own sums do not.
    """
    src = str(Path(acopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _KERNEL_PROBE],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1"),
            stdout=subprocess.PIPE,
            text=True,
        )
        for core in ("Haswell", "Prescott")
    ]
    try:
        haswell, prescott = (run.communicate(timeout=120)[0].splitlines() for run in runs)
    finally:
        for run in runs:
            run.kill()  # a no-op on a process that has exited
    assert [run.returncode for run in runs] == [0, 0]
    assert len(haswell) == len(prescott) == 60
    differ = [k for k, (a, b) in enumerate(zip(haswell, prescott)) if a != b]
    assert not differ, f"draws {differ} differ between the kernels"


def test_tracking_seeds_are_the_state_gradient_of_the_cost(grid4, ops4, rng):
    """J is quadratic in the state, so J(y + d) - J(y - d) = 2 <seeds, d> to roundoff."""
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(1.0, 0.7, 1.3, 0.1, 0.2), seed=4)
    u = random_control(grid4, time, rng)
    state = prob.solve(u)
    seeds = tracking_seeds(prob, state)
    for _ in range(3):
        delta = rng.uniform(-0.1, 0.1, size=state.values.shape)
        plus = evaluate_cost(prob, Trajectory(state.values + delta, grid4, time), u)
        minus = evaluate_cost(prob, Trajectory(state.values - delta, grid4, time), u)
        predicted = 2.0 * np.sum(seeds * delta)
        assert abs((plus - minus) - predicted) <= 1e-13 * max(plus, minus)


def test_adjoint_as_control_is_the_riesz_map_of_hinner(grid8, ops8, rng):
    """hinner(adjoint_as_control(lambda), h) is the multipliers' slot pairing with h.

    The Riesz map's defining property, for random multipliers (level 0
    zero, as `solve_adjoint` leaves it) and a random control direction:
    sum over levels 1..m of lambda_k . slot_fields(h)_k.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.5, 7)
    prob = make_problem(grid8, ops8, time, pf, pg)
    lam = rng.normal(size=(time.m + 1, grid8.num_nodes))
    lam[0] = 0.0
    h = random_control(grid8, time, rng)
    slot_pairing = np.sum(lam[1:] * slot_fields(grid8, h.bulk, h.surface)[1:])
    rep = adjoint_as_control(prob, Trajectory(lam, grid8, time))
    assert hinner(prob, rep, h) == pytest.approx(slot_pairing, rel=1e-13)


def test_gradient_pure_control_case(grid4, ops4, rng):
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(0.0, 0.0, 0.0, 1.0, 0.3))
    u = random_control(grid4, time, rng)
    state = prob.solve(u)
    adj = solve_adjoint(linearized_operator(state, prob.potential, ops4), tracking_seeds(prob, state))
    grad = reduced_gradient(prob, adj, u)
    np.testing.assert_allclose(grad.bulk, u.bulk, atol=1e-14)
    np.testing.assert_allclose(grad.surface, 0.3 * u.surface, atol=1e-14)


def test_gradient_central_difference_order_two(grid8, ops8, rng):
    pf, pg = default_potentials()
    time = TimeAxis(0.5, 10)
    prob = make_problem(grid8, ops8, time, pf, pg, betas=(1.0, 1.0, 1.0, 0.1, 0.1), seed=3)
    u = random_control(grid8, time, rng, scale=0.3)
    state = prob.solve(u)
    adj = solve_adjoint(linearized_operator(state, prob.potential, ops8), tracking_seeds(prob, state))
    grad = reduced_gradient(prob, adj, u)

    eps_list = np.array([3e-2, 1e-2, 3e-3, 1e-3, 3e-4])
    for _ in range(2):
        h = random_control(grid8, time, rng)
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
        # fit the decaying branch only (the tail sits on the roundoff plateau)
        branch = errors > 50.0 * errors.min()
        if branch.sum() >= 2:
            slope = np.polyfit(np.log(eps_list[branch]), np.log(errors[branch]), 1)[0]
            assert slope >= 1.8
        assert errors.min() <= 1e-9


def test_gradient_duality_against_linearized(grid8, ops8, rng):
    """<grad, h> equals the directional derivative assembled from xi."""
    pf, pg = default_potentials()
    time = TimeAxis(0.5, 12)
    prob = make_problem(grid8, ops8, time, pf, pg, betas=(1.0, 0.6, 0.8, 0.2, 0.3), seed=8)
    u = random_control(grid8, time, rng, scale=0.4)
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, ops8)
    adj = solve_adjoint(op, tracking_seeds(prob, state))
    grad = reduced_gradient(prob, adj, u)

    theta = time.weights()
    w, gam = grid8.bulk_weights, grid8.surface_weights
    for _ in range(3):
        h = random_control(grid8, time, rng)
        xi = solve_linearized(op, h)
        deriv = prob.beta1 * np.einsum(
            "k,kj,kj->", theta, (state.values - prob.z_q) * w, xi.values
        )
        deriv += prob.beta2 * np.einsum(
            "k,kj,kj->", theta, (state.surface - prob.z_sigma) * gam, xi.surface
        )
        deriv += prob.beta3 * np.dot((state.values[-1] - prob.z_t) * w, xi.values[-1])
        deriv += prob.beta3 * np.dot(
            (state.surface[-1] - prob.z_gamma_t) * gam, xi.surface[-1]
        )
        deriv += prob.beta5 * np.einsum("k,kj,kj->", theta, u.bulk * w, h.bulk)
        deriv += prob.beta6 * np.einsum("k,kj,kj->", theta, u.surface * gam, h.surface)
        lhs = hinner(prob, grad, h)
        assert abs(lhs - deriv) <= 1e-10 * max(abs(lhs), 1e-12)


def test_gradient_depends_on_residuals_only(grid4, ops4, rng):
    """Shifting state and targets by the same constant leaves the gradient unchanged."""
    pf, pg = quadratic_potentials()  # coefficient fields do not see the shift either
    time = TimeAxis(0.4, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(1.0, 1.0, 1.0, 0.5, 0.5), seed=1)
    values = rng.uniform(0.2, 0.8, size=(time.m + 1, grid4.num_nodes))
    u = random_control(grid4, time, rng)

    grads = []
    for shift in (0.0, 0.9):
        state = Trajectory(values + shift, grid4, time)
        shifted = replace(
            prob, z_q=prob.z_q + shift, z_sigma=prob.z_sigma + shift, z_t=prob.z_t + shift
        )
        adj = solve_adjoint(linearized_operator(state, prob.potential, ops4), tracking_seeds(shifted, state))
        grads.append(reduced_gradient(shifted, adj, u))
    np.testing.assert_allclose(grads[0].bulk, grads[1].bulk, atol=1e-11)
    np.testing.assert_allclose(grads[0].surface, grads[1].surface, atol=1e-11)


def test_curvature_pure_control_quadratic(grid4, ops4, rng):
    """Quadratic potentials with only the distributed control weight set."""
    pf, pg = quadratic_potentials()
    time = TimeAxis(0.4, 6)
    prob = make_problem(
        grid4, ops4, time, pf, pg, betas=(0.0, 0.0, 0.0, 1.0, 0.0), box=(-5.0, 5.0)
    )
    u = ControlPair.zeros(grid4, time)
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, ops4)
    weights = curvature_weights(prob, state, solve_adjoint(op, tracking_seeds(prob, state)))
    h = random_control(grid4, time, rng)
    value = curvature(prob, op, weights, h)
    theta = time.weights()
    expected = float(
        np.einsum("k,kj,kj->", theta, h.bulk * grid4.bulk_weights, h.bulk)
    )
    assert value == pytest.approx(expected, rel=1e-12)


def test_curvature_zero_direction(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 4)
    prob = make_problem(grid4, ops4, time, pf, pg)
    u = ControlPair.zeros(grid4, time)
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, ops4)
    weights = curvature_weights(prob, state, solve_adjoint(op, tracking_seeds(prob, state)))
    assert curvature(prob, op, weights, ControlPair.zeros(grid4, time)) == 0.0


def test_curvature_second_difference_oracle(grid8, ops8, rng):
    pf, pg = default_potentials()
    time = TimeAxis(0.5, 10)
    prob = make_problem(grid8, ops8, time, pf, pg, betas=(1.0, 1.0, 1.0, 0.1, 0.1), seed=4)
    u = random_control(grid8, time, rng, scale=0.3)
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, ops8)
    weights = curvature_weights(prob, state, solve_adjoint(op, tracking_seeds(prob, state)))
    j0 = evaluate_cost(prob, state, u)
    h = random_control(grid8, time, rng)
    exact = curvature(prob, op, weights, h)
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
    assert best <= 1e-4


def test_curvature_parallelogram_law(grid8, ops8, rng):
    """D2J[h+k] + D2J[h-k] = 2 D2J[h] + 2 D2J[k]: the curvature is a quadratic form."""
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 8)
    prob = make_problem(grid8, ops8, time, pf, pg, betas=(1.0, 0.5, 0.7, 0.2, 0.2), seed=6)
    u = random_control(grid8, time, rng, scale=0.3)
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, ops8)
    weights = curvature_weights(prob, state, solve_adjoint(op, tracking_seeds(prob, state)))
    h = random_control(grid8, time, rng)
    k = random_control(grid8, time, rng)
    hp = ControlPair(h.bulk + k.bulk, h.surface + k.surface)
    hm = ControlPair(h.bulk - k.bulk, h.surface - k.surface)
    plus = curvature(prob, op, weights, hp)
    minus = curvature(prob, op, weights, hm)
    sides = 2.0 * curvature(prob, op, weights, h) + 2.0 * curvature(prob, op, weights, k)
    assert abs(plus + minus - sides) <= 1e-9 * max(abs(plus), abs(minus), 1.0)


def test_curvature_equals_the_written_out_form(rng):
    """The curvature is, bit for bit, the second variation written out here.

    Reference: Q = the tracking weights (beta1 and beta2 times the metric
    theta w and theta gamma, the latter on the cycle, and beta3 (w, gamma)
    on level m) less lambda d3, paired with phi phi over levels 1..m, plus
    beta5 and beta6 times the metric-weighted squares of the bulk and
    surface slots, on eight cone directions. Started at 0.1, near the
    singular end, the lambda d3 pairing exceeds the first direction's
    curvature (at n = 8, 3.7e-3 against 3.4e-3, seven times the tracking
    part; later draws reach negative curvature), so the check reads the
    sums' last bits: a three-operand einsum, np.sum, or the tracking and
    lambda d3 parts summed apart each move them. At n = 8 the area weights
    are powers of two, so a product taken in another order, such as
    theta (w h^2) for the metric's (theta w) h^2, gives the same bits; at
    n = 6 (h = 1/6) it need not.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 8)
    theta = time.weights()[:, None]
    for n in (8, 6):
        grid = build_grid(n)
        ops = build_operators(grid)
        prob = make_problem(grid, ops, time, pf, pg, init_value=0.1, seed=3)
        u = clip_to_box(prob, random_control(grid, time, rng, scale=1.5))
        state = prob.solve(u)
        op = linearized_operator(state, prob.potential, ops)
        adj = solve_adjoint(op, tracking_seeds(prob, state))
        grad = reduced_gradient(prob, adj, u)
        w, gamma, cycle = grid.bulk_weights, grid.surface_weights, grid.boundary_cycle
        tw, tgam = theta * w, theta * gamma
        track = prob.beta1 * tw
        track[:, cycle] += prob.beta2 * tgam
        track[-1] += prob.beta3 * w
        track[-1, cycle] += prob.beta3 * gamma
        lam_d3 = adj.values[1:] * prob.potential.d3(state.values[1:])
        q = track[1:] - lam_d3
        weights = curvature_weights(prob, state, adj)
        # none strongly active, signs at the bounds
        for i, h in enumerate(_cone_directions(prob, u, grad, 1e9, 8, rng)):
            phi = solve_linearized(op, h).values[1:]
            expected = (
                float(np.einsum("kj,kj->", q, phi * phi))
                + prob.beta5 * float(np.einsum("kj,kj->", tw, h.bulk * h.bulk))
                + prob.beta6 * float(np.einsum("kj,kj->", tgam, h.surface * h.surface))
            )
            value = curvature(prob, op, weights, h)
            assert value == expected
            if i == 0:
                assert float(np.einsum("kj,kj->", lam_d3, phi * phi)) > value > 0.0


@pytest.mark.parametrize("name", ["tracking", "boundary-control", "distributed-control"])
def test_hessian_apply_identities(name):
    """hessian_apply against curvature: <Hv, v> = D2J[v], polarization, and symmetry.

    On the experiment of each config (n = 8, m = 20) at a seeded control in
    the box: <Hv, v> = curvature(v); 4 <Hv, w> = curvature(v + w) -
    curvature(v - w); <Hv, w> = <v, Hw>, all in hinner. Over 20 draws per
    setup the worst relative errors were 1.7e-15, 9.5e-16 (relative to the
    larger curvature) and 2.2e-16 (relative to |Hv| |w|); the tolerances
    keep a margin of about ten.
    """
    prob = build_problem(load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"))
    rng = np.random.default_rng(2)
    for _ in range(3):
        u = clip_to_box(prob, random_control(prob.grid, prob.time, rng, scale=1.0))
        state = prob.solve(u)
        op = linearized_operator(state, prob.potential, prob.ops)
        weights = curvature_weights(prob, state, solve_adjoint(op, tracking_seeds(prob, state)))
        v = random_control(prob.grid, prob.time, rng, scale=1.0)
        w = random_control(prob.grid, prob.time, rng, scale=1.0)
        hv, hw = hessian_apply(prob, op, weights, v), hessian_apply(prob, op, weights, w)
        assert hinner(prob, hv, v) == pytest.approx(curvature(prob, op, weights, v), rel=2e-14)
        plus = curvature(prob, op, weights, ControlPair(v.bulk + w.bulk, v.surface + w.surface))
        minus = curvature(prob, op, weights, ControlPair(v.bulk - w.bulk, v.surface - w.surface))
        assert abs(4.0 * hinner(prob, hv, w) - (plus - minus)) <= 2e-14 * max(abs(plus), abs(minus))
        assert abs(hinner(prob, hv, w) - hinner(prob, v, hw)) <= 5e-15 * hnorm(prob, hv) * hnorm(prob, w)


@pytest.mark.parametrize("name", ["tracking", "boundary-control", "distributed-control"])
def test_curvature_weights_track_the_cost_form(name):
    """Q's tracking part is the seed form and the cost form's state part, to roundoff.

    <Hv, v> = curvature(v) reads one Q on both sides, so it cannot catch a
    wrong beta, theta or terminal weight in Q; this test can. With a zero
    adjoint Q is its tracking part alone. On a linearized response phi
    (zero at level 0), Q phi is `_seed_form` on phi's residual tuple and
    sum Q phi^2 is `_cost_form`'s four state terms. The three betas are
    made distinct, so swapping two of them fails here.
    """
    prob = build_problem(load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"))
    prob = replace(prob, beta1=0.7, beta2=1.3, beta3=2.1)
    rng = np.random.default_rng(7)
    u = clip_to_box(prob, random_control(prob.grid, prob.time, rng, scale=1.0))
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, prob.ops)
    zero = Trajectory(np.zeros_like(state.values), prob.grid, prob.time)
    track = curvature_weights(prob, state, zero)
    phi = solve_linearized(op, random_control(prob.grid, prob.time, rng, scale=1.0))
    surface = phi.surface
    residual = (phi.values, surface, phi.values[-1], surface[-1])
    np.testing.assert_allclose(track * phi.values[1:], _seed_form(prob, *residual)[1:], rtol=1e-15, atol=0.0)
    no_control = (np.zeros_like(u.bulk), np.zeros_like(u.surface))
    form = _cost_form(prob, (*residual, *no_control), (*residual, *no_control))
    squares = float(np.einsum("kj,kj->", track, phi.values[1:] * phi.values[1:]))
    assert squares == pytest.approx(form, rel=1e-14)


# -- optimality report --------------------------------------------------------


def test_report_fixed_point_of_projection(grid4, ops4):
    """Decoupled control cost: zero control is the exact projection fixed point."""
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(0.0, 0.0, 0.0, 1.0, 1.0))
    report = optimality_report(prob, ControlPair.zeros(grid4, time), n_dir=4)
    assert report.projection_residual == 0.0
    assert report.stationarity == 0.0


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"n_dir": -3}, "n_dir"),
        ({"n_dir": 2.5}, "n_dir"),
        ({"tau": float("nan")}, "tau"),
        ({"tau": -1.0}, "tau"),
    ],
    ids=["negative-n_dir", "fractional-n_dir", "nan-tau", "negative-tau"],
)
def test_report_rejects_bad_inputs_by_name(grid4, ops4, kwargs, name):
    """A negative or fractional n_dir, a negative or NaN tau: rejected, not read as a report."""
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg)
    with pytest.raises(InvalidParameterError, match=f"^{name} "):
        optimality_report(prob, ControlPair.zeros(grid4, time), **kwargs)


def test_report_accepts_zero_n_dir_and_zero_tau(grid4, ops4, rng):
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, seed=2)
    u = random_control(grid4, time, rng, scale=0.5)
    report = optimality_report(prob, u, n_dir=0)
    assert report.curvature_samples == [] and report.grad_norm > 0
    # every gradient entry is nonzero, so strongly active: the active set's measure is the
    # metric's whole total, and the cone is {0}
    report = optimality_report(prob, u, tau=0.0, n_dir=2)
    assert report.tau == 0.0 and report.active_set_fraction == pytest.approx(1.0, rel=0.0, abs=1e-14)
    assert report.curvature_samples == []


def test_report_large_tau_empties_active_set(grid4, ops4, rng):
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, seed=2)
    u = random_control(grid4, time, rng, scale=0.5)
    report = optimality_report(prob, u, tau=1e9, n_dir=4)
    assert report.active_set_fraction == 0.0


def test_cone_directions_count(grid4, ops4):
    """A trivial cone draws nothing; a free cone gives exactly n_dir nonzero directions."""
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg)
    u = ControlPair.zeros(grid4, time)
    ones = ControlPair(np.ones_like(u.bulk), np.ones_like(u.surface))
    rng = np.random.default_rng(3)
    untouched = rng.bit_generator.state
    assert list(_cone_directions(prob, u, ones, 0.5, 8, rng)) == []  # every entry strongly active
    assert rng.bit_generator.state == untouched
    dirs = list(_cone_directions(prob, u, ones, 2.0, 8, rng))  # none active
    assert len(dirs) == 8
    assert all(hnorm(prob, d) > 0 for d in dirs)


@pytest.mark.parametrize(
    "box",
    [{"box_u1": 0.0, "box_u2": 0.0}, {"box_u1_gamma": 0.0, "box_u2_gamma": 0.0}],
    ids=["boundary-only", "distributed-only"],
)
def test_cone_directions_stay_in_the_box(box):
    """Pinned entries (lower = upper bound) get 0; one-sided bounds keep their sign.

    The paper's boundary-only and distributed-only cases pin one slot with a
    zero-width box. The control is clipped from a wide draw, so the other
    slot has entries at each bound; a zero gradient leaves none strongly
    active, so each bound's rule shows on every entry at it.
    """
    prob = build_problem(RunConfig(**box))
    rng = np.random.default_rng(5)
    u = clip_to_box(prob, random_control(prob.grid, prob.time, rng, scale=2.0))
    dirs = list(_cone_directions(prob, u, ControlPair.zeros(prob.grid, prob.time), 0.0, 8, rng))
    assert len(dirs) == 8
    slots = (
        (u.bulk, prob.u_lo, prob.u_hi, "bulk"),
        (u.surface, prob.u_lo_surf, prob.u_hi_surf, "surface"),
    )
    for control, lo, hi, name in slots:
        pinned = lo == hi
        only_lo, only_hi = (control <= lo) & ~pinned, (control >= hi) & ~pinned
        assert pinned.all() or (only_lo.any() and only_hi.any())
        for d in dirs:
            h = getattr(d, name)
            assert np.all(h[pinned] == 0.0)
            assert np.all(h[only_lo] >= 0.0) and np.all(h[only_hi] <= 0.0)
            assert np.all(h[~(pinned | only_lo | only_hi)] != 0.0)


def test_cone_masks_draw_the_rule_written_out(grid4, ops4):
    """The masked cone draws are, bit for bit, the cone rule written out case by case.

    Reference: |h| at the lower bound, -|h| at the upper bound, h on free
    entries, then +0.0 on strongly active and pinned (lower = upper bound)
    entries. The control has entries at both bounds and pinned entries,
    and tau leaves about half of them strongly active. No zeroed entry is
    -0.0.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, seed=2)
    pins = {}
    for lo, hi in (("u_lo", "u_hi"), ("u_lo_surf", "u_hi_surf")):
        lower, upper = getattr(prob, lo).copy(), getattr(prob, hi).copy()
        lower[:, ::4] = upper[:, ::4] = 0.25
        pins[lo], pins[hi] = lower, upper
    prob = replace(prob, **pins)
    rng = np.random.default_rng(11)
    u = clip_to_box(prob, random_control(grid4, time, rng, scale=1.5))
    grad = random_control(grid4, time, rng, scale=1.0)
    tau = float(np.median(np.abs(grad.bulk)))

    def old_rule(h, u, g, lo, hi):
        at_lo, at_hi = u <= lo, u >= hi
        h = np.where(at_lo, np.abs(h), np.where(at_hi, -np.abs(h), h))
        h[(np.abs(g) > tau) | (at_lo & at_hi)] = 0.0
        return h

    slots = (
        (u.bulk, grad.bulk, prob.u_lo, prob.u_hi, "bulk"),
        (u.surface, grad.surface, prob.u_lo_surf, prob.u_hi_surf, "surface"),
    )
    for control, g, lo, hi, _ in slots:  # each rule shows, strongly active and not
        pinned, active = lo == hi, np.abs(g) > tau
        only_lo, only_hi = (control <= lo) & ~pinned, (control >= hi) & ~pinned
        for case in (only_lo, only_hi, pinned, ~(pinned | only_lo | only_hi)):
            assert (case & active).any() and (case & ~active).any()
    seed = 13
    dirs = list(_cone_directions(prob, u, grad, tau, 6, np.random.default_rng(seed)))
    stream = np.random.default_rng(seed)
    for d in dirs:
        for control, g, lo, hi, name in slots:
            h = getattr(d, name)
            reference = old_rule(stream.uniform(-1.0, 1.0, size=h.shape), control, g, lo, hi)
            assert np.array_equal(h.view(np.uint64), reference.view(np.uint64))
            assert not np.signbit(h[h == 0.0]).any()


def test_report_draws_the_cone_stream_in_order(grid4, ops4):
    """The report's curvatures are, bit for bit, those along the directions drawn from its seed.

    The draws come direction by direction, bulk slot then surface slot: the
    k-th direction maps the stream's (2k)-th and (2k+1)-th uniform arrays into
    the cone, and `curvature` draws nothing. perfbench's reference
    curvatures rest on this order; drawing every bulk slot first, say, fails
    here. The control has entries at both bounds, and tau leaves about half
    the bulk entries strongly active, so each cone rule shows.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, seed=2)
    u = clip_to_box(prob, random_control(grid4, time, np.random.default_rng(4), scale=1.5))
    assert (u.bulk <= prob.u_lo).any() and (u.bulk >= prob.u_hi).any()
    state = prob.solve(u)
    op = linearized_operator(state, prob.potential, ops4)
    adj = solve_adjoint(op, tracking_seeds(prob, state))
    grad = reduced_gradient(prob, adj, u)
    tau, n_dir, seed = float(np.median(np.abs(grad.bulk))), 5, 9
    report = optimality_report(prob, u, tau=tau, n_dir=n_dir, seed=seed, system=first_order(prob, u, state))
    dirs = list(_cone_directions(prob, u, grad, tau, n_dir, np.random.default_rng(seed)))
    assert len(dirs) == n_dir
    weights = curvature_weights(prob, state, adj)
    assert [s[1] for s in report.curvature_samples] == [curvature(prob, op, weights, d) for d in dirs]
    assert [s[2] for s in report.curvature_samples] == [hinner(prob, d, d) for d in dirs]
    stream = np.random.default_rng(seed)
    for d in dirs:
        for h in (d.bulk, d.surface):
            raw = stream.uniform(-1.0, 1.0, size=h.shape)
            assert np.array_equal(np.abs(h), np.where(h == 0.0, 0.0, np.abs(raw)))
        assert (d.bulk == 0.0).any() and (d.bulk != 0.0).any()


def test_report_memory_does_not_grow_with_n_dir(grid16, ops16):
    """The report holds one cone direction at a time, whatever n_dir is.

    At n = 16, m = 20 a direction is 59 kB. The traced peak of a 64-direction
    report stays within two directions of a 4-direction one; drawing every
    direction before the first curvature traced 60 directions more.
    """
    import tracemalloc

    pf, pg = default_potentials()
    time = TimeAxis(0.4, 20)
    prob = make_problem(grid16, ops16, time, pf, pg, seed=3)
    u = clip_to_box(prob, random_control(grid16, time, np.random.default_rng(0), scale=1.5))
    state = prob.solve(u)
    peaks = {}
    for n_dir in (4, 64):
        tracemalloc.start()
        try:
            report = optimality_report(prob, u, n_dir=n_dir, system=first_order(prob, u, state))
            peaks[n_dir] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.curvature_samples) == n_dir
    direction_bytes = (time.m + 1) * (grid16.num_nodes + grid16.num_boundary) * 8
    growth = peaks[64] - peaks[4]
    assert growth < 2 * direction_bytes, f"{growth / direction_bytes:.1f} directions more"


def test_report_linear_quadratic_ratio_bound(grid4, ops4, rng):
    """With unit control weights the curvature ratio is at least one."""
    pf, pg = quadratic_potentials()
    time = TimeAxis(0.4, 6)
    prob = make_problem(
        grid4, ops4, time, pf, pg, betas=(1.0, 1.0, 1.0, 1.0, 1.0), box=(-5.0, 5.0)
    )
    u = random_control(grid4, time, rng, scale=0.2)
    # large tau empties the strongly active set: directions sampled freely
    report = optimality_report(prob, u, tau=1e9, n_dir=6)
    assert report.min_curvature_ratio >= 1.0
    assert len(report.curvature_samples) == 6


def test_report_unsupported_without_control_weights(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(1.0, 1.0, 1.0, 0.0, 0.0))
    u = ControlPair.zeros(grid4, time)
    _, _, adj, _ = first_order(prob, u, prob.solve(u))
    with pytest.raises(InvalidParameterError, match="^projection identity needs positive control weights$"):
        projection_residual(prob, u, adjoint_as_control(prob, adj))
    report = optimality_report(prob, u, n_dir=2)
    assert not report.projection_supported
    assert np.isnan(report.projection_residual)
    assert report.grad_norm > 0  # other diagnostics still computed


@pytest.mark.parametrize("n", [4, 6])
def test_clip_and_stationarity_equal_their_per_slot_forms(n, rng):
    """clip_to_box and stationarity_norm, one pass over the buffers, match the per-slot forms bit for bit.

    The pairs lower and upper hold, bit for bit, the bounds u_lo, u_lo_surf
    and u_hi, u_hi_surf. The bulk bounds vary entry by entry and differ
    from the surface bounds, so a slot read against the other slot's bounds
    shows.
    """
    pf, pg = default_potentials()
    grid, time = build_grid(n), TimeAxis(0.4, 5)
    shape = (time.m + 1, grid.num_nodes)
    prob = replace(
        make_problem(grid, build_operators(grid), time, pf, pg),
        u_lo=rng.uniform(-0.6, -0.1, size=shape), u_hi=rng.uniform(0.1, 0.6, size=shape),
        u_lo_surf=-0.2, u_hi_surf=0.3,
    )
    for pair, bulk, surface in ((prob.lower, prob.u_lo, prob.u_lo_surf), (prob.upper, prob.u_hi, prob.u_hi_surf)):
        np.testing.assert_array_equal(pair.bulk.view(np.uint64), bulk.view(np.uint64), strict=True)
        np.testing.assert_array_equal(pair.surface.view(np.uint64), surface.view(np.uint64), strict=True)
    theta = time.weights()
    metric = np.concatenate((np.outer(theta, grid.bulk_weights).ravel(), np.outer(theta, grid.surface_weights).ravel()))
    for _ in range(10):
        u, grad = random_control(grid, time, rng, scale=0.8), random_control(grid, time, rng, scale=0.8)
        clipped = clip_to_box(prob, u)
        np.testing.assert_array_equal(clipped.bulk, np.clip(u.bulk, prob.u_lo, prob.u_hi), strict=True)
        np.testing.assert_array_equal(clipped.surface, np.clip(u.surface, prob.u_lo_surf, prob.u_hi_surf), strict=True)
        res_bulk = u.bulk - np.clip(u.bulk - grad.bulk, prob.u_lo, prob.u_hi)
        res_surf = u.surface - np.clip(u.surface - grad.surface, prob.u_lo_surf, prob.u_hi_surf)
        res = np.concatenate((res_bulk.ravel(), res_surf.ravel()))
        assert stationarity_norm(prob, u, grad) == float(np.sqrt(np.einsum("i,i,i->", metric, res, res)))


def test_stationarity_projection_equivalence(grid4, ops4, rng):
    """Both residuals vanish together; both positive off the fixed point."""
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg, betas=(0.0, 0.0, 0.0, 1.0, 1.0))
    u0 = ControlPair.zeros(grid4, time)
    state = prob.solve(u0)
    adj = solve_adjoint(linearized_operator(state, prob.potential, ops4), tracking_seeds(prob, state))
    rep = adjoint_as_control(prob, adj)
    grad = reduced_gradient(prob, adj, u0)
    assert stationarity_norm(prob, u0, grad) == 0.0
    assert projection_residual(prob, u0, rep) == 0.0

    u1 = random_control(grid4, time, rng, scale=0.5)
    state1 = prob.solve(u1)
    adj1 = solve_adjoint(linearized_operator(state1, prob.potential, ops4), tracking_seeds(prob, state1))
    grad1 = reduced_gradient(prob, adj1, u1)
    assert stationarity_norm(prob, u1, grad1) > 0.0
    assert projection_residual(prob, u1, adjoint_as_control(prob, adj1)) > 0.0


def test_problem_validation(grid4, ops4):
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    with pytest.raises(InvalidParameterError):
        make_problem(grid4, ops4, time, pf, pg, betas=(0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(InvalidParameterError):
        make_problem(grid4, ops4, time, pf, pg, box=(1.0, -1.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="^beta1 must be finite"):
            make_problem(grid4, ops4, time, pf, pg, betas=(bad, 1.0, 1.0, 1.0, 1.0))
        with pytest.raises(InvalidParameterError, match="^u_lo must be finite"):
            make_problem(grid4, ops4, time, pf, pg, box=(-bad, 1.0))
        with pytest.raises(DomainError, match="^init must be finite"):
            make_problem(grid4, ops4, time, pf, pg, init_value=bad)
    # the initial data of a singular potential lies in (0, 1), the rule solve_state applies
    for value in (0.0, 2.0):
        with pytest.raises(DomainError, match="^init must lie in"):
            make_problem(grid4, ops4, time, pf, pg, init_value=value)
    make_problem(grid4, ops4, time, *quadratic_potentials(), init_value=2.0)
    prob = make_problem(grid4, ops4, time, pf, pg)
    for target in ("z_q", "z_sigma", "z_t"):
        bad = np.full_like(getattr(prob, target), np.nan)
        with pytest.raises(InvalidParameterError, match=f"^{target} must be finite"):
            replace(prob, **{target: bad})
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="^newton_tol must be positive and finite"):
            replace(prob, newton_tol=bad)
    for bad, shown in ((0, "0"), (2.5, r"2\.5"), (np.nan, "nan")):
        message = f"^max_newton must be a positive integer, got {shown}$"
        with pytest.raises(InvalidParameterError, match=message):
            replace(prob, max_newton=bad)
    # the terminal surface target is the bulk trace, and follows z_t
    new = prob.z_t + 0.1
    prob = replace(prob, z_t=new)
    np.testing.assert_array_equal(prob.z_gamma_t, new[grid4.boundary_cycle])


def test_built_problem_inputs_are_not_reassigned(grid4, ops4, rng):
    """A built problem's checked inputs cannot be reassigned past their checks.

    The box that `clip_to_box` reads (lower, upper) is the one u_lo, u_hi,
    u_lo_surf and u_hi_surf were checked into: reassigning any of them, or
    any other input, raises and leaves the clip as it was. A new problem
    is built, and checked, by `dataclasses.replace`.
    """
    from dataclasses import FrozenInstanceError

    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg)
    u = random_control(grid4, time, rng, scale=3.0)
    clipped = clip_to_box(prob, u)
    for name in ("u_lo", "u_hi", "u_lo_surf", "u_hi_surf"):
        with pytest.raises(FrozenInstanceError):
            setattr(prob, name, np.zeros_like(getattr(prob, name)))
    for name in ("lower", "upper", "z_q", "z_t", "init", "potential", "newton_tol"):
        with pytest.raises(FrozenInstanceError):
            setattr(prob, name, getattr(prob, name))
    with pytest.raises(FrozenInstanceError):
        prob.init.bulk = np.zeros(grid4.num_nodes)
    np.testing.assert_array_equal(clip_to_box(prob, u).data, clipped.data, strict=True)
    assert clipped.data.min() < 0.0
    zero_floor = replace(prob, u_lo=np.zeros_like(prob.u_lo))
    assert clip_to_box(zero_floor, u).bulk.min() == 0.0


def test_problem_forms_the_box_and_metric_on_first_use(grid4, ops4, rng):
    """A solve forms neither the box pairs nor the metric; a clip forms the box, a cost the metric."""
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    prob = make_problem(grid4, ops4, time, pf, pg)
    u = random_control(grid4, time, rng)
    state = prob.solve(u)
    assert not {"lower", "upper", "metric"} & set(vars(prob))
    clip_to_box(prob, u)
    assert {"lower", "upper"} <= set(vars(prob)) and "metric" not in vars(prob)
    evaluate_cost(prob, state, u)
    assert "metric" in vars(prob)
    for pair in (prob.lower, prob.upper, prob.metric):
        for view in (pair.data, pair.bulk, pair.surface):
            assert not view.flags.writeable


def test_cost_bits_do_not_depend_on_the_targets_layout(grid4, ops4, rng):
    """A constant target given as a scalar, a C-ordered or an F-ordered array gives one cost, bit for bit.

    The state's surface is column-indexed, so its layout differs from a
    C-ordered target's; the cost's sums read the residual in one order
    whatever the layouts.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    base = make_problem(grid4, ops4, time, pf, pg)
    u = random_control(grid4, time, rng)
    state = base.solve(u)
    sigma = np.full((time.m + 1, grid4.num_boundary), 0.4)
    costs = {
        evaluate_cost(replace(base, z_q=0.4, z_sigma=z_sigma, z_t=0.4), state, u).hex()
        for z_sigma in (0.4, sigma, np.asfortranarray(sigma))
    }
    assert len(costs) == 1


def test_problem_owns_its_targets_and_box(grid4, ops4, rng):
    """Writing into the arrays a problem was built from changes neither its clip nor its cost.

    The problem keeps private copies and hands out read-only views of them.
    The writes come before the box and the metric are first formed, and
    again after; each clip and cost is that of a problem built from copies.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    base = make_problem(grid4, ops4, time, pf, pg)
    shape = (time.m + 1, grid4.num_nodes)
    given = {"z_q": base.z_q.copy(), "u_lo": np.full(shape, -0.5), "u_hi": np.full(shape, 0.5)}
    twin = replace(base, **{name: array.copy() for name, array in given.items()})
    prob = replace(base, **given)
    u = random_control(grid4, time, rng, scale=1.0)
    state = prob.solve(ControlPair.zeros(grid4, time))
    clipped, cost = clip_to_box(twin, u), evaluate_cost(twin, state, u)
    for fill in (0.0, 2.0):
        for array in given.values():
            array[...] = fill
        np.testing.assert_array_equal(clip_to_box(prob, u).data, clipped.data, strict=True)
        assert evaluate_cost(prob, state, u) == cost
    for name in ("z_q", "z_sigma", "z_t", "u_lo", "u_hi", "u_lo_surf", "u_hi_surf"):
        view = getattr(prob, name)
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[...] = 0.0


def test_problem_owns_its_initial_data(grid4, ops4, rng):
    """Writing into the array given as the initial data changes neither the held data nor a later solve."""
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    given = rng.uniform(0.3, 0.7, grid4.num_nodes)
    prob = replace(make_problem(grid4, ops4, time, pf, pg), init=FieldPair(given))
    held, u = given.copy(), random_control(grid4, time, rng)
    state = prob.solve(u)
    given[...] = 0.9
    np.testing.assert_array_equal(prob.init.bulk, held, strict=True)
    np.testing.assert_array_equal(prob.solve(u).values, state.values, strict=True)
    assert not np.shares_memory(prob.init.bulk, given)
    with pytest.raises(ValueError, match="read-only"):
        prob.init.bulk[0] = 0.5


def test_replace_keeps_broadcast_inputs_compact(grid4, ops4):
    """dataclasses.replace passes the held broadcasts back; the new problem holds what was given.

    A scalar bound holds one value before and after, a row target one
    row, a column target one column, with the same values.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.3, 5)
    m1, N = time.m + 1, grid4.num_nodes
    column = np.linspace(0.3, 0.5, m1)[:, None]
    prob = replace(make_problem(grid4, ops4, time, pf, pg), z_q=np.full(N, 0.4), z_sigma=column)
    again = replace(prob, beta1=2.0)
    held = {"u_lo": 1, "u_hi": 1, "u_lo_surf": 1, "u_hi_surf": 1, "z_q": N, "z_sigma": m1, "z_t": N}
    for problem in (prob, again):
        assert {name: getattr(problem, name).base.size for name in held} == held
    for name in held:
        np.testing.assert_array_equal(getattr(again, name), getattr(prob, name), strict=True)


@pytest.mark.parametrize("side", ["pf", "pg"])
def test_problem_enforces_the_step_rule(grid4, ops4, side):
    """dt (2 c - 4 alpha) = 1 for either potential is rejected; at 0.99 the problem builds and solves."""
    time = TimeAxis(0.5, 1)

    def build(c):
        potentials = {"pf": Potential(1.0, 2.0), "pg": Potential(1.0, 2.0), side: Potential(1.0, c)}
        return make_problem(grid4, ops4, time, potentials["pf"], potentials["pg"], init_value=0.4)

    with pytest.raises(InvalidParameterError, match=rf"^{side} step rule: dt \(2 c - 4 alpha\) = 1 >= 1$"):
        build(3.0)  # 0.5 (2 * 3 - 4) = 1
    prob = build(2.99)  # 0.5 (2 * 2.99 - 4) = 0.99
    assert prob.solve(ControlPair.zeros(grid4, time)).info["factorizations"][0] >= 1


def test_metric_is_theta_w_and_theta_gamma_read_only_and_lazy(grid4, ops4):
    """problem.metric is theta (x) w and theta (x) gamma entry for entry, read-only, formed on first use.

    Its buffer holds the bulk levels, then the surface levels, and neither
    it nor either view can be written. A state solve alone never forms it,
    so a solve-only run never allocates it.
    """
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 6)
    prob = make_problem(grid4, ops4, time, pf, pg)
    prob.solve(ControlPair.zeros(grid4, time))
    assert "metric" not in vars(prob)
    metric = prob.metric
    assert prob.metric is metric
    theta = time.weights()
    np.testing.assert_array_equal(metric.bulk, np.outer(theta, grid4.bulk_weights), strict=True)
    np.testing.assert_array_equal(metric.surface, np.outer(theta, grid4.surface_weights), strict=True)
    flat = np.concatenate((np.outer(theta, grid4.bulk_weights).ravel(), np.outer(theta, grid4.surface_weights).ravel()))
    np.testing.assert_array_equal(metric.data, flat, strict=True)
    for part in (metric.bulk, metric.surface):
        assert np.shares_memory(part, metric.data)
        with pytest.raises(ValueError, match="read-only"):
            part[1, 1] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        metric.data[3] = 1.0


def test_hnorm_consistency(grid4, ops4, rng):
    pf, pg = default_potentials()
    time = TimeAxis(0.4, 4)
    prob = make_problem(grid4, ops4, time, pf, pg)
    a = random_control(grid4, time, rng)
    assert hnorm(prob, a) == pytest.approx(np.sqrt(hinner(prob, a, a)))
    ones = ControlPair(
        np.ones((time.m + 1, grid4.num_nodes)), np.ones((time.m + 1, grid4.num_boundary))
    )
    # |Q| + |Sigma| = T*(1+4)
    assert hinner(prob, ones, ones) == pytest.approx(time.T * 5.0, rel=1e-13)
