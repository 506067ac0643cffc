"""Linear coupled solves: generic, linearized, adjoint, second derivative.

All four reuse one implicit Euler stepper. A step from level k to k+1
solves M(k+1) z = z_prev/dt + source(k+1) with
M(k) = I/dt + coupled + diag(c(k)), where the diagonal carries the bulk
coefficient at interior slots and the surface coefficient at boundary
slots. Coefficients are read at the arrival level, the same point where
the nonlinear solver evaluated its Newton linearization; that choice makes
the adjoint below an exact algebraic transpose of the forward stepping.

Each M(k) is factored once as the symmetric band S = W M(k), W the slot
quadrature weights, by the grid's one `geometry.StepMatrix` (`ops.step`).
Since M^T = S W^-1, the transposed step is the forward band solve with
the W scaling moved to the other side, and one factor serves every (N,)
right-hand side of the linearized, adjoint and second-derivative marches.

The adjoint is built by transposing that stepping, not by discretizing
the backward equations anew: multipliers of the step equations are
marched backward through the transposed step solves, from level m down
to level 1 (level 0 is initial data, not an unknown), and then rescaled
by the space-time quadrature weights into inner-product representers.
Every duality identity involving these solves therefore holds to
direct-solver roundoff.
"""

import numpy as np

from .errors import DimensionMismatchError
from .pde_state import ControlPair, Trajectory, slot_fields, slot_potential


class SteppedOperator:
    """Per-level factorizations of M(k) = I/dt + coupled + diag(c(k)).

    coeffs is an (m+1, N) array in equation-slot layout: the bulk
    coefficient at interior slots, the surface coefficient at boundary
    slots (see `pde_state.slot_fields`). Each level is factored lazily,
    once, by the grid's `geometry.StepMatrix` (`ops.step`) with the time
    step dt, as a banded Cholesky factor that forward and transposed
    solves of (N,) right-hand sides share. A fully factored operator holds
    m+1 bands: 21 x 17.3 MB at n = 128, m = 20. Instances are safe to share
    across sequential solves on the same state.
    """

    def __init__(self, grid, ops, time, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (time.m + 1, grid.num_nodes):
            raise DimensionMismatchError(
                f"coefficients need shape {(time.m + 1, grid.num_nodes)}, got {coeffs.shape}"
            )
        self.grid = grid
        self.time = time
        self._step = ops.step
        self._coeffs = coeffs
        self._factors = [None] * (time.m + 1)

    def _factor(self, k):
        if self._factors[k] is None:
            self._factors[k] = self._step.factor(self._coeffs[k], self.time.dt, level=k)
        return self._factors[k]

    def solve(self, k, rhs):
        return self._step.solve(self._factor(k), rhs)

    def solve_transposed(self, k, rhs):
        return self._step.solve_transposed(self._factor(k), rhs)


def solve_linear(operator, source, init):
    """Implicit Euler march of the variable-coefficient coupled system.

    Args:
        operator: SteppedOperator holding the grid, time axis and
            coefficients of the march.
        source: ControlPair-shaped pair read at the arrival level of each
            step (level 0 never enters).
        init: (N,) array of initial values.

    Raises:
        SolverFailureError: a step matrix is not positive definite
            (possible only when 1/dt + c(k) <= 0 on some slot).
    """
    grid, time = operator.grid, operator.time
    z0 = np.asarray(init, dtype=float)
    if z0.shape != (grid.num_nodes,):
        raise DimensionMismatchError(f"initial data needs shape ({grid.num_nodes},)")
    slot_source = slot_fields(grid, source.bulk, source.surface)
    values = np.empty((time.m + 1, grid.num_nodes))
    values[0] = z0
    for k in range(time.m):
        values[k + 1] = operator.solve(k + 1, values[k] / time.dt + slot_source[k + 1])
    return Trajectory(values, grid, time)


def linearized_operator(state, pf, pg, ops):
    """Factorization cache for the marches linearized around one state.

    Its coefficients are the potentials' second derivatives along the
    state: f'' at interior slots, g'' at boundary slots, on levels 1..m.
    Level 0 is never factored, so its row stays zero.
    """
    coeffs = np.zeros(state.values.shape)
    coeffs[1:] = slot_potential(state.grid, state.values[1:], pf.d2, pg.d2)
    return SteppedOperator(state.grid, ops, state.time, coeffs)


def solve_linearized(operator, direction):
    """Directional derivative of the control-to-state map at a solved state.

    Solves the variable-coefficient system of `linearized_operator` with
    the direction as source and zero initial data.
    """
    return solve_linear(operator, direction, np.zeros(operator.grid.num_nodes))


def tracking_sources(problem, state):
    """Quadrature-weighted cost residuals in equation-slot layout.

    Level k holds the weighted tracking residuals that multiply the level-k
    unknown of the forward stepping; the final level additionally carries
    the terminal mismatch terms.
    """
    grid, time = state.grid, state.time
    theta = time.weights()
    w = grid.bulk_weights
    gamma = grid.surface_weights
    cycle = grid.boundary_cycle

    d = np.zeros((time.m + 1, grid.num_nodes))
    d += problem.beta1 * theta[:, None] * w[None, :] * (state.values - problem.z_q)
    d[:, cycle] += problem.beta2 * theta[:, None] * gamma[None, :] * (state.surface - problem.z_sigma)
    d[-1] += problem.beta3 * w * (state.values[-1] - problem.z_t)
    d[-1, cycle] += problem.beta3 * gamma * (state.surface[-1] - problem.z_gamma_t)
    return d


def adjoint_from_seeds(state, seeds, operator):
    """Backward transpose march from weighted seeds to representers.

    seeds[k] multiplies the level-k unknown; the returned trajectory holds
    the inner-product representers p with p = multiplier / (theta * slot
    weight), whose boundary trace is the surface adjoint. The march stops
    at level 1: level 0 is initial data, so seeds[0] is never read,
    values[0] stays zero and level 0 of the operator is never factored.
    """
    grid, time = state.grid, state.time
    theta = time.weights()

    values = np.zeros((time.m + 1, grid.num_nodes))
    lam = operator.solve_transposed(time.m, seeds[time.m])
    values[time.m] = lam / (theta[time.m] * grid.slot_weights)
    for k in range(time.m - 1, 0, -1):
        lam = operator.solve_transposed(k, seeds[k] + lam / time.dt)
        values[k] = lam / (theta[k] * grid.slot_weights)
    return Trajectory(values, grid, time)


def solve_adjoint(state, problem, operator):
    """Adjoint pair for the tracking cost at a solved state.

    Exact transpose of the linearized forward stepping (see module
    docstring), marched backward from the level that carries the terminal
    mismatch down to level 1; level 0 holds zeros. The trace of the
    returned trajectory is the surface adjoint.
    """
    return adjoint_from_seeds(state, tracking_sources(problem, state), operator)


def solve_second_derivative(state, pf, pg, phi, psi, operator):
    """Second directional derivative of the control-to-state map.

    phi and psi are linearized solutions at the same state; the source is
    the negative third derivative of the potentials along the state times
    their product, with zero initial data. The march reads the source at
    the interior slots and on the boundary cycle of levels 1..m only, so
    the third derivatives are evaluated there alone.
    """
    grid = state.grid
    d3 = slot_potential(grid, state.values[1:], pf.d3, pg.d3)
    source = np.zeros(state.values.shape)
    source[1:] = -d3 * phi.values[1:] * psi.values[1:]
    return solve_linear(
        operator, ControlPair(source, source[:, grid.boundary_cycle]), np.zeros(grid.num_nodes)
    )
