"""Linear coupled solves: generic, linearized, adjoint, second derivative.

All four reuse one implicit Euler stepper. A step from level k to k+1
solves M(k+1) z = z_prev/dt + source(k+1) with
M(k) = I/dt + coupled + diag(c(k)), c in slot layout (linearized: the
`potentials.SlotPotential` f'' at interior slots, g'' on the cycle).
Coefficients are read at the arrival level, the same point where the
nonlinear solver evaluated its Newton linearization; that choice makes
the adjoint below an exact algebraic transpose of the forward stepping.

Each M(k) is factored once as the symmetric S = W M(k) =
K + W/dt + W diag(c(k)), K the grid's stiffness and W the slot quadrature
weights, by the grid's one `geometry.StepMatrix` (`ops.step`): banded
Cholesky, or SuperLU on the wide bands of n >= 104.
Since M^T = S W^-1, the transposed step is the forward solve with
the W scaling moved to the other side, and one factor serves every (N,)
right-hand side of the linearized, adjoint and second-derivative marches.

The adjoint is built by transposing that stepping, not by discretizing
the backward equations anew: multipliers of the step equations are
marched backward through the transposed step solves, from level m down
to level 1 (level 0 is initial data, not an unknown), and then rescaled
by the space-time quadrature weights into inner-product representers.
Every duality identity involving these solves therefore holds to
direct-solver roundoff. Both marches read grid and time from the operator
and act on (m+1, N) arrays in equation-slot layout: `solve_linear` on its
source, `solve_adjoint` on its seeds, which for the tracking cost are
`objective.tracking_seeds`, next to the cost they differentiate.
"""

import numpy as np

from .errors import DimensionMismatchError
from .pde_state import Trajectory, slot_fields


class SteppedOperator:
    """Per-level factorizations of M(k) = I/dt + coupled + diag(c(k)).

    coeffs is an (m+1, N) array in equation-slot layout: the bulk
    coefficient at interior slots, the surface coefficient at boundary
    slots (see `pde_state.slot_fields`). Each level is factored lazily,
    once, by the grid's `geometry.StepMatrix` (`ops.step`) with the time
    step dt, as one factor that forward and transposed solves of (N,)
    right-hand sides share. A fully factored operator holds m factors
    (level 0 is never factored): at n = 128, m = 20, 20 SuperLU factors of
    about 8 MB each, where bands would take 20 x 17.3 MB. Instances are
    safe to share across sequential solves on the same state.
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
        source: (m+1, N) right-hand side in equation-slot layout, read at
            the arrival level of each step (level 0 never enters).
        init: (N,) array of initial values.

    Raises:
        DimensionMismatchError: source is not (m+1, N) or init is not (N,).
        SolverFailureError: a step matrix is not positive definite
            (possible only when 1/dt + c(k) <= 0 on some slot).
    """
    grid, time = operator.grid, operator.time
    shape = (time.m + 1, grid.num_nodes)
    if np.shape(source) != shape:
        raise DimensionMismatchError(f"source needs shape {shape}, got {np.shape(source)}")
    z0 = np.asarray(init, dtype=float)
    if z0.shape != (grid.num_nodes,):
        raise DimensionMismatchError(f"initial data needs shape ({grid.num_nodes},)")
    values = np.empty(shape)
    values[0] = z0
    for k in range(time.m):
        values[k + 1] = operator.solve(k + 1, values[k] / time.dt + source[k + 1])
    return Trajectory(values, grid, time)


def linearized_operator(state, potential, ops):
    """Factorization cache for the marches linearized around one state.

    Its coefficients are the potential's second derivatives along the
    state: f'' at interior slots, g'' at boundary slots, on levels 1..m.
    Level 0 is never factored, so its row stays zero.
    """
    coeffs = np.zeros(state.values.shape)
    coeffs[1:] = potential.d2(state.values[1:])
    return SteppedOperator(state.grid, ops, state.time, coeffs)


def solve_linearized(operator, direction):
    """Directional derivative of the control-to-state map at a solved state.

    Solves the variable-coefficient system of `linearized_operator` with
    the direction, mapped into slot layout, as source and zero initial data.
    """
    source = slot_fields(operator.grid, direction.bulk, direction.surface)
    return solve_linear(operator, source, np.zeros(operator.grid.num_nodes))


def solve_adjoint(operator, seeds):
    """Backward transpose march from weighted seeds to representers.

    Exact transpose of the linearized forward stepping (see module
    docstring) on an (m+1, N) slot-layout array like `solve_linear`'s
    source. seeds[k] multiplies the level-k unknown; the returned
    trajectory holds the inner-product representers p with
    p = multiplier / (theta * slot weight), whose boundary trace is the
    surface adjoint. The march stops at level 1: level 0 is initial data,
    so seeds[0] is never read, values[0] stays zero and level 0 of the
    operator is never factored.

    Raises:
        DimensionMismatchError: seeds is not (m+1, N).
    """
    grid, time = operator.grid, operator.time
    shape = (time.m + 1, grid.num_nodes)
    if np.shape(seeds) != shape:
        raise DimensionMismatchError(f"seeds need shape {shape}, got {np.shape(seeds)}")
    theta = time.weights()

    values = np.zeros(shape)
    lam = operator.solve_transposed(time.m, seeds[time.m])
    values[time.m] = lam / (theta[time.m] * grid.slot_weights)
    for k in range(time.m - 1, 0, -1):
        lam = operator.solve_transposed(k, seeds[k] + lam / time.dt)
        values[k] = lam / (theta[k] * grid.slot_weights)
    return Trajectory(values, grid, time)


def solve_second_derivative(state, potential, phi, psi, operator):
    """Second directional derivative of the control-to-state map.

    phi and psi are linearized solutions at the same state; the source is
    the negative third derivative of the potentials along the state times
    their product, with zero initial data. The march reads the source at
    the interior slots and on the boundary cycle of levels 1..m only, so
    the third derivatives are evaluated there alone.
    """
    source = np.zeros(state.values.shape)
    source[1:] = -potential.d3(state.values[1:]) * phi.values[1:] * psi.values[1:]
    return solve_linear(operator, source, np.zeros(state.grid.num_nodes))
