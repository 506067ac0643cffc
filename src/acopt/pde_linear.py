"""Linear coupled solves: generic, linearized, adjoint, second derivative.

All four reuse one implicit Euler stepper. A step from level k to k+1
solves M(k+1) z = z_prev/dt + source(k+1) with
M(k) = I/dt + coupled + diag(c(k)), where the diagonal carries the bulk
coefficient at interior slots and the surface coefficient at boundary
slots. Coefficients are read at the arrival level, the same point where
the nonlinear solver evaluated its Newton linearization; that choice makes
the adjoint below an exact algebraic transpose of the forward stepping.

Each M(k) is factored once as the symmetric band S = W M(k), W the slot
quadrature weights (`pde_state.StepMatrix`). Since M^T = S W^-1, the
transposed step is the forward band solve with the W scaling moved to the
other side, and the same factor serves the linearized, adjoint and
second-derivative marches.

The adjoint is built by transposing that stepping, not by discretizing
the backward equations anew: multipliers of the step equations are
marched backward through the transposed step solves and then rescaled by
the space-time quadrature weights into inner-product representers. Every
duality identity involving these solves therefore holds to direct-solver
roundoff.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .pde_state import ControlPair, FieldPair, StepMatrix, Trajectory, slot_fields, slot_weights


@dataclass
class CoefficientFields:
    """Zeroth-order coefficients per time level: bulk (m+1, N), surface (m+1, 4n)."""

    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        self.c1 = np.asarray(self.c1, dtype=float)
        self.c2 = np.asarray(self.c2, dtype=float)
        if self.c1.ndim != 2 or self.c2.ndim != 2 or self.c1.shape[0] != self.c2.shape[0]:
            raise DimensionMismatchError(
                f"coefficients need matching (levels, nodes) arrays, got {self.c1.shape} and {self.c2.shape}"
            )


class SteppedOperator:
    """Per-level factorizations of M(k) = I/dt + coupled + diag(c(k)).

    Each level is factored lazily, once, as the W-symmetric band of
    `pde_state.StepMatrix`: banded Cholesky when 1/dt + min c(k) > 0,
    banded LU otherwise. Forward and transposed solves share that factor
    and accept (N,) or (N, k) right-hand sides. A fully factored operator
    holds m+1 bands: 21 x 17.3 MB at n = 128, m = 20. Instances are safe
    to share across sequential solves on the same state.
    """

    def __init__(self, grid, ops, time, coeffs):
        if coeffs.c1.shape != (time.m + 1, grid.num_nodes) or coeffs.c2.shape != (
            time.m + 1,
            grid.num_boundary,
        ):
            raise DimensionMismatchError("coefficient shapes do not match grid/time axis")
        self.grid = grid
        self.time = time
        self._step = StepMatrix(grid, ops, time.dt)
        self._coeffs = coeffs
        self._factors = [None] * (time.m + 1)

    def _factor(self, k):
        if self._factors[k] is None:
            diag = slot_fields(self.grid, self._coeffs.c1[k], self._coeffs.c2[k])
            self._factors[k] = self._step.factor(diag, level=k)
        return self._factors[k]

    def solve(self, k, rhs):
        return self._step.solve(self._factor(k), rhs)

    def solve_transposed(self, k, rhs):
        return self._step.solve_transposed(self._factor(k), rhs)


def solve_linear(grid, ops, time, coeffs, source, init, operator=None):
    """Implicit Euler march of the variable-coefficient coupled system.

    Args:
        coeffs: CoefficientFields over the m+1 levels.
        source: ControlPair-shaped pair read at the arrival level of each
            step (level 0 never enters).
        init: FieldPair or (N,) array of initial values.
        operator: optional SteppedOperator to reuse factorizations.

    Raises:
        SolverFailureError: a step matrix is exactly singular (possible
            for strongly negative coefficients and large dt).
    """
    op = operator if operator is not None else SteppedOperator(grid, ops, time, coeffs)
    z0 = init.bulk if isinstance(init, FieldPair) else np.asarray(init, dtype=float)
    if z0.shape != (grid.num_nodes,):
        raise DimensionMismatchError(f"initial data needs shape ({grid.num_nodes},)")
    values = np.empty((time.m + 1, grid.num_nodes))
    values[0] = z0
    for k in range(time.m):
        rhs = values[k] / time.dt + slot_fields(grid, source.bulk[k + 1], source.surface[k + 1])
        values[k + 1] = op.solve(k + 1, rhs)
    return Trajectory(values, grid, time)


def linearized_coefficients(state, pf, pg):
    """Second-derivative coefficients of the potentials along a state."""
    return CoefficientFields(pf.d2(state.values), pg.d2(state.surface))


def linearized_operator(state, pf, pg, ops):
    """Factorization cache for repeated solves around one state."""
    coeffs = linearized_coefficients(state, pf, pg)
    return SteppedOperator(state.grid, ops, state.time, coeffs)


def _operator_for(state, pf, pg, ops, operator):
    """The given operator, or a new one built from ops around the state."""
    if operator is not None:
        return operator
    if ops is None:
        raise ValueError("either ops or a prebuilt operator is required")
    return linearized_operator(state, pf, pg, ops)


def solve_linearized(state, pf, pg, direction, ops=None, operator=None):
    """Directional derivative of the control-to-state map at a solved state.

    Solves the variable-coefficient system with the potentials' second
    derivatives along the state as coefficients, the direction as source,
    and zero initial data.
    """
    op = _operator_for(state, pf, pg, ops, operator)
    zero = np.zeros(state.grid.num_nodes)
    return solve_linear(state.grid, ops, state.time, op._coeffs, direction, zero, operator=op)


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
    if problem.beta1 > 0:
        d += problem.beta1 * theta[:, None] * w[None, :] * (state.values - problem.z_q)
    if problem.beta2 > 0:
        d[:, cycle] += problem.beta2 * theta[:, None] * gamma[None, :] * (
            state.surface - problem.z_sigma
        )
    if problem.beta3 > 0:
        d[-1] += problem.beta3 * w * (state.values[-1] - problem.z_t)
        d[-1, cycle] += problem.beta3 * gamma * (state.surface[-1] - problem.z_gamma_t)
    return d


def adjoint_from_seeds(state, seeds, operator):
    """Backward transpose march from weighted seeds to representers.

    seeds[k] multiplies the level-k unknown; the returned trajectory holds
    the inner-product representers p with p = multiplier / (theta * slot
    weight), whose boundary trace is the surface adjoint.
    """
    grid, time = state.grid, state.time
    theta = time.weights()
    slot_w = slot_weights(grid)

    values = np.zeros((time.m + 1, grid.num_nodes))
    lam = operator.solve_transposed(time.m, seeds[time.m])
    values[time.m] = lam / (theta[time.m] * slot_w)
    for k in range(time.m - 1, -1, -1):
        lam = operator.solve_transposed(k, seeds[k] + lam / time.dt)
        values[k] = lam / (theta[k] * slot_w)
    return Trajectory(values, grid, time)


def solve_adjoint(state, pf, pg, problem, ops=None, operator=None):
    """Adjoint pair for the tracking cost at a solved state.

    Exact transpose of the linearized forward stepping (see module
    docstring), marched backward from the level that carries the terminal
    mismatch. The trace of the returned trajectory is the surface adjoint.
    """
    op = _operator_for(state, pf, pg, ops, operator)
    seeds = tracking_sources(problem, state)
    return adjoint_from_seeds(state, seeds, op)


def solve_second_derivative(state, pf, pg, phi, psi, ops=None, operator=None):
    """Second directional derivative of the control-to-state map.

    phi and psi are linearized solutions at the same state; the source is
    the negative third derivative of the potentials along the state times
    their product, with zero initial data.
    """
    op = _operator_for(state, pf, pg, ops, operator)
    source = ControlPair(
        -pf.d3(state.values) * phi.values * psi.values,
        -pg.d3(state.surface) * phi.surface * psi.surface,
    )
    zero = np.zeros(state.grid.num_nodes)
    return solve_linear(state.grid, ops, state.time, op._coeffs, source, zero, operator=op)
