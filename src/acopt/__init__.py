"""Optimal control of a coupled bulk/surface phase-field system.

Solvers for the nonlinear state system with a dynamic boundary condition,
its linearization, the exact-transpose adjoint, and the second-derivative
system; tracking cost with exact discrete gradients, curvature and
reduced-Hessian products; projected Newton-CG (semismooth Newton) descent
under box control constraints; and a small CLI for running and verifying
experiments.
"""

from .errors import (
    BoundsViolationWarning,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    InvalidArgumentError,
    InvalidParameterError,
    OptimizerStalledError,
    SolverFailureError,
)
from .geometry import (
    Grid,
    OperatorSet,
    TimeAxis,
    build_grid,
    build_operators,
)
from .objective import (
    ControlProblem,
    OptimalityReport,
    adjoint_as_control,
    clip_to_box,
    curvature,
    curvature_weights,
    evaluate_cost,
    first_order,
    hessian_apply,
    hinner,
    hnorm,
    optimality_report,
    projection_residual,
    reduced_gradient,
    stationarity_norm,
    tracking_seeds,
)
from .optimizer import (
    IterateRecord,
    MinimizeResult,
    OptimizerConfig,
    minimize,
)
from .pde_linear import (
    SteppedOperator,
    linearized_operator,
    solve_adjoint,
    solve_linear,
    solve_linearized,
    solve_second_derivative,
)
from .pde_state import (
    ControlPair,
    FieldPair,
    Trajectory,
    energy,
    invariant_interval,
    solve_state,
    trajectory_space_time_norm,
    trajectory_sup_norm,
)
from .potentials import Potential

__version__ = "0.1.0"
