"""Tracking cost, reduced gradient, curvature form, optimality diagnostics.

The reduced gradient pairs the adjoint representers with control
variations. Two slots of the control never influence the dynamics: level
0 (the first step reads level 1) and the boundary-trace entries of the
distributed control (boundary rows carry the surface equation). The
adjoint contribution to the gradient is therefore zero exactly there,
and only there; everywhere else the gradient is adjoint plus weighted
control, which is the discrete form of the classical identification. All
first- and second-order identities below hold to direct-solver roundoff
because the adjoint is the exact transpose of the forward stepping.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnsupportedConfigurationError,
)
from .pde_linear import linearized_operator, solve_adjoint, solve_linearized
from .pde_state import MAX_NEWTON, NEWTON_TOL, ControlPair, FieldPair, solve_state


@dataclass
class ControlProblem:
    """Weights, targets, box bounds and problem data for the tracking cost.

    The terminal surface weight equals the terminal bulk weight and the
    terminal surface target is the trace of the terminal bulk target;
    both are enforced here rather than being independent inputs.
    newton_tol and max_newton are the state solver's defaults for every
    `solve` on this problem.
    """

    grid: object
    ops: object
    time: object
    pf: object
    pg: object
    beta1: float
    beta2: float
    beta3: float
    beta5: float
    beta6: float
    z_q: np.ndarray
    z_sigma: np.ndarray
    z_t: np.ndarray
    init: FieldPair
    u_lo: np.ndarray
    u_hi: np.ndarray
    u_lo_surf: np.ndarray
    u_hi_surf: np.ndarray
    z_gamma_t: np.ndarray = None
    newton_tol: float = NEWTON_TOL
    max_newton: int = MAX_NEWTON

    @property
    def beta4(self):
        return self.beta3

    def __post_init__(self):
        betas = (self.beta1, self.beta2, self.beta3, self.beta5, self.beta6)
        if any(b < 0 for b in betas):
            raise InvalidParameterError("cost weights must be nonnegative")
        if not any(b > 0 for b in betas):
            raise InvalidParameterError("at least one cost weight must be positive")
        m1, N, nb = self.time.m + 1, self.grid.num_nodes, self.grid.num_boundary
        self.z_q = _as_levels(self.z_q, (m1, N), "z_q")
        self.z_sigma = _as_levels(self.z_sigma, (m1, nb), "z_sigma")
        self.z_t = np.broadcast_to(np.asarray(self.z_t, dtype=float), (N,)).copy()
        trace = self.z_t[self.grid.boundary_cycle]
        if self.z_gamma_t is None:
            self.z_gamma_t = trace
        elif not np.array_equal(np.asarray(self.z_gamma_t, dtype=float), trace):
            raise InvalidParameterError(
                "(A6): terminal surface target must be the trace of the terminal bulk target"
            )
        self.u_lo = _as_levels(self.u_lo, (m1, N), "u_lo")
        self.u_hi = _as_levels(self.u_hi, (m1, N), "u_hi")
        self.u_lo_surf = _as_levels(self.u_lo_surf, (m1, nb), "u_lo_surf")
        self.u_hi_surf = _as_levels(self.u_hi_surf, (m1, nb), "u_hi_surf")
        if (self.u_lo > self.u_hi).any() or (self.u_lo_surf > self.u_hi_surf).any():
            raise InvalidParameterError("(A1): lower control bounds must not exceed upper bounds")

    def solve(self, control, newton_tol=None, max_newton=None, guess=None):
        """State solve at a control.

        newton_tol and max_newton override the problem's Newton settings;
        guess holds optional Newton starts (see `pde_state.solve_state`).
        """
        return solve_state(
            self.grid, self.ops, self.time, self.pf, self.pg, control, self.init,
            newton_tol=self.newton_tol if newton_tol is None else newton_tol,
            max_newton=self.max_newton if max_newton is None else max_newton,
            guess=guess,
        )


def _as_levels(arr, shape, name):
    arr = np.asarray(arr, dtype=float)
    try:
        return np.broadcast_to(arr, shape).copy()
    except ValueError as exc:
        raise DimensionMismatchError(f"{name} cannot broadcast to {shape}: {arr.shape}") from exc


# -- space-time pairings ---------------------------------------------------


def hinner(problem, a, b):
    """Space-time inner product of two control pairs (bulk over Q, surface over Sigma)."""
    theta = problem.time.weights()
    w = problem.grid.bulk_weights
    gamma = problem.grid.surface_weights
    bulk = np.einsum("k,kj,kj->", theta, a.bulk * w[None, :], b.bulk)
    surf = np.einsum("k,kj,kj->", theta, a.surface * gamma[None, :], b.surface)
    return float(bulk + surf)


def hnorm(problem, a):
    return float(np.sqrt(max(hinner(problem, a, a), 0.0)))


def _traj_weighted_sq(problem, values, targets, weights):
    theta = problem.time.weights()
    diff = values - targets
    return float(np.einsum("k,kj,kj->", theta, diff * weights[None, :], diff))


# -- cost and derivatives ----------------------------------------------------


def evaluate_cost(problem, state, control):
    """Quadrature value of the six-term tracking cost."""
    grid = problem.grid
    w, gamma = grid.bulk_weights, grid.surface_weights
    total = 0.0
    if problem.beta1 > 0:
        total += 0.5 * problem.beta1 * _traj_weighted_sq(problem, state.values, problem.z_q, w)
    if problem.beta2 > 0:
        total += 0.5 * problem.beta2 * _traj_weighted_sq(
            problem, state.surface, problem.z_sigma, gamma
        )
    if problem.beta3 > 0:
        dT = state.values[-1] - problem.z_t
        total += 0.5 * problem.beta3 * float(np.dot(dT * w, dT))
        dG = state.surface[-1] - problem.z_gamma_t
        total += 0.5 * problem.beta3 * float(np.dot(dG * gamma, dG))
    if problem.beta5 > 0:
        total += 0.5 * problem.beta5 * _traj_weighted_sq(
            problem, control.bulk, np.zeros(1), w
        )
    if problem.beta6 > 0:
        total += 0.5 * problem.beta6 * _traj_weighted_sq(
            problem, control.surface, np.zeros(1), gamma
        )
    return total


def adjoint_as_control(problem, adjoint):
    """Adjoint representers mapped into control space.

    Zero at the slots the dynamics never read (level 0 and the boundary
    trace of the distributed slot); the adjoint trace elsewhere in the
    surface slot.
    """
    grid = problem.grid
    bulk = np.zeros_like(adjoint.values)
    bulk[1:, grid.interior_nodes] = adjoint.values[1:, grid.interior_nodes]
    surf = np.zeros((adjoint.values.shape[0], grid.num_boundary))
    surf[1:] = adjoint.surface[1:]
    return ControlPair(bulk, surf)


def reduced_gradient(problem, state, adjoint, control):
    """Exact gradient of the discrete reduced cost: adjoint plus weighted control."""
    rep = adjoint_as_control(problem, adjoint)
    return ControlPair(
        problem.beta5 * control.bulk + rep.bulk,
        problem.beta6 * control.surface + rep.surface,
    )


def curvature(problem, state, adjoint, operator, direction, second_direction=None):
    """Second derivative of the reduced cost along one or two directions.

    Evaluates the representation with the linearized responses: tracking
    terms in the responses, terminal terms, control weights, minus the
    adjoint-weighted third-derivative terms along the state. With the
    exact-transpose adjoint this equals the true second difference of the
    discrete cost up to solver roundoff. operator is the
    `linearized_operator` around state.
    """
    phi = solve_linearized(operator, direction)
    if second_direction is None:
        psi, other = phi, direction
    else:
        psi = solve_linearized(operator, second_direction)
        other = second_direction

    grid, time = problem.grid, problem.time
    theta = time.weights()
    w, gamma = grid.bulk_weights, grid.surface_weights

    total = problem.beta1 * float(np.einsum("k,kj,kj->", theta, phi.values * w[None, :], psi.values))
    total += problem.beta2 * float(
        np.einsum("k,kj,kj->", theta, phi.surface * gamma[None, :], psi.surface)
    )
    total += problem.beta3 * float(np.dot(phi.values[-1] * w, psi.values[-1]))
    total += problem.beta3 * float(np.dot(phi.surface[-1] * gamma, psi.surface[-1]))
    total += problem.beta5 * float(
        np.einsum("k,kj,kj->", theta, direction.bulk * w[None, :], other.bulk)
    )
    total += problem.beta6 * float(
        np.einsum("k,kj,kj->", theta, direction.surface * gamma[None, :], other.surface)
    )

    # adjoint-weighted third-derivative terms, over the slots the dynamics read
    pf, pg = problem.pf, problem.pg
    interior = grid.interior_nodes
    f3 = pf.d3(state.values[1:, interior])
    prod = phi.values[1:, interior] * psi.values[1:, interior]
    total -= float(
        np.einsum(
            "k,kj,kj->",
            theta[1:],
            adjoint.values[1:, interior] * w[None, interior],
            f3 * prod,
        )
    )
    g3 = pg.d3(state.surface[1:])
    total -= float(
        np.einsum(
            "k,kj,kj->",
            theta[1:],
            adjoint.surface[1:] * gamma[None, :],
            g3 * phi.surface[1:] * psi.surface[1:],
        )
    )
    return total


# -- first-order diagnostics -------------------------------------------------


def clip_to_box(problem, control):
    """Nodewise clip of both control slots into their boxes (idempotent)."""
    return ControlPair(
        np.clip(control.bulk, problem.u_lo, problem.u_hi),
        np.clip(control.surface, problem.u_lo_surf, problem.u_hi_surf),
    )


def stationarity_norm(problem, control, grad):
    """Norm of the projected-gradient fixed-point residual at unit step."""
    proj = clip_to_box(
        problem, ControlPair(control.bulk - grad.bulk, control.surface - grad.surface)
    )
    return hnorm(
        problem, ControlPair(control.bulk - proj.bulk, control.surface - proj.surface)
    )


def projection_residual(problem, control, adjoint_rep):
    """Largest nodewise violation of the pointwise projection identity.

    The identity expresses the optimal control as the box clip of the
    negatively scaled adjoint; it requires positive control weights.
    """
    if problem.beta5 <= 0 or problem.beta6 <= 0:
        raise UnsupportedConfigurationError(
            "projection identity needs positive control weights"
        )
    target_bulk = np.clip(-adjoint_rep.bulk / problem.beta5, problem.u_lo, problem.u_hi)
    target_surf = np.clip(
        -adjoint_rep.surface / problem.beta6, problem.u_lo_surf, problem.u_hi_surf
    )
    return float(
        max(
            np.max(np.abs(control.bulk - target_bulk)),
            np.max(np.abs(control.surface - target_surf)),
        )
    )


@dataclass
class OptimalityReport:
    """First- and second-order diagnostics at one control.

    curvature_samples rows are (direction id, curvature value, squared
    direction norm, ratio); min_curvature_ratio is the empirical
    coercivity constant on the sampled critical cone.
    """

    cost: float
    grad_norm: float
    stationarity: float
    tau: float
    active_set_fraction: float
    projection_residual: float
    projection_supported: bool
    curvature_samples: list = field(default_factory=list)

    @property
    def min_curvature_ratio(self):
        ratios = [s[3] for s in self.curvature_samples if np.isfinite(s[3])]
        return min(ratios) if ratios else float("nan")


def _cone_directions(problem, control, grad, tau, n_dir, rng):
    """Random directions restricted to the tau-critical cone."""
    active_bulk = np.abs(grad.bulk) > tau
    active_surf = np.abs(grad.surface) > tau
    at_lo_bulk = control.bulk <= problem.u_lo
    at_hi_bulk = control.bulk >= problem.u_hi
    at_lo_surf = control.surface <= problem.u_lo_surf
    at_hi_surf = control.surface >= problem.u_hi_surf

    dirs = []
    attempts = 0
    while len(dirs) < n_dir and attempts < 20 * n_dir:
        attempts += 1
        hb = rng.uniform(-1.0, 1.0, size=control.bulk.shape)
        hs = rng.uniform(-1.0, 1.0, size=control.surface.shape)
        hb[active_bulk] = 0.0
        hs[active_surf] = 0.0
        hb = np.where(at_lo_bulk & ~active_bulk, np.abs(hb), hb)
        hb = np.where(at_hi_bulk & ~active_bulk, -np.abs(hb), hb)
        hs = np.where(at_lo_surf & ~active_surf, np.abs(hs), hs)
        hs = np.where(at_hi_surf & ~active_surf, -np.abs(hs), hs)
        cand = ControlPair(hb, hs)
        if hnorm(problem, cand) > 0:
            dirs.append(cand)
    return dirs


def optimality_report(problem, control, tau=None, n_dir=32, seed=0, state=None):
    """Assemble the optimality diagnostics for a control.

    Solves state and adjoint, evaluates gradient norm, projected
    stationarity, the strongly active set at threshold tau (default one
    thousandth of the gradient norm), the pointwise projection residual,
    and curvature/norm ratios along directions sampled from the
    tau-critical cone. The curvature part is a report, never a proof: a
    small ratio is flagged by the caller, not failed here.
    """
    if state is None:
        state = problem.solve(control)
    operator = linearized_operator(state, problem.pf, problem.pg, problem.ops)
    adjoint = solve_adjoint(state, problem, operator)
    grad = reduced_gradient(problem, state, adjoint, control)
    cost = evaluate_cost(problem, state, control)
    grad_norm = hnorm(problem, grad)
    stationarity = stationarity_norm(problem, control, grad)
    if tau is None:
        tau = 1e-3 * grad_norm

    theta = problem.time.weights()
    w, gamma = problem.grid.bulk_weights, problem.grid.surface_weights
    active_bulk = np.abs(grad.bulk) > tau
    active_surf = np.abs(grad.surface) > tau
    measure = float(
        np.einsum("k,kj->", theta, active_bulk * w[None, :])
        + np.einsum("k,kj->", theta, active_surf * gamma[None, :])
    )
    fraction = measure / (problem.time.T * 5.0)  # |Q| + |Sigma| = T * (1 + 4)

    try:
        proj_res = projection_residual(problem, control, adjoint_as_control(problem, adjoint))
        supported = True
    except UnsupportedConfigurationError:
        proj_res, supported = float("nan"), False

    rng = np.random.default_rng(seed)
    samples = []
    for idx, direction in enumerate(_cone_directions(problem, control, grad, tau, n_dir, rng)):
        value = curvature(problem, state, adjoint, operator, direction)
        norm_sq = hinner(problem, direction, direction)
        samples.append((idx, value, norm_sq, value / norm_sq))

    return OptimalityReport(
        cost=cost,
        grad_norm=grad_norm,
        stationarity=stationarity,
        tau=tau,
        active_set_fraction=fraction,
        projection_residual=proj_res,
        projection_supported=supported,
        curvature_samples=samples,
    )
