"""Tracking cost, reduced gradient, curvature form, optimality diagnostics.

The space-time inner product `hinner` (time weights theta, slot weights
W) is defined here, and so is its Riesz map: `adjoint_as_control` turns
the multipliers of `pde_linear.solve_adjoint` into the control-space
representer p = multiplier / (theta W), the one place that division is
made. Two slots of the control never influence the dynamics: level 0
(the first step reads level 1) and the boundary-trace entries of the
distributed control (boundary rows carry the surface equation). The
adjoint contribution to the gradient is therefore zero exactly there,
and only there; everywhere else the gradient is representer plus
weighted control, which is the discrete form of the classical
identification. The curvature pairs the multipliers themselves with the
third derivatives, and the Hessian product is the gradient's formula on a
second adjoint march. All first- and second-order identities below hold to
direct-solver roundoff because the adjoint is the exact transpose of the
forward stepping.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnsupportedConfigurationError,
)
from .geometry import space_time_inner
from .pde_linear import linearized_operator, solve_adjoint, solve_linearized
from .pde_state import (
    MAX_NEWTON,
    NEWTON_TOL,
    ControlPair,
    FieldPair,
    check_initial,
    check_newton,
    solve_state,
)
from .potentials import Potential


@dataclass
class ControlProblem:
    """Weights, targets, box bounds and problem data for the tracking cost.

    Under (A6) the terminal surface weight is beta3 and the terminal
    surface target `z_gamma_t` is the trace of z_t; neither is an input.
    Every input rule is checked here, in a message that starts with its
    parameter. newton_tol and max_newton are the state solver's defaults
    for every `solve` on this problem. The step rule dt (2 c - 4 alpha) < 1,
    for pf and for pg, makes every step matrix of its solves positive
    definite (see `geometry.StepMatrix`), so each implicit step has one root.
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
    newton_tol: float = NEWTON_TOL
    max_newton: int = MAX_NEWTON
    potential: Potential = field(init=False, repr=False)

    @property
    def z_gamma_t(self):
        """The terminal surface target: the trace of z_t (A6)."""
        return self.z_t[self.grid.boundary_cycle]

    def __post_init__(self):
        betas = {name: getattr(self, name) for name in ("beta1", "beta2", "beta3", "beta5", "beta6")}
        for name, b in betas.items():
            if not (0 <= b < np.inf):
                raise InvalidParameterError(f"{name} must be finite and nonnegative, got {b}")
        if not any(b > 0 for b in betas.values()):
            raise InvalidParameterError(f"{', '.join(betas)} must not all be zero")
        check_newton(self.newton_tol, self.max_newton)
        for name, p in (("pf", self.pf), ("pg", self.pg)):
            product = self.time.dt * (2.0 * p.smooth_c - 4.0 * p.alpha)  # 4 alpha - 2 c = min f''
            if product >= 1.0:
                raise InvalidParameterError(f"{name} step rule: dt (2 c - 4 alpha) = {product:g} >= 1")
        m1, N, nb = self.time.m + 1, self.grid.num_nodes, self.grid.num_boundary
        self.z_q = _as_levels(self.z_q, (m1, N), "z_q")
        self.z_sigma = _as_levels(self.z_sigma, (m1, nb), "z_sigma")
        self.z_t = _as_levels(self.z_t, (N,), "z_t")
        self.u_lo = _as_levels(self.u_lo, (m1, N), "u_lo")
        self.u_hi = _as_levels(self.u_hi, (m1, N), "u_hi")
        self.u_lo_surf = _as_levels(self.u_lo_surf, (m1, nb), "u_lo_surf")
        self.u_hi_surf = _as_levels(self.u_hi_surf, (m1, nb), "u_hi_surf")
        for lo, hi in (("u_lo", "u_hi"), ("u_lo_surf", "u_hi_surf")):
            if (getattr(self, lo) > getattr(self, hi)).any():
                raise InvalidParameterError(f"{lo} must not exceed {hi} (A1)")
        self.potential = Potential.on(self.grid, self.pf, self.pg)
        self.init.bulk = check_initial(self.grid, self.potential, self.init.bulk)

    def solve(self, control, newton_tol=None, max_newton=None, guess=None):
        """State solve at a control.

        newton_tol and max_newton override the problem's Newton settings;
        guess holds optional Newton starts (see `pde_state.solve_state`).
        """
        return solve_state(
            self.grid, self.ops, self.time, self.potential, control, self.init.bulk,
            newton_tol=self.newton_tol if newton_tol is None else newton_tol,
            max_newton=self.max_newton if max_newton is None else max_newton,
            guess=guess,
        )


def _as_levels(arr, shape, name):
    """A finite arr broadcast to shape, as a new array."""
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} must be finite")
    try:
        return np.broadcast_to(arr, shape).copy()
    except ValueError as exc:
        raise DimensionMismatchError(f"{name} cannot broadcast to {shape}: {arr.shape}") from exc


# -- space-time pairings ---------------------------------------------------


def hinner(problem, a, b):
    """Space-time inner product of two control pairs (bulk over Q, surface over Sigma)."""
    theta = problem.time.weights()
    bulk = space_time_inner(theta, problem.grid.bulk_weights, a.bulk, b.bulk)
    return bulk + space_time_inner(theta, problem.grid.surface_weights, a.surface, b.surface)


def hnorm(problem, a):
    return float(np.sqrt(max(hinner(problem, a, a), 0.0)))


def _cost_parts(trajectory, control):
    """The six arguments of `_cost_form` taken from a trajectory and a control pair."""
    surface = trajectory.surface
    return (
        trajectory.values, surface, trajectory.values[-1], surface[-1], control.bulk, control.surface
    )


def _cost_form(problem, a, b):
    """The symmetric bilinear form behind the six-term tracking cost.

    a and b are `_cost_parts` tuples: bulk and surface trajectories,
    terminal bulk and surface fields, bulk and surface controls. The cost
    is half the form on its residuals; the curvature pairs the linearized
    responses and the directions with it. The terminal terms are numpy
    sums, not BLAS dots, so the form's bits do not depend on the CPU's
    BLAS kernel.
    """
    theta = problem.time.weights()
    w, gamma = problem.grid.bulk_weights, problem.grid.surface_weights
    return (
        problem.beta1 * space_time_inner(theta, w, a[0], b[0])
        + problem.beta2 * space_time_inner(theta, gamma, a[1], b[1])
        + problem.beta3 * float(np.sum(a[2] * w * b[2]))
        + problem.beta3 * float(np.sum(a[3] * gamma * b[3]))
        + problem.beta5 * space_time_inner(theta, w, a[4], b[4])
        + problem.beta6 * space_time_inner(theta, gamma, a[5], b[5])
    )


# -- cost and derivatives ----------------------------------------------------


def _tracking_residuals(problem, state):
    """The state residuals of the cost: over Q and Sigma, then terminal bulk and surface."""
    surface = state.surface
    return (
        state.values - problem.z_q,
        surface - problem.z_sigma,
        state.values[-1] - problem.z_t,
        surface[-1] - problem.z_gamma_t,
    )


def evaluate_cost(problem, state, control):
    """Quadrature value of the six-term tracking cost."""
    residual = (*_tracking_residuals(problem, state), control.bulk, control.surface)
    return 0.5 * _cost_form(problem, residual, residual)


def _seed_form(problem, r_q, r_sigma, r_t, r_gamma_t):
    """The state part of `_cost_form` paired with residuals, in equation-slot layout.

    Level k holds the weighted residuals over Q and Sigma that multiply the
    level-k unknown of the forward stepping; the final level additionally
    carries the terminal terms.
    """
    grid = problem.grid
    theta = problem.time.weights()[:, None]
    w, gamma, cycle = grid.bulk_weights, grid.surface_weights, grid.boundary_cycle
    seeds = problem.beta1 * theta * w * r_q
    seeds[:, cycle] += problem.beta2 * theta * gamma * r_sigma
    seeds[-1] += problem.beta3 * w * r_t
    seeds[-1, cycle] += problem.beta3 * gamma * r_gamma_t
    return seeds


def tracking_seeds(problem, state):
    """The state gradient of the tracking cost: the adjoint seeds, in equation-slot layout.

    The seed form on the tracking residuals; `pde_linear.solve_adjoint`
    marches them.
    """
    return _seed_form(problem, *_tracking_residuals(problem, state))


def adjoint_as_control(adjoint):
    """The Riesz map of `hinner`: adjoint multipliers to their control-space representer.

    The representer p = multiplier / (theta W) satisfies
    hinner(p, h) = sum over levels 1..m of multiplier . slot_fields(h):
    the multipliers' slot pairing with a control direction. It is zero at
    the slots the dynamics never read: level 0, where
    `pde_linear.solve_adjoint` leaves zeros, and the boundary trace of the
    distributed slot. The surface slot is the trace of p.
    """
    grid = adjoint.grid
    bulk = adjoint.values / (adjoint.time.weights()[:, None] * grid.slot_weights)
    surface = bulk[:, grid.boundary_cycle]
    bulk[:, grid.boundary_cycle] = 0.0
    return ControlPair(bulk, surface)


def reduced_gradient(problem, adjoint, control):
    """Exact gradient of the discrete reduced cost: adjoint representer plus weighted control."""
    rep = adjoint_as_control(adjoint)
    return ControlPair(
        problem.beta5 * control.bulk + rep.bulk,
        problem.beta6 * control.surface + rep.surface,
    )


def third_weights(problem, state, adjoint):
    """The (m, N) array lambda[1:] * d3(y[1:]) that `curvature` and `hessian_apply` read.

    The adjoint multipliers lambda times `problem.potential`'s third
    derivative along the state y (f''' at interior slots, g''' on the
    cycle), on levels 1..m.
    """
    return adjoint.values[1:] * problem.potential.d3(state.values[1:])


def hessian_apply(problem, operator, third, direction):
    """The reduced Hessian applied to a direction, as its `hinner` representer.

    Two marches on the factors of operator, the `linearized_operator` around
    the state: the linearized response phi = y' direction, then the adjoint
    march of the seed form on phi less third * phi on levels 1..m. Its
    multipliers enter `reduced_gradient` with the direction in place of the
    control, which adds beta5 and beta6 times the direction. third is
    `third_weights` at the state. With the exact-transpose adjoint,
    hinner(hessian_apply(v), v) equals `curvature` along v and the operator
    is symmetric in `hinner`, both to solver roundoff.
    """
    phi = solve_linearized(operator, direction)
    seeds = _seed_form(problem, *_cost_parts(phi, direction)[:4])
    seeds[1:] -= third * phi.values[1:]
    return reduced_gradient(problem, solve_adjoint(operator, seeds), direction)


def curvature(problem, operator, third, direction):
    """Second derivative of the reduced cost along one direction.

    Evaluates the representation with the linearized response: tracking
    terms in the response, terminal terms, control weights, minus the
    adjoint-weighted third-derivative terms along the state. With the
    exact-transpose adjoint this equals the true second difference of the
    discrete cost up to solver roundoff. operator is the
    `linearized_operator` around the state, and third is `third_weights`
    there, which a caller forms once for all its directions.
    """
    phi = solve_linearized(operator, direction)
    parts = _cost_parts(phi, direction)
    squared = phi.values[1:] * phi.values[1:]
    return _cost_form(problem, parts, parts) - float(np.einsum("kj,kj->", third, squared))


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


def _into_cone(h, at_lo, at_hi, zero):
    """A draw h for one control slot mapped into the critical cone.

    |h| at the lower bound, -|h| at the upper bound, 0 where zero is set:
    strongly active entries and pinned ones (lower bound = upper bound),
    where the cone is {0}.
    """
    h = np.where(at_lo, np.abs(h), np.where(at_hi, -np.abs(h), h))
    h[zero] = 0.0
    return h


def _cone_directions(problem, control, grad, tau, n_dir, rng):
    """Yield n_dir random directions in the tau-critical cone; none when the cone is {0}.

    Each direction is drawn only when the caller asks for it, so a caller
    that keeps none holds one at a time. The draws come direction by
    direction, bulk slot then surface slot; a trivial cone draws nothing.
    A draw is nonzero on every free entry, so no direction has zero norm.
    """
    slots = []
    for u, g, lo, hi in (
        (control.bulk, grad.bulk, problem.u_lo, problem.u_hi),
        (control.surface, grad.surface, problem.u_lo_surf, problem.u_hi_surf),
    ):
        at_lo, at_hi = u <= lo, u >= hi
        slots.append((u.shape, at_lo, at_hi, (np.abs(g) > tau) | (at_lo & at_hi)))
    if all(zero.all() for *_, zero in slots):
        return
    for _ in range(n_dir):
        yield ControlPair(
            *(_into_cone(rng.uniform(-1.0, 1.0, size=shape), *masks) for shape, *masks in slots)
        )


def optimality_report(problem, control, tau=None, n_dir=32, seed=0, state=None):
    """Assemble the optimality diagnostics for a control.

    Solves state and adjoint, evaluates gradient norm, projected
    stationarity, the strongly active set at threshold tau (default one
    thousandth of the gradient norm), the pointwise projection residual,
    and curvature/norm ratios along directions sampled from the
    tau-critical cone. The curvature part is a report, never a proof: a
    small ratio is flagged by the caller, not failed here. n_dir must be a
    nonnegative integer and tau, when given, finite and nonnegative.

    Directions are drawn one at a time, each when its curvature is
    computed, and none is kept, so one direction is alive at a time. The
    report's memory is the state, the adjoint, the m step factors, and one
    direction with its linearized march, whatever n_dir is.
    """
    if not isinstance(n_dir, (int, np.integer)) or n_dir < 0:
        raise InvalidParameterError(f"n_dir must be a nonnegative integer, got {n_dir!r}")
    if tau is not None and not 0 <= tau < np.inf:
        raise InvalidParameterError(f"tau must be finite and nonnegative, got {tau!r}")
    if state is None:
        state = problem.solve(control)
    operator = linearized_operator(state, problem.potential, problem.ops)
    adjoint = solve_adjoint(operator, tracking_seeds(problem, state))
    grad = reduced_gradient(problem, adjoint, control)
    cost = evaluate_cost(problem, state, control)
    grad_norm = hnorm(problem, grad)
    stationarity = stationarity_norm(problem, control, grad)
    if tau is None:
        tau = 1e-3 * grad_norm

    # the strongly active set's space-time measure is its indicator's squared norm,
    # over |Q| + |Sigma| = T * (1 + 4)
    active = ControlPair(np.abs(grad.bulk) > tau, np.abs(grad.surface) > tau)
    fraction = hinner(problem, active, active) / (problem.time.T * 5.0)

    try:
        proj_res = projection_residual(problem, control, adjoint_as_control(adjoint))
        supported = True
    except UnsupportedConfigurationError:
        proj_res, supported = float("nan"), False

    rng = np.random.default_rng(seed)
    third = third_weights(problem, state, adjoint)
    samples = []
    for idx, direction in enumerate(_cone_directions(problem, control, grad, tau, n_dir, rng)):
        value = curvature(problem, operator, third, direction)
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
