"""Tracking cost, reduced gradient, curvature form, optimality diagnostics.

The controls live in L2(Q) x L2(Sigma), whose one metric is
`ControlProblem.metric`: theta w over Q and theta gamma over Sigma, formed
once per problem. `hinner`, the cost's space-time terms, the seeds'
tracking weights, the curvature and the Newton-CG pairing all read it, and
its Riesz map `adjoint_as_control` divides the multipliers of
`pde_linear.solve_adjoint` by it: p = multiplier / metric, the one place
that division is made. Two slots of the control never influence the
dynamics: level 0 (the first step reads level 1) and the boundary-trace
entries of the distributed control (boundary rows carry the surface
equation). The adjoint contribution to the gradient is therefore zero
exactly there, and only there; everywhere else the gradient is
representer plus weighted control, which is the discrete form of the
classical identification. The second variation's state weights are
written out once (`curvature_weights`): the cost's tracking weights less
the multipliers times the third derivatives, one array Q. The curvature
sums Q phi^2 and the metric-weighted control squares, and the Hessian
product is the gradient's formula on an adjoint march seeded with Q phi.
The identities below hold to roundoff: the adjoint is the exact transpose.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnsupportedConfigurationError,
)
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


@dataclass(frozen=True)
class ControlProblem:
    """Weights, targets, box bounds and problem data for the tracking cost.

    The targets, the box bounds and the initial data are held as given:
    each is copied once, in its own shape, and read through a read-only
    broadcast to its full shape, so a scalar costs nothing and no
    caller's array is aliased.
    The box pairs lower and upper, like the metric, are formed from u_lo,
    u_hi, u_lo_surf and u_hi_surf on first use; a run that never clips
    forms no box.
    Under (A6) the terminal surface weight is beta3 and the terminal
    surface target `z_gamma_t` is the trace of z_t; neither is an input.
    Every input rule is checked here, in a message that starts with its
    parameter. newton_tol and max_newton are the state solver's defaults
    for every `solve` on this problem. The step rule dt (2 c - 4 alpha) < 1,
    for pf and for pg, makes every step matrix of its solves positive
    definite (see `geometry.StepMatrix`), so each implicit step has one root.
    A built problem is frozen: an attribute is not reassigned after its
    check (`dataclasses.replace` builds and checks a new problem).
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
        checked = functools.partial(object.__setattr__, self)  # the one way past frozen
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
        shapes = {"z_q": (m1, N), "z_sigma": (m1, nb), "z_t": (N,),
                  "u_lo": (m1, N), "u_lo_surf": (m1, nb), "u_hi": (m1, N), "u_hi_surf": (m1, nb)}
        for name, shape in shapes.items():
            checked(name, _as_levels(getattr(self, name), shape, name))
        for lo, hi in (("u_lo", "u_hi"), ("u_lo_surf", "u_hi_surf")):
            if (getattr(self, lo) > getattr(self, hi)).any():
                raise InvalidParameterError(f"{lo} must not exceed {hi} (A1)")
        checked("potential", Potential.on(self.grid, self.pf, self.pg))
        init = check_initial(self.grid, self.potential, self.init.bulk)
        checked("init", FieldPair(_as_levels(init, (N,), "init")))

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

    @functools.cached_property
    def metric(self):
        """The L2(Q) x L2(Sigma) weights theta w and theta gamma: read-only, formed on first use."""
        theta = self.time.weights()[:, None]
        return _read_only(ControlPair(theta * self.grid.bulk_weights, theta * self.grid.surface_weights))

    @functools.cached_property
    def lower(self):
        """The box's lower bounds (u_lo, u_lo_surf) as one read-only pair, formed on first use."""
        return _read_only(ControlPair(self.u_lo, self.u_lo_surf))

    @functools.cached_property
    def upper(self):
        """The box's upper bounds (u_hi, u_hi_surf) as one read-only pair, formed on first use."""
        return _read_only(ControlPair(self.u_hi, self.u_hi_surf))


def _read_only(pair):
    """pair on its own buffer, made read-only (views of read-only data are read-only)."""
    pair.data.flags.writeable = False
    return ControlPair.wrap(pair.data, pair)


def _as_levels(arr, shape, name):
    """A private copy of a finite arr, as a read-only view broadcast to shape.

    The copy keeps arr's own shape, so a scalar stays one value, and one
    slice of each stride-0 axis, so the views `dataclasses.replace` passes back stay compact.
    """
    arr = np.asarray(arr, dtype=float)
    arr = np.array(arr[tuple(slice(None) if s else slice(0, 1) for s in arr.strides)])
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} must be finite")
    arr.flags.writeable = False
    try:
        return np.broadcast_to(arr, shape)
    except ValueError as exc:
        raise DimensionMismatchError(f"{name} cannot broadcast to {shape}: {arr.shape}") from exc


# -- space-time pairings ---------------------------------------------------


def hinner(problem, a, b):
    """Space-time inner product of two control pairs (bulk over Q, surface over Sigma) in the metric.

    One three-operand sum over the pairs' buffers, not a BLAS dot, so its
    bits do not depend on the CPU's BLAS kernel.
    """
    return float(np.einsum("i,i,i->", problem.metric.data, a.data, b.data))


def hnorm(problem, a):
    return float(np.sqrt(max(hinner(problem, a, a), 0.0)))


def _cost_form(problem, a, b):
    """The symmetric bilinear form behind the six-term tracking cost.

    a and b are six-tuples: bulk and surface trajectories, terminal bulk
    and surface fields, bulk and surface controls. The cost is half the
    form on its residuals. The space-time terms pair in the metric; the
    terminal terms are numpy sums. No term is a BLAS dot, so the form's
    bits do not depend on the CPU's BLAS kernel.
    """
    metric = problem.metric
    w, gamma = problem.grid.bulk_weights, problem.grid.surface_weights
    return (
        problem.beta1 * float(np.einsum("kj,kj,kj->", metric.bulk, a[0], b[0]))
        + problem.beta2 * float(np.einsum("kj,kj,kj->", metric.surface, a[1], b[1]))
        + problem.beta3 * float(np.sum(a[2] * w * b[2]))
        + problem.beta3 * float(np.sum(a[3] * gamma * b[3]))
        + problem.beta5 * float(np.einsum("kj,kj,kj->", metric.bulk, a[4], b[4]))
        + problem.beta6 * float(np.einsum("kj,kj,kj->", metric.surface, a[5], b[5]))
    )


# -- cost and derivatives ----------------------------------------------------


def _tracking_residuals(problem, state):
    """The state residuals of the cost: over Q and Sigma, then terminal bulk and surface.

    The residual over Sigma is laid out in C order whatever the layouts of
    the column-indexed surface and of z_sigma (a broadcast scalar, say), so
    the cost's sums meet its entries in one order.
    """
    surface = state.surface
    return (
        state.values - problem.z_q,
        np.subtract(surface, problem.z_sigma, order="C"),
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
    grid, metric = problem.grid, problem.metric
    cycle = grid.boundary_cycle
    seeds = problem.beta1 * metric.bulk * r_q
    seeds[:, cycle] += problem.beta2 * metric.surface * r_sigma
    seeds[-1] += problem.beta3 * grid.bulk_weights * r_t
    seeds[-1, cycle] += problem.beta3 * grid.surface_weights * r_gamma_t
    return seeds


def tracking_seeds(problem, state):
    """The state gradient of the tracking cost: the adjoint seeds, in equation-slot layout.

    The seed form on the tracking residuals; `pde_linear.solve_adjoint`
    marches them.
    """
    return _seed_form(problem, *_tracking_residuals(problem, state))


def adjoint_as_control(problem, adjoint):
    """The Riesz map of `hinner`: adjoint multipliers to their control-space representer.

    The representer p = multiplier / metric, exactly what `hinner` weighs
    by, satisfies hinner(p, h) = sum over levels 1..m of multiplier .
    slot_fields(h): the multipliers' slot pairing with a control direction.
    It is zero at the slots the dynamics never read: level 0, where
    `pde_linear.solve_adjoint` leaves zeros, and the boundary trace of the
    distributed slot. The surface slot divides the multipliers' trace.
    """
    cycle = problem.grid.boundary_cycle
    rep = ControlPair(adjoint.values, adjoint.values[:, cycle])
    rep.data /= problem.metric.data
    rep.bulk[:, cycle] = 0.0
    return rep


def reduced_gradient(problem, adjoint, control):
    """Exact gradient of the discrete reduced cost: adjoint representer plus weighted control."""
    grad = ControlPair(problem.beta5 * control.bulk, problem.beta6 * control.surface)
    grad.data += adjoint_as_control(problem, adjoint).data
    return grad


def curvature_weights(problem, state, adjoint):
    """The state weights Q of the reduced cost's second variation at a state, (m, N).

    Q on levels 1..m is the seed form of unit residuals (the tracking
    weights beta1 theta w, plus beta2 theta gamma on the cycle and
    beta3 (w, gamma) on level m) less the adjoint multipliers lambda times
    `problem.potential`'s third derivative along the state y (f''' at
    interior slots, g''' on the cycle). `curvature` and `hessian_apply`
    read Q beside the metric; a caller forms it once for all its directions.
    """
    tracking = _seed_form(problem, 1.0, 1.0, 1.0, 1.0)[1:]
    return tracking - adjoint.values[1:] * problem.potential.d3(state.values[1:])


def hessian_apply(problem, operator, weights, direction):
    """The reduced Hessian applied to a direction, as its `hinner` representer.

    Two marches on the factors of operator, the `linearized_operator` around
    the state: the linearized response phi = y' direction, then the adjoint
    march of the seeds Q phi on levels 1..m. Its multipliers enter
    `reduced_gradient` with the direction in place of the control, which
    adds beta5 and beta6 times the direction. weights is `curvature_weights`
    at the state. With the exact-transpose adjoint,
    hinner(hessian_apply(v), v) equals `curvature` along v and the operator
    is symmetric in `hinner`, both to solver roundoff.
    """
    seeds = solve_linearized(operator, direction).values
    seeds[1:] *= weights  # the adjoint march never reads level 0
    return reduced_gradient(problem, solve_adjoint(operator, seeds), direction)


def curvature(problem, operator, weights, direction):
    """Second derivative of the reduced cost along one direction.

    With the linearized response phi = y' h, the second variation
    sum Q phi^2 + beta5 sum theta w h_b^2 + beta6 sum theta gamma h_s^2
    over the bulk and surface slots h_b, h_s of h (theta w and theta gamma
    are the metric), as three numpy sums, so its bits do not depend on the
    CPU's BLAS kernel. With the exact-transpose adjoint this equals the
    true second difference of the discrete cost up to solver roundoff.
    operator is the `linearized_operator` around the state, and weights is
    Q, `curvature_weights` there.
    """
    phi = solve_linearized(operator, direction).values[1:]
    bulk, surface, metric = direction.bulk, direction.surface, problem.metric
    return (
        float(np.einsum("kj,kj->", weights, phi * phi))
        + problem.beta5 * float(np.einsum("kj,kj->", metric.bulk, bulk * bulk))
        + problem.beta6 * float(np.einsum("kj,kj->", metric.surface, surface * surface))
    )


# -- first-order diagnostics -------------------------------------------------


def clip_to_box(problem, control):
    """Nodewise clip of both control slots into their boxes (idempotent)."""
    return ControlPair.wrap(np.clip(control.data, problem.lower.data, problem.upper.data), control)


def stationarity_norm(problem, control, grad):
    """Norm of the projected-gradient fixed-point residual at unit step."""
    proj = np.clip(control.data - grad.data, problem.lower.data, problem.upper.data)
    return hnorm(problem, ControlPair.wrap(control.data - proj, control))


def projection_residual(problem, control, adjoint_rep):
    """Largest nodewise violation of the pointwise projection identity.

    The identity expresses the optimal control as the box clip of the
    negatively scaled adjoint; it requires positive control weights.
    """
    if problem.beta5 <= 0 or problem.beta6 <= 0:
        raise UnsupportedConfigurationError(
            "projection identity needs positive control weights"
        )
    target = ControlPair(-adjoint_rep.bulk / problem.beta5, -adjoint_rep.surface / problem.beta6)
    target = np.clip(target.data, problem.lower.data, problem.upper.data)
    return float(np.max(np.abs(control.data - target)))


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
    """Yield n_dir random directions in the tau-critical cone; none when the cone is {0}.

    Each direction is drawn only when the caller asks for it, so a caller
    that keeps none holds one at a time. Each direction is one draw over
    the control's buffer, so the stream fills its bulk levels, then its
    surface levels, as two draws in that order would; a trivial cone draws
    nothing.
    The cone rule is two float masks over the control's buffer, formed
    once: a draw h maps to |h| sign + h keep. sign is 1 at the lower bound
    and -1 at the upper bound, keep is 1 on the free entries, and both are
    0 where the cone is {0}: on strongly active entries and pinned ones
    (lower bound = upper bound), which get +0.0. A draw is nonzero on every
    free entry, so no direction has zero norm.
    """
    u, lo, hi = control.data, problem.lower.data, problem.upper.data
    at_lo, at_hi = u <= lo, u >= hi
    zero = (np.abs(grad.data) > tau) | (at_lo & at_hi)
    if zero.all():
        return
    sign = np.select([zero, at_lo, at_hi], [0.0, 1.0, -1.0], 0.0)
    keep = (~(zero | at_lo | at_hi)).astype(float)
    for _ in range(n_dir):
        h = ControlPair.wrap(rng.uniform(-1.0, 1.0, size=u.size), control)
        bound = np.abs(h.data)
        bound *= sign
        h.data *= keep
        h.data += bound
        yield h


def optimality_report(
    problem, control, tau=None, n_dir=32, seed=0, state=None, operator=None, adjoint=None
):
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

    state, operator and adjoint, when given, are the state at the control,
    the `linearized_operator` around it and the adjoint march of its
    `tracking_seeds` on that operator; the report computes each one it is
    not given. `optimizer.minimize` passes the ones it holds at its final
    control, so the report factors nothing again.
    """
    if not isinstance(n_dir, (int, np.integer)) or n_dir < 0:
        raise InvalidParameterError(f"n_dir must be a nonnegative integer, got {n_dir!r}")
    if tau is not None and not 0 <= tau < np.inf:
        raise InvalidParameterError(f"tau must be finite and nonnegative, got {tau!r}")
    if state is None:
        state = problem.solve(control)
    if operator is None:
        operator = linearized_operator(state, problem.potential, problem.ops)
    if adjoint is None:
        adjoint = solve_adjoint(operator, tracking_seeds(problem, state))
    grad = reduced_gradient(problem, adjoint, control)
    cost = evaluate_cost(problem, state, control)
    grad_norm = hnorm(problem, grad)
    stationarity = stationarity_norm(problem, control, grad)
    if tau is None:
        tau = 1e-3 * grad_norm

    # the strongly active set's space-time measure over the measure of Q and Sigma
    metric = problem.metric.data
    fraction = float(metric[np.abs(grad.data) > tau].sum() / metric.sum())

    try:
        proj_res = projection_residual(problem, control, adjoint_as_control(problem, adjoint))
        supported = True
    except UnsupportedConfigurationError:
        proj_res, supported = float("nan"), False

    rng = np.random.default_rng(seed)
    weights = curvature_weights(problem, state, adjoint)
    samples = []
    for idx, direction in enumerate(_cone_directions(problem, control, grad, tau, n_dir, rng)):
        value = curvature(problem, operator, weights, direction)
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
