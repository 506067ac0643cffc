"""Forward solver for the coupled bulk/surface phase-field system.

One implicit Euler step solves the coupled nonlinear system

    (y+ - y)/dt + L y+ + f'(y+) = u      at interior nodes,
    (yG+ - yG)/dt + L_G yG+ + B y+ + g'(yG+) = uG   at boundary nodes,

with L the 5-point negative Laplacian, L_G the surface Laplacian and B the
normal flux: the interior and boundary rows of `coupled` = W^-1 K (see
`geometry`). There is a single (N,) unknown over all bulk nodes (the
boundary trace is the restriction of that vector, so the trace identity
holds by construction). Newton with interval-preserving
damping solves each step; the logarithmic derivative pushes iterates away
from 0 and 1, so the damped iteration stays inside the guarded interval
without projections.

Each Newton candidate costs one guarded evaluation of f and g over all
slots (`potentials.Potential.newton_terms`). Below the factorization
break-even it yields f', g' for the candidate's residual and f'', g'' for
the Jacobian at that point, so the accepted candidate carries the
coefficients of the next Newton step. In the chord regime it yields f',
g' alone, and f'', g'' are formed only at the iterate where a factor is
built.

Factorizations priced by the grid: one costs kappa = `ops.step.factor_cost`
chord iterations (see `geometry.StepMatrix`). Where kappa <= 1 every
iteration is a damped Newton step. Where kappa > 1, the chord regime, the
solve keeps the factor of its last Newton step, across levels too, for
undamped chord steps z - J^-1 res (Kelley, Iterative Methods for Linear
and Nonlinear Equations, SIAM 1995, 5.4; Jacobian reuse as in Hairer &
Wanner, Solving ODEs II, IV.8): f'' and g'' are Lipschitz in the guarded
interval, so J moves little between iterates and levels. From a level's
second chord step on one factor, the first candidate is the depth-1
Anderson mix of the last two chord steps (Walker & Ni, SIAM J. Numer.
Anal. 49, 2011); where it leaves the interval or does not lower the
residual, the plain chord candidate is tried. The history starts afresh
at every level and after every factorization. A chord step is accepted
when its candidate stays in the interval and lowers the residual's
max-norm; it keeps the factor while finishing the level at its
contraction theta costs at most kappa more steps than a fresh factor
would, at FRESH_CONTRACTION per step: with D = log(tol / new residual) < 0,
D / log(theta) <= kappa + D / log(FRESH_CONTRACTION). Otherwise the next
iteration refactors at the new iterate; a dropped candidate makes it a
damped Newton step at z. No factor outlives a solve, so a solve's first
iteration factors while later levels may factor 0 times.

The stop. Below break-even a level stops at newton_tol. In the chord
regime it stops at tol = max(newton_tol, floor), where floor is
1/CHORD_CONTRACTION times the rounding floor at the level's start (eps
times the largest row sum of the residual's absolute terms, formed once
per level): operator entries grow like 4/h^2, so on fine grids an
absolute newton_tol lies below roundoff and would only stall. A level
whose last step was a chord step that contracted by CHORD_CONTRACTION
keeps stepping until a step stops contracting that much or the residual
is below floor: a chord step stops just under the tolerance where a
Newton step lands far below it, and difference quotients of the state
(the second-derivative oracle, the verify modes) need that accuracy.

Newton starts. The step to level k+1 starts from a given guess level,
else from the time extrapolation 2 y_k - y_{k-1} (y_0 for the first
step); a start with a non-finite entry or one outside the guarded
interval is replaced by y_k. The stop test depends on the start only
through the chord regime's floor, which the start's magnitudes set, so
every converged level meets its tolerance, and a start that already
meets it costs no iteration. Callers that know a nearby solved
state pass its tangent prediction as the guess (`optimizer.minimize`);
the optimality report has no such state, and the verify modes keep
unguessed starts on purpose (see `cli_io`).

Every Newton step and every linear step of `pde_linear` solves with a
matrix M = I/dt + coupled + diag(c). The grid's one `geometry.StepMatrix`
(`ops.step`) factors all of them the same way: scaled by the slot
quadrature weights W, S = W M is exactly symmetric, so one factor of S
serves both M and its transpose. The grid's half-bandwidth picks that
factor once: banded Cholesky below `geometry.SPARSE_BANDWIDTH` (n < 104),
a SuperLU factor with a minimum-degree ordering from there on.
"""

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundsViolationWarning,
    DimensionMismatchError,
    DomainError,
    InvalidParameterError,
    SolverFailureError,
)
from .geometry import space_time_inner

NEWTON_TOL = 1e-11
MAX_NEWTON = 50
MAX_DAMPING = 30
CHORD_CONTRACTION = 0.25
FRESH_CONTRACTION = 1e-2  # a chord step on a factor built near the root, as seen at n = 4..128


@dataclass(frozen=True)
class FieldPair:
    """A `ControlProblem`'s initial data; the problem checks it with `check_initial`.

    Attributes:
        bulk: (N,) values at all bulk nodes; solvers take this array.
    """

    bulk: np.ndarray


class ControlPair:
    """Distributed and boundary controls in one buffer.

    data is one flat array: the bulk levels, then the surface levels.
    bulk (m+1, N) and surface (m+1, 4n), one row per time level, are
    contiguous views of it, so a write through either reaches data. The
    surface control is not a trace of the bulk control. The constructor
    copies its arrays in; `wrap` puts a pair on an existing buffer.
    """

    def __init__(self, bulk, surface):
        bulk, surface = np.asarray(bulk, dtype=float), np.asarray(surface, dtype=float)
        if bulk.ndim != 2 or surface.ndim != 2 or bulk.shape[0] != surface.shape[0]:
            raise DimensionMismatchError(
                f"control pair needs matching (levels, nodes) arrays, got {bulk.shape} and {surface.shape}"
            )
        self._views(np.empty(bulk.size + surface.size), bulk.shape, surface.shape)
        self.bulk[...], self.surface[...] = bulk, surface

    def _views(self, data, bulk_shape, surface_shape):
        split = bulk_shape[0] * bulk_shape[1]
        self.data = data  # reshape raises where its size does not fit the shapes
        self.bulk, self.surface = data[:split].reshape(bulk_shape), data[split:].reshape(surface_shape)
        return self

    @classmethod
    def wrap(cls, data, like):
        """The pair of like's shapes on the flat buffer data, sharing its memory (no copy)."""
        return cls.__new__(cls)._views(data, like.bulk.shape, like.surface.shape)

    @classmethod
    def zeros(cls, grid, time):
        levels = time.m + 1
        data = np.zeros(levels * (grid.num_nodes + grid.num_boundary))
        return cls.__new__(cls)._views(data, (levels, grid.num_nodes), (levels, grid.num_boundary))


@dataclass
class Trajectory:
    """Time-indexed snapshots of a coupled field.

    values has shape (m+1, N); the surface trajectory is the restriction
    to the boundary cycle.
    """

    values: np.ndarray
    grid: object
    time: object
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.time.m + 1, self.grid.num_nodes)
        if self.values.shape != expected:
            raise DimensionMismatchError(
                f"trajectory needs shape {expected}, got {self.values.shape}"
            )

    @property
    def surface(self):
        return self.values[:, self.grid.boundary_cycle]


def slot_fields(grid, bulk_values, surface_values):
    """Combine interior-slot and boundary-slot data into equation vectors.

    bulk_values (..., N) and surface_values (..., 4n) may carry leading
    axes, such as one row per time level; the result is (..., N).
    """
    out = np.array(bulk_values, dtype=float)  # interior slots; the cycle's are overwritten
    out[..., grid.boundary_cycle] = surface_values
    return out


class _Iterate(NamedTuple):
    """A Newton iterate z, its residual and max-norm, and the guarded evaluation behind them
    (d2 is None in the chord regime, which forms f'' only where it factors)."""

    z: np.ndarray
    res: np.ndarray
    norm: float
    d1: np.ndarray
    d2: np.ndarray
    clamps: int


def check_initial(grid, potential, init):
    """The initial data as an (N,) array: finite, and inside (0, 1) when a potential is singular."""
    y0 = np.asarray(init, dtype=float)
    if y0.shape != (grid.num_nodes,):
        raise DimensionMismatchError(f"init needs shape ({grid.num_nodes},), got {y0.shape}")
    lo, hi = y0.min(), y0.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("init must be finite")
    if potential.is_singular and (lo <= 0.0 or hi >= 1.0):
        raise DomainError(f"init must lie in (0, 1) for singular potentials, got [{lo}, {hi}]")
    return y0


def check_newton(newton_tol, max_newton):
    """The Newton settings rule: a positive, finite tolerance and a positive integer iteration cap."""
    if not (0 < newton_tol < np.inf):
        raise InvalidParameterError(f"newton_tol must be positive and finite, got {newton_tol!r}")
    if not isinstance(max_newton, (int, np.integer)) or max_newton < 1:
        raise InvalidParameterError(f"max_newton must be a positive integer, got {max_newton!r}")


def _anderson(last, z, step):
    """The depth-1 Anderson mix of the chord steps last = (z_prev, step_prev) and step at z,
    as an update of z (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).

    Its two inner products are numpy sums, not BLAS dots, so its bits do
    not depend on the CPU's BLAS kernel. Equal steps mix to step itself.
    """
    z_prev, step_prev = last
    d_step = step - step_prev
    norm2 = np.sum(d_step * d_step)
    if norm2 == 0.0:
        return step
    gamma = np.sum(d_step * step) / norm2
    return step - gamma * ((z - z_prev) + d_step)


def _keeps_factor(new, old, tol, kappa):
    """Whether a chord step from residual norm old to new keeps its factor (module docstring)."""
    if new <= tol:
        return True
    left = np.log(tol / new)  # < 0: the log-residual still to go
    return left / np.log(new / old) <= kappa + left / np.log(FRESH_CONTRACTION)


def solve_state(
    grid, ops, time, potential, control, init, newton_tol=NEWTON_TOL, max_newton=MAX_NEWTON, guess=None
):
    """March the nonlinear coupled system forward: damped Newton and chord steps, priced by the grid.

    Args:
        potential: `potentials.Potential.on(grid, pf, pg)`, f and g on this grid.
        control: ControlPair of shapes (m+1, N) and (m+1, 4n); the step to
            level k+1 reads level k+1 (level 0 never enters the dynamics).
        init: (N,) array of initial values, checked by `check_initial`:
            finite, and strictly inside (0, 1) for singular potentials.
        guess: optional (m+1, N) array; level k+1 is the Newton start of
            the step to level k+1 (level 0 is never read). Without it,
            the step to level k+1 starts from 2 values[k] - values[k-1]
            for k >= 1. Either start is replaced by values[k] when it has
            a non-finite entry or leaves the guarded interval.

    Returns:
        Trajectory whose info dict holds, per level, the iterations
        ("newton_iters", Newton and chord steps alike) and the step
        factorizations ("factorizations"; 0 where a level finishes on
        the factor kept from an earlier one), and the number of potential
        arguments clamped during the solve ("clamp_events").

    Raises:
        InvalidParameterError: newton_tol or max_newton breaks `check_newton`.
        DimensionMismatchError: control or guess has the wrong shape.
        SolverFailureError: Newton did not converge within max_newton
            iterations at some step, a Newton step matrix was not positive
            definite (see `geometry.StepMatrix`), or no damped update stayed
            inside the guarded interval.
    """
    check_newton(newton_tol, max_newton)
    y0 = check_initial(grid, potential, init)
    levels = (time.m + 1, grid.num_nodes)
    if control.bulk.shape != levels or control.surface.shape != (time.m + 1, grid.num_boundary):
        raise DimensionMismatchError(
            f"control needs shapes {levels} and {(time.m + 1, grid.num_boundary)}, "
            f"got {control.bulk.shape} and {control.surface.shape}"
        )
    if not np.isfinite(control.data).all():
        raise DomainError("controls must be finite")
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != levels:
            raise DimensionMismatchError(f"guess needs shape {levels}, got {guess.shape}")

    dt = time.dt
    lo, hi = potential.interval
    kappa = ops.step.factor_cost
    chord = kappa > 1.0  # the chord regime: one factor kept across iterations and levels

    values = np.empty(levels)
    values[0] = y0
    newton_iters = []
    factorizations = []
    clamp_events = 0
    factor = None  # the kept factor, carried across levels; None makes the next iteration refactor
    source = slot_fields(grid, control.bulk, control.surface)

    for k in range(time.m):
        rhs = source[k + 1]
        prev = values[k]
        if guess is not None:
            start = guess[k + 1]
        elif k >= 1:
            start = 2.0 * prev - values[k - 1]
        else:
            start = prev
        admissible = np.isfinite(start).all() and start.min() >= lo and start.max() <= hi
        z = (start if admissible else prev).copy()

        def evaluate(v):
            """The iterate at v; f'' is formed with f' below break-even, where every iterate
            is factored at, and left for the factorization in the chord regime."""
            nonlocal clamp_events
            if chord:
                d1, clamped = potential.newton_terms(v, ("d1",))
                d2 = None
            else:
                d1, d2, clamped = potential.newton_terms(v)
            clamp_events += clamped
            res = (v - prev) / dt + ops.coupled @ v + d1 - rhs
            return _Iterate(v, res, np.abs(res).max(), d1, d2, clamped)

        def rounding_floor(it):
            """eps times the largest row sum of |terms| of the residual at it."""
            z_abs = np.abs(it.z)
            terms = (z_abs + np.abs(prev)) / dt + ops.coupled_abs @ z_abs + np.abs(it.d1) + np.abs(rhs)
            return np.finfo(float).eps * terms.max()

        def search(it, delta, tries):
            """Of z + delta, z + delta/2, ... (tries of them) from the iterate it: the first
            in the interval that lowers the residual, and the first evaluated one that did not."""
            step, fallback = 1.0, None
            for _ in range(tries):
                cand = it.z + step * delta
                if cand.min() >= lo and cand.max() <= hi:
                    trial = evaluate(cand)
                    if trial.norm < it.norm:
                        return trial, fallback
                    if fallback is None:
                        fallback = trial
                step *= 0.5
            return None, fallback

        it = evaluate(z)
        # the level's stop: newton_tol, or in the chord regime floor = 1/CHORD_CONTRACTION
        # times the rounding floor at the start where that is larger
        floor = rounding_floor(it) / CHORD_CONTRACTION if chord else 0.0
        tol = max(newton_tol, floor)
        iters = factors = 0
        polish = False  # the last step was a chord step that contracted by CHORD_CONTRACTION
        last = None  # the iterate and chord step of the last chord step on the current factor
        while iters < max_newton:
            # A chord step stops just under the tolerance where a Newton step lands far
            # below it, so contracting chord steps go on down to the floor.
            if it.norm <= tol and not (polish and it.norm >= floor):
                break
            iters += 1
            if factor is not None:
                # undamped chord step on the kept factor: the mix of the last two steps, then
                # the plain step
                step = ops.step.solve(factor, -it.res)
                trial = None
                if last is not None:
                    trial, _ = search(it, _anderson(last, it.z, step), 1)
                if trial is None:
                    trial, _ = search(it, step, 1)
                last = (it.z, step)
                if trial is not None:
                    polish = trial.norm <= CHORD_CONTRACTION * it.norm
                    if not _keeps_factor(trial.norm, it.norm, tol, kappa):
                        factor = None
                    it = trial
                    continue
                # the candidate is dropped: a converged level stops, any other refactors at z
                if it.norm <= tol:
                    break
            # damped Newton step; the Jacobian at z takes the f'' of z's evaluation, formed
            # here in the chord regime, and z's clamps count again
            clamp_events += it.clamps
            d2 = it.d2 if it.d2 is not None else potential.newton_terms(it.z, ("d2",))[0]
            factor = None  # at most one factor is alive
            factor = ops.step.factor(d2, dt, level=k + 1, residual=it.norm)
            factors += 1
            polish, last = False, None
            accepted, fallback = search(it, ops.step.solve(factor, -it.res), MAX_DAMPING)
            if accepted is None and fallback is None:
                raise SolverFailureError(
                    f"no admissible Newton update at step {k + 1}", step=k + 1, residual=it.norm
                )
            it = fallback if accepted is None else accepted
            if not chord:
                factor = None  # below break-even every iteration refactors: damped Newton
        if not it.norm <= tol:
            raise SolverFailureError(
                f"Newton stalled at step {k + 1}: residual {it.norm:.3e} after {iters} iterations",
                step=k + 1,
                residual=it.norm,
            )
        values[k + 1] = it.z
        newton_iters.append(iters)
        factorizations.append(factors)

    if clamp_events > 0:
        warnings.warn(
            f"state solve clamped {clamp_events} potential evaluations",
            BoundsViolationWarning,
            stacklevel=2,
        )
    return Trajectory(
        values,
        grid,
        time,
        info={
            "newton_iters": newton_iters,
            "factorizations": factorizations,
            "clamp_events": clamp_events,
        },
    )


def energy(grid, ops, potential, state):
    """Discrete free energy of an (N,) state: the Dirichlet edge sum plus potential terms.

    The Dirichlet part is 0.5 sum k (z_a - z_b)^2 over the operator set's
    edges, bulk and cycle alike: a sum of nonnegative terms, exactly 0 on
    constants. The bulk potential is quadratured over interior nodes and
    the surface potential over the boundary cycle; under that splitting
    the coupled scheme is the exact implicit gradient flow of this
    functional, so its value decreases step by step for vanishing controls.
    """
    z = np.asarray(state, dtype=float)
    if potential.is_singular and (np.min(z) <= 0.0 or np.max(z) >= 1.0):
        raise DomainError("energy undefined at or beyond the endpoints 0, 1")
    a, b, k = ops.edges
    d = z.take(a) - z.take(b)
    # numpy's pairwise sums, not a BLAS dot: their order is the same on every CPU
    return 0.5 * float(np.sum(k * d * d)) + float(np.sum(grid.slot_weights * potential.value(z)))


def invariant_interval(pf, pg, radius, y_min, y_max):
    """Numerically realize the confinement interval of the maximum principle.

    Finds r_lo <= y_min with f'(r) + radius <= 0 and g'(r) + radius <= 0 on
    (0, r_lo], and r_hi >= y_max with f'(r) - radius >= 0 and
    g'(r) - radius >= 0 on [r_hi, 1). Solutions started inside
    [r_lo, r_hi] under controls bounded by radius cannot leave it.
    """
    if not (pf.is_singular and pg.is_singular):
        raise DomainError("confinement interval needs singular potentials on both sides")
    eps = max(pf.eps_guard, pg.eps_guard)
    r = np.concatenate(
        [
            np.geomspace(eps, 0.5, 4000),
            np.linspace(0.5, 1.0 - eps, 4000),
        ]
    )
    r = np.unique(r)
    top = np.maximum(np.asarray(pf.d1(r)), np.asarray(pg.d1(r)))
    bot = np.minimum(np.asarray(pf.d1(r)), np.asarray(pg.d1(r)))

    ok_lo = np.maximum.accumulate(top) + radius <= 0.0
    if not ok_lo[0]:
        raise SolverFailureError("no confinement interval: derivative not below -radius near 0")
    idx = np.flatnonzero(ok_lo)[-1]
    r_lo = min(float(r[idx]), float(y_min))

    ok_hi = (np.minimum.accumulate((bot - radius)[::-1])[::-1]) >= 0.0
    if not ok_hi[-1]:
        raise SolverFailureError("no confinement interval: derivative not above radius near 1")
    idx = np.flatnonzero(ok_hi)[0]
    r_hi = max(float(r[idx]), float(y_max))
    if not (0.0 < r_lo <= r_hi < 1.0):
        raise SolverFailureError("degenerate confinement interval")
    return r_lo, r_hi


def trajectory_sup_norm(traj):
    """Max over time levels of the bulk L2 norm of a trajectory's field."""
    squares = np.einsum("kj,kj->k", traj.values * traj.grid.bulk_weights, traj.values)
    return float(np.sqrt(np.max(squares)))


def trajectory_space_time_norm(traj):
    """Space-time norm over bulk and surface parts with trapezoid weights."""
    values, grid, theta = traj.values, traj.grid, traj.time.weights()
    trace = values[:, grid.boundary_cycle]
    total = space_time_inner(theta, grid.bulk_weights, values, values)
    total += space_time_inner(theta, grid.surface_weights, trace, trace)
    return float(np.sqrt(total))
