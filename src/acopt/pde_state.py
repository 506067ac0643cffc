"""Forward solver for the coupled bulk/surface phase-field system.

One implicit Euler step solves the coupled nonlinear system

    (y+ - y)/dt + L y+ + f'(y+) = u      at interior nodes,
    (yG+ - yG)/dt + L_surf yG+ + B_flux y+ + g'(yG+) = uG   at boundary nodes,

with L the 5-point negative Laplacian (the interior rows of `coupled`)
and a single unknown vector over all bulk nodes (the boundary trace is
the restriction of that vector, so the trace identity holds by
construction). Newton with interval-preserving damping solves each step;
the logarithmic derivative pushes iterates away from 0 and 1, so the
damped iteration stays inside the guarded interval without projections.

Each Newton candidate costs one guarded potential evaluation
(`potentials.newton_terms`): it yields f', g' for the candidate's residual
and f'', g'' for the Jacobian at that point, so the accepted candidate
carries the coefficients of the next Newton step with it.

Newton starts. The step to level k+1 starts from a given guess level,
else from the time extrapolation 2 y_k - y_{k-1} (y_0 for the first
step); a start with a non-finite entry or one outside the guarded
interval is replaced by y_k. The stop test does not depend on the start,
so every converged level meets the same tolerance, and a start that
already meets it costs no iteration. Callers that know a nearby solved
state pass its tangent prediction as the guess (`optimizer.minimize`);
the optimality report has no such state, and the verify modes keep
unguessed starts on purpose (see `cli_io`). Where dt max(-f'', -g'') >= 1
(the regime `StepSolvabilityWarning` names) a step may have several
roots, and a different start can converge to a different one.

Every Newton step and every linear step of `pde_linear` solves with a
matrix M = I/dt + coupled + diag(c). `StepMatrix` factors all of them the
same way: scaled by the slot quadrature weights W, S = W M is an exactly
symmetric band, so one LAPACK band factor of S serves both M and its
transpose.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import (
    BoundsViolationWarning,
    DimensionMismatchError,
    DomainError,
    SolverFailureError,
)
from .geometry import inner_product_bulk, inner_product_surf
from .potentials import newton_terms

NEWTON_TOL = 1e-11
MAX_NEWTON = 50
MAX_DAMPING = 30


@dataclass
class FieldPair:
    """A bulk scalar field whose boundary trace is shared storage.

    Attributes:
        bulk: (N,) values at all bulk nodes.
        grid: owning grid (provides the boundary cycle).
    """

    bulk: np.ndarray
    grid: object

    def __post_init__(self):
        self.bulk = np.asarray(self.bulk, dtype=float)
        if self.bulk.shape != (self.grid.num_nodes,):
            raise DimensionMismatchError(
                f"field needs shape ({self.grid.num_nodes},), got {self.bulk.shape}"
            )

    @property
    def surface(self):
        """Boundary trace, ordered along the cycle."""
        return self.bulk[self.grid.boundary_cycle]


@dataclass
class ControlPair:
    """Distributed and boundary controls, stored independently.

    The surface control is not a trace of the bulk control. Shapes are
    (m+1, N) and (m+1, 4n): one row per time level.
    """

    bulk: np.ndarray
    surface: np.ndarray

    def __post_init__(self):
        self.bulk = np.asarray(self.bulk, dtype=float)
        self.surface = np.asarray(self.surface, dtype=float)
        if self.bulk.ndim != 2 or self.surface.ndim != 2 or self.bulk.shape[0] != self.surface.shape[0]:
            raise DimensionMismatchError(
                f"control pair needs matching (levels, nodes) arrays, got {self.bulk.shape} and {self.surface.shape}"
            )

    def copy(self):
        return ControlPair(self.bulk.copy(), self.surface.copy())

    @classmethod
    def zeros(cls, grid, time):
        return cls(
            np.zeros((time.m + 1, grid.num_nodes)),
            np.zeros((time.m + 1, grid.num_boundary)),
        )


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

    def snapshot(self, k):
        return FieldPair(self.values[k], self.grid)

    @property
    def terminal(self):
        return self.snapshot(self.time.m)


def slot_fields(grid, bulk_values, surface_values):
    """Combine interior-slot and boundary-slot data into equation vectors.

    bulk_values (..., N) and surface_values (..., 4n) may carry leading
    axes, such as one row per time level; the result is (..., N).
    """
    out = np.zeros(bulk_values.shape)
    out[..., grid.interior_nodes] = bulk_values[..., grid.interior_nodes]
    out[..., grid.boundary_cycle] = surface_values
    return out


def slot_weights(grid):
    """Quadrature weight per equation slot: area weights, arclength weights on the cycle."""
    w = grid.bulk_weights.copy()
    w[grid.boundary_cycle] = grid.surface_weights
    return w


class StepMatrix:
    """Band factorizations of the step matrices M(c) = I/dt + coupled + diag(c).

    With W = diag(slot weights), W coupled = A_bulk + A_surf (see
    `geometry.build_operators`) is exactly symmetric, and so is
    S = W M(c) = W coupled + W/dt + W diag(c). In the natural node order S
    is a band whose half-bandwidth (n+1 on a grid with n cells per side) is
    read off the sparsity pattern of `coupled`. Only the upper entries of
    W coupled are stored, one per band position (duplicate entries of a
    non-canonical `coupled` are summed once here); `factor` assigns them
    into a fresh zero band in LAPACK layout, adds W/dt, then W c, and
    factors it in place.

    S is positive definite whenever 1/dt + min c > 0, and then the factor
    is a banded Cholesky (dpbtrf). Otherwise the same S is factored by
    banded LU with partial pivoting (dgbtrf); the matrix, not a setting,
    selects the path. Solves reuse one factor both ways:
    M x = r is x = S^-1 (W r), and M^T x = r is x = W S^-1 r.

    A factor holds (b+1) N doubles for Cholesky and (3b+1) N for LU, with
    b the half-bandwidth: 17.3 MB per level at n = 128.
    """

    def __init__(self, grid, ops, dt):
        coupled = ops.coupled.tocsr()
        num = coupled.shape[0]
        w = slot_weights(grid)
        rows = np.repeat(np.arange(num), np.diff(coupled.indptr))
        cols = coupled.indices
        upper = cols >= rows
        rows, cols = rows[upper], cols[upper]
        self.bandwidth = int(np.max(cols - rows, initial=0))
        # position of S[i, j], i <= j, in the flattened Fortran-ordered band
        pos = self.bandwidth + rows - cols + cols * (self.bandwidth + 1)
        self._pos, slot = np.unique(pos, return_inverse=True)
        self._vals = np.bincount(slot, weights=w[rows] * coupled.data[upper])
        self._w = w
        self._w_dt = w / dt

    def _upper_band(self, c):
        b, num = self.bandwidth, self._w.size
        flat = np.zeros((b + 1) * num)
        flat[self._pos] = self._vals
        band = flat.reshape((b + 1, num), order="F")
        band[b] += self._w_dt
        band[b] += self._w * c
        return band

    def factor(self, c, level=None, residual=None):
        """Factor S = W M(c) for the slot coefficients c.

        Returns (band, pivots) for `solve` and `solve_transposed`: the
        Cholesky band with pivots None, or the LU band with its pivots.
        Raises SolverFailureError (carrying level and residual) when S is
        exactly singular.
        """
        chol, info = lapack.dpbtrf(self._upper_band(c), overwrite_ab=1)
        if info == 0:
            return chol, None
        b = self.bandwidth
        upper = self._upper_band(c)  # dpbtrf overwrote the first band
        general = np.zeros((3 * b + 1, upper.shape[1]), order="F")
        general[b : 2 * b + 1] = upper
        for d in range(1, b + 1):
            general[2 * b + d, :-d] = upper[b - d, d:]
        lu, pivots, info = lapack.dgbtrf(general, b, b, overwrite_ab=1)
        if info > 0:
            raise SolverFailureError(
                f"step matrix is exactly singular at step {level}",
                step=level,
                residual=residual,
            )
        return lu, pivots

    def _solve_band(self, factor, rhs):
        band, pivots = factor
        if pivots is None:
            return lapack.dpbtrs(band, rhs)[0]
        return lapack.dgbtrs(band, self.bandwidth, self.bandwidth, rhs, pivots)[0]

    def _scale(self, v):
        return self._w[:, None] * v if v.ndim == 2 else self._w * v

    def solve(self, factor, rhs):
        """Solve M x = rhs for rhs of shape (N,) or (N, k)."""
        return self._solve_band(factor, self._scale(rhs))

    def solve_transposed(self, factor, rhs):
        """Solve M^T x = rhs for rhs of shape (N,) or (N, k)."""
        return self._scale(self._solve_band(factor, rhs))


def _nonlinearity(grid, pf, pg, z):
    """(f', g') and (f'', g'') in slot layout, and the clamp count of the one guarded evaluation."""
    inner, cycle = grid.interior_nodes, grid.boundary_cycle
    d1, d2 = np.zeros(grid.num_nodes), np.zeros(grid.num_nodes)
    d1[inner], d2[inner], bulk_clamps = newton_terms(pf, z[inner])
    d1[cycle], d2[cycle], surf_clamps = newton_terms(pg, z[cycle])
    return d1, d2, bulk_clamps + surf_clamps


def _interval(pf, pg):
    lo = max(pf.eps_guard if pf.is_singular else -np.inf, pg.eps_guard if pg.is_singular else -np.inf)
    hi = min(1 - pf.eps_guard if pf.is_singular else np.inf, 1 - pg.eps_guard if pg.is_singular else np.inf)
    return lo, hi


def solve_state(
    grid, ops, time, pf, pg, control, init, newton_tol=NEWTON_TOL, max_newton=MAX_NEWTON, guess=None
):
    """March the nonlinear coupled system forward with damped Newton steps.

    Args:
        control: ControlPair with m+1 levels; the step to level k+1 reads
            level k+1 (level 0 never enters the dynamics).
        init: FieldPair (or array) of initial values; for singular
            potentials all entries must lie strictly inside (0, 1).
        guess: optional (m+1, N) array; level k+1 is the Newton start of
            the step to level k+1 (level 0 is never read). Without it,
            the step to level k+1 starts from 2 values[k] - values[k-1]
            for k >= 1. Either start is replaced by values[k] when it has
            a non-finite entry or leaves the guarded interval.

    Returns:
        Trajectory with info dict holding newton iteration counts and the
        number of potential arguments clamped during the solve.

    Raises:
        SolverFailureError: Newton did not converge within max_newton
            iterations at some step, a Newton Jacobian was exactly
            singular, or no damped update stayed inside the guarded
            interval.
    """
    y0 = init.bulk if isinstance(init, FieldPair) else np.asarray(init, dtype=float)
    if y0.shape != (grid.num_nodes,):
        raise DimensionMismatchError(f"initial data needs shape ({grid.num_nodes},)")
    singular = pf.is_singular or pg.is_singular
    if singular and (np.min(y0) <= 0.0 or np.max(y0) >= 1.0):
        raise DomainError("initial data must lie strictly inside (0, 1)")
    if not (np.isfinite(control.bulk).all() and np.isfinite(control.surface).all()):
        raise DomainError("controls must be finite")
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != (time.m + 1, grid.num_nodes):
            raise DimensionMismatchError(
                f"guess needs shape {(time.m + 1, grid.num_nodes)}, got {guess.shape}"
            )

    dt = time.dt
    step_matrix = StepMatrix(grid, ops, dt)
    lo, hi = _interval(pf, pg)

    values = np.empty((time.m + 1, grid.num_nodes))
    values[0] = y0
    newton_iters = []
    clamp_events = 0

    for k in range(time.m):
        rhs = slot_fields(grid, control.bulk[k + 1], control.surface[k + 1])
        prev = values[k]
        if guess is not None:
            start = guess[k + 1]
        elif k >= 1:
            start = 2.0 * prev - values[k - 1]
        else:
            start = prev
        admissible = np.isfinite(start).all() and start.min() >= lo and start.max() <= hi
        z = (start if admissible else prev).copy()

        def residual(v):
            d1, d2, clamped = _nonlinearity(grid, pf, pg, v)
            return (v - prev) / dt + ops.coupled @ v + d1 - rhs, d2, clamped

        res, d2, clamped = residual(z)
        clamp_events += clamped
        res_norm = np.abs(res).max()
        converged = res_norm <= newton_tol
        iters = 0
        while not converged and iters < max_newton:
            # the Jacobian at z reuses the f'' of z's residual, and its clamps count again
            clamp_events += clamped
            delta = step_matrix.solve(
                step_matrix.factor(d2, level=k + 1, residual=res_norm), -res
            )
            step = 1.0
            accepted = None
            fallback = None
            for _ in range(MAX_DAMPING):
                cand = z + step * delta
                if cand.min() >= lo and cand.max() <= hi:
                    cand_res, cand_d2, cand_clamped = residual(cand)
                    clamp_events += cand_clamped
                    cand_norm = np.abs(cand_res).max()
                    if cand_norm < res_norm:
                        accepted = (cand, cand_res, cand_norm, cand_d2, cand_clamped)
                        break
                    if fallback is None:
                        fallback = (cand, cand_res, cand_norm, cand_d2, cand_clamped)
                step *= 0.5
            if accepted is None:
                if fallback is None:
                    raise SolverFailureError(
                        f"no admissible Newton update at step {k + 1}",
                        step=k + 1,
                        residual=res_norm,
                    )
                accepted = fallback
            z, res, res_norm, d2, clamped = accepted
            iters += 1
            converged = res_norm <= newton_tol
        if not converged:
            raise SolverFailureError(
                f"Newton stalled at step {k + 1}: residual {res_norm:.3e} after {iters} iterations",
                step=k + 1,
                residual=res_norm,
            )
        values[k + 1] = z
        newton_iters.append(iters)

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
        info={"newton_iters": newton_iters, "clamp_events": clamp_events},
    )


def energy(grid, ops, pf, pg, state):
    """Discrete free energy: Dirichlet forms plus potential terms.

    The bulk potential is quadratured over interior nodes and the surface
    potential over the boundary cycle; under that splitting the coupled
    scheme is the exact implicit gradient flow of this functional, so its
    value decreases step by step for vanishing controls.
    """
    z = state.bulk if isinstance(state, FieldPair) else np.asarray(state, dtype=float)
    trace = z[grid.boundary_cycle]
    if pf.is_singular or pg.is_singular:
        if np.min(z) <= 0.0 or np.max(z) >= 1.0:
            raise DomainError("energy undefined at or beyond the endpoints 0, 1")
    grad_bulk = 0.5 * float(z @ (ops.dirichlet_bulk @ z))
    grad_surf = 0.5 * float(trace @ (ops.dirichlet_surf @ trace))
    w_int = grid.bulk_weights[grid.interior_nodes]
    pot_bulk = float(np.dot(w_int, pf.value(z[grid.interior_nodes])))
    pot_surf = float(np.dot(grid.surface_weights, pg.value(trace)))
    return grad_bulk + grad_surf + pot_bulk + pot_surf


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


def trajectory_sup_norm(traj_a, traj_b=None):
    """Max over time levels of the bulk L2 norm of the (difference) field."""
    diff = traj_a.values if traj_b is None else traj_a.values - traj_b.values
    grid = traj_a.grid
    norms = [np.sqrt(inner_product_bulk(diff[k], diff[k], grid)) for k in range(diff.shape[0])]
    return float(np.max(norms))


def trajectory_space_time_norm(traj_a, traj_b=None):
    """Space-time norm over bulk and surface parts with trapezoid weights."""
    diff = traj_a.values if traj_b is None else traj_a.values - traj_b.values
    grid, time = traj_a.grid, traj_a.time
    theta = time.weights()
    total = 0.0
    for k in range(diff.shape[0]):
        total += theta[k] * inner_product_bulk(diff[k], diff[k], grid)
        trace = diff[k][grid.boundary_cycle]
        total += theta[k] * inner_product_surf(trace, trace, grid)
    return float(np.sqrt(total))
