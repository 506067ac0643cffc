"""Projected quasi-Newton descent over the box of admissible controls.

The loop works in x = sqrt(theta w) u, entrywise over the bulk and
surface slots (time weights theta, node weights w), where the Euclidean
pairing is `hinner`, the gradient is sqrt(theta w) times
`reduced_gradient` and the boxes map entrywise. Each iteration is a
subspace limited-memory step in the style of L-BFGS-B (Byrd, Lu, Nocedal
& Zhu, SIAM J. Sci. Comput. 16, 1995; the subspace form of Ni & Yuan,
Math. Comp. 66, 1997):

1. The pair s = x - x_prev, y = g - g_prev is stored when
   <s, y> > eps <y, y>; the last MEMORY pairs are kept.
2. gamma = <s, y> / <y, y> of the newest pair, the BB2 step of Barzilai
   & Borwein (IMA J. Numer. Anal. 8, 1988), or initial_step with no pair.
   The Cauchy point x_c = P(x - gamma g) fixes the entries it leaves on
   a bound; its interior entries are the free set.
3. The compact L-BFGS matrix B = theta I - W M W^T (theta = 1/gamma,
   W = [theta S, Y]; Byrd, Nocedal & Schnabel, Math. Program. 63, 1994)
   is minimized over the free set, the other entries held at x_c, by one
   Sherman-Morrison-Woodbury solve of order 2k. The minimizer z is
   projected into the box: d = P(z) - x.
4. Where <g, d> >= 0 the memory is dropped and d = x_c - x.
5. Armijo backtracking along the feasible segment x + t d, t = 1,
   backtrack_factor, ...: J(x + t d) <= J + armijo_c t <g, d>.

The optimize-n8 benchmark op (seed 1) takes 29 iterations and 31 state
solves, where projected gradient with BB2 steps took 59 and 69. At
n = 16 and 32 it takes 29 iterations each. MEMORY = 5 takes 32
iterations and 35 state solves on that op. Only first-order information enters the loop, so the curvature
diagnostics of the final report remain an independent check on the
result.

Each line-search trial at cand = u + move solves its state by Newton from
the tangent prediction y(u) + y'(u) move (predictor-corrector
continuation). y'(u) move is one linearized march on the operator whose
every level the adjoint march at u has already factored: m step solves,
no new factorization. The control-to-state map is twice differentiable,
so the prediction is off by O(|move|^2): on the seed-1 optimize-n8
benchmark input, 17 % of the trial levels need no Newton step, 55 % one
and 28 % two. The trial's state still meets the full Newton
tolerance. The final optimality report reuses the accepted state, and
`MinimizeResult.state` hands it to the caller, so the final control costs
no extra solve.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, OptimizerStalledError
from .objective import (
    clip_to_box,
    evaluate_cost,
    optimality_report,
    reduced_gradient,
    stationarity_norm,
    tracking_seeds,
)
from .pde_linear import linearized_operator, solve_adjoint, solve_linearized
from .pde_state import ControlPair

# Curvature pairs kept by the limited-memory matrix.
MEMORY = 10
# A pair is stored only where <s, y> exceeds this share of <y, y>.
PAIR_TOL = np.finfo(float).eps


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0
    stop_tol: float = 1e-8
    max_backtracks: int = 40

    def __post_init__(self):
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise InvalidParameterError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not (0.0 < self.armijo_c < 1.0):
            raise InvalidParameterError("armijo_c must lie in (0, 1)")
        if not (0.0 < self.backtrack_factor < 1.0):
            raise InvalidParameterError("backtrack_factor must lie in (0, 1)")
        if not (0.0 < self.initial_step < math.inf):
            raise InvalidParameterError("initial_step must be positive and finite")
        if not (0.0 < self.stop_tol < math.inf):
            raise InvalidParameterError("stop_tol must be positive and finite")
        if not isinstance(self.max_backtracks, (int, np.integer)) or self.max_backtracks < 1:
            raise InvalidParameterError(
                f"max_backtracks must be a positive integer, got {self.max_backtracks!r}"
            )


@dataclass(frozen=True)
class IterateRecord:
    iter: int
    cost: float
    stationarity: float
    step: float
    clamp_events: int


@dataclass
class MinimizeResult:
    """The final control, the state solved at it, and the run's record."""

    control: ControlPair
    state: object
    history: list = field(default_factory=list)
    report: object = None
    reason: str = "max_iters"


class _Memory:
    """The last MEMORY curvature pairs and the compact L-BFGS matrix they define.

    B = theta I - W M W^T with theta = 1/gamma, W = [theta S, Y] and
    M^-1 = [[theta S^T S, L], [L^T, -D]], where D holds <s_i, y_i> and
    L the <s_i, y_j> with i > j, oldest pair first. The pairs live in one
    preallocated (2, MEMORY, n) array; their Gram matrix grows by one row
    and column per stored pair, and M^-1 is formed once per pair.
    """

    def __init__(self, n):
        self.pairs = np.empty((2, MEMORY, n))  # [0] the s rows, [1] the y rows
        self.gram = np.empty((2, MEMORY, 2, MEMORY))  # gram[a, i, b, j] = <pairs[a, i], pairs[b, j]>
        self.k = 0
        self.gamma = self.middle = self.scale = None

    def reset(self):
        self.k = 0

    def push(self, s, y):
        """Store (s, y) as the newest pair unless <s, y> <= PAIR_TOL <y, y>."""
        sy, yy = float(s @ y), float(y @ y)
        if not sy > PAIR_TOL * yy:
            return
        k = min(self.k, MEMORY - 1)
        if self.k == MEMORY:
            self.pairs[:, :k] = self.pairs[:, 1:]
            self.gram[:, :k, :, :k] = self.gram[:, 1:, :, 1:]
        self.pairs[0, k], self.pairs[1, k] = s, y
        for a, v in enumerate((s, y)):
            self.gram[a, k, :, : k + 1] = self.gram[:, : k + 1, a, k] = self.pairs[:, : k + 1] @ v
        k = self.k = k + 1
        self.gamma = sy / yy
        theta = 1.0 / self.gamma
        products = self.gram[0, :k, 1, :k]
        lower = np.tril(products, -1)
        self.middle = np.block(
            [[theta * self.gram[0, :k, 0, :k], lower], [lower.T, -np.diag(np.diag(products))]]
        )
        self.scale = np.repeat((theta, 1.0), k)  # the column scales of W

    def _combine(self, p):
        """sum_i p_i s_i + p_(k+i) y_i."""
        k = self.k
        return p[:k] @ self.pairs[0, :k] + p[k:] @ self.pairs[1, :k]

    def times(self, v):
        """B v."""
        wv = self.scale * (self.pairs[:, : self.k] @ v).ravel()
        return v / self.gamma - self._combine(self.scale * np.linalg.solve(self.middle, wv))

    def free_solve(self, r, free):
        """(Z^T B Z)^-1 Z^T r on the entries of Z, the columns of the identity at `free`, else 0.

        Sherman-Morrison-Woodbury on Z^T B Z = theta I - W_F M W_F^T:
        r / theta + W_F (M^-1 - W_F^T W_F / theta)^-1 W_F^T r / theta^2,
        with W_F^T W_F the Gram matrix less its part on the other entries.
        """
        k, theta = self.k, 1.0 / self.gamma
        fixed = self.pairs[:, :k][:, :, ~free].reshape(2 * k, -1)
        gram = self.gram[:, :k, :, :k].reshape(2 * k, 2 * k) - fixed @ fixed.T
        inner = self.middle - np.outer(self.scale, self.scale) * gram / theta
        r = np.where(free, r, 0.0)
        p = self.scale * np.linalg.solve(inner, self.scale * (self.pairs[:, :k] @ r).ravel())
        return (r + np.where(free, self._combine(p), 0.0) / theta) / theta

    def direction(self, x, g, cauchy, lo, hi):
        """P(z) - x for the minimizer z of the model over the free set of the Cauchy point."""
        free = (lo < cauchy) & (cauchy < hi)
        z = cauchy - self.free_solve(g + self.times(cauchy - x), free)
        return np.clip(z, lo, hi) - x


def _flat(pair):
    """A control pair as one vector: the bulk levels, then the surface levels."""
    return np.concatenate((pair.bulk.ravel(), pair.surface.ravel()))


def _pair(problem, v):
    """The control pair of a `_flat` vector (views into v)."""
    size = problem.u_lo.size
    return ControlPair(v[:size].reshape(problem.u_lo.shape), v[size:].reshape(problem.u_lo_surf.shape))


def _cost_at(problem, control, guess=None):
    state = problem.solve(control, guess=guess)
    return evaluate_cost(problem, state, control), state


def _moved(a, b):
    """The control-pair difference a - b."""
    return ControlPair(a.bulk - b.bulk, a.surface - b.surface)


def minimize(problem, config, start, callback=None):
    """Run projected quasi-Newton descent from a starting control.

    Each iteration solves state and adjoint once, forms the exact
    discrete gradient, and accepts the first backtracked trial along the
    projected quasi-Newton direction with sufficient decrease (see the
    module docstring). Terminates when the unit-step projected residual
    norm drops below stop_tol or the iteration budget is reached. The
    result carries the OptimalityReport of the final control.

    Args:
        callback: optional callable receiving (IterateRecord, control) as
            each iterate is accepted (used for streaming history and
            checkpoints to disk). The record's step is gamma, the step of
            the Cauchy point.

    Raises:
        OptimizerStalledError: the line search exhausted max_backtracks;
            the error carries the current control and history.
    """
    u = clip_to_box(problem, start)
    levels = problem.time.weights()[:, None]
    root = np.sqrt(_flat(ControlPair(levels * problem.grid.bulk_weights,
                                     levels * problem.grid.surface_weights)))
    lo = root * _flat(ControlPair(problem.u_lo, problem.u_lo_surf))
    hi = root * _flat(ControlPair(problem.u_hi, problem.u_hi_surf))
    memory = _Memory(root.size)
    history = []
    clamp_tally = 0
    reason = "max_iters"

    cost, state = _cost_at(problem, u)
    for it in range(config.max_iters):
        clamp_tally += state.info.get("clamp_events", 0)
        operator = linearized_operator(state, problem.potential, problem.ops)
        adjoint = solve_adjoint(operator, tracking_seeds(problem, state))
        grad = reduced_gradient(problem, adjoint, u)
        stat = stationarity_norm(problem, u, grad)
        x, g = root * _flat(u), root * _flat(grad)
        if it > 0:
            memory.push(x - last_x, g - last_g)
        step = memory.gamma if memory.k else config.initial_step

        record = IterateRecord(it, cost, stat, step, clamp_tally)
        history.append(record)
        if callback is not None:
            callback(record, u)
        if stat <= config.stop_tol:
            reason = "stationarity"
            break

        cauchy = np.clip(x - step * g, lo, hi)
        d = memory.direction(x, g, cauchy, lo, hi) if memory.k else cauchy - x
        if not g @ d < 0.0:  # no descent: drop the memory, take the Cauchy step
            memory.reset()
            d = cauchy - x
        slope = float(g @ d)

        accepted = None
        at_float_floor = False
        trial = 1.0
        for _ in range(config.max_backtracks):
            cand = clip_to_box(problem, _pair(problem, (x + trial * d) / root))
            move = _moved(cand, u)
            if not (move.bulk.any() or move.surface.any()):
                at_float_floor = True
                break
            # tangent prediction y(u) + y'(u) move on the factors the adjoint built
            prediction = state.values + solve_linearized(operator, move).values
            cand_cost, cand_state = _cost_at(problem, cand, guess=prediction)
            if cand_cost <= cost + config.armijo_c * trial * slope:
                if cand_cost < cost:
                    accepted = (cand, cand_cost, cand_state)
                else:
                    # sufficient decrease holds only as an exact tie: the
                    # cost can no longer be reduced in floating point
                    at_float_floor = True
                break
            trial *= config.backtrack_factor
        if accepted is None:
            if at_float_floor:
                reason = "roundoff"
                break
            raise OptimizerStalledError(
                f"line search stalled at iteration {it} (stationarity {stat:.3e})",
                control=u,
                history=history,
            )
        last_x, last_g = x, g
        u, cost, state = accepted

    report = optimality_report(problem, u, state=state)
    return MinimizeResult(control=u, state=state, history=history, report=report, reason=reason)
