"""Projected gradient descent over the box of admissible controls.

Projected gradient with monotone Armijo backtracking. The first trial
step is `initial_step` at iteration 0 and after it the BB2 step
<s, y>_H / <y, y>_H of Barzilai & Borwein (IMA J. Numer. Anal. 8, 1988),
where s and y are the moves of the control and of the reduced gradient
over the last accepted step, as in the spectral projected gradient of
Birgin, Martinez & Raydan (SIAM J. Optim. 10, 2000). Where <s, y> <= 0,
or the quotient is not finite, the first trial falls back to the doubled
step that was last used, capped at 10 initial_step. On optimize-n8
(seed 1) BB2 takes 59 iterations where that doubling rule took 127.
BB1, <s, s> / <s, y>, takes fewer still, but its longer steps spoil the
tangent starts below and cost more Newton iterations. Second-order
machinery stays out of the loop on purpose, so the curvature
diagnostics remain an independent check on the result instead of part
of the algorithm.

Each line-search trial at cand = u + d solves its state by Newton from
the tangent prediction y(u) + y'(u) d (predictor-corrector continuation).
y'(u) d is one linearized march on the operator whose every level the
adjoint march at u has already factored: m step solves, no new
factorization. The control-to-state map is twice differentiable, so the
prediction is off by O(|d|^2): on the seed-1 optimize-n8 benchmark
input, 32 % of the trial levels need no Newton step, 49 % one and 19 %
two. The trial's state still meets the full Newton tolerance. The final
optimality report reuses the accepted state, and `MinimizeResult.state`
hands it to the caller, so the final control costs no extra solve.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, OptimizerStalledError
from .objective import (
    clip_to_box,
    evaluate_cost,
    hinner,
    hnorm,
    optimality_report,
    reduced_gradient,
    stationarity_norm,
    tracking_seeds,
)
from .pde_linear import linearized_operator, solve_adjoint, solve_linearized
from .pde_state import ControlPair


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


def _cost_at(problem, control, guess=None):
    state = problem.solve(control, guess=guess)
    return evaluate_cost(problem, state, control), state


def _moved(a, b):
    """The control-pair difference a - b."""
    return ControlPair(a.bulk - b.bulk, a.surface - b.surface)


def _bb_step(problem, s, y, used, config):
    """The first trial step after an accepted step s that moved the gradient by y.

    The BB2 step <s, y> / <y, y>. Where <s, y> <= 0 or the quotient is
    not finite, the doubled step that was used, capped at 10 initial_step.
    """
    sy, yy = hinner(problem, s, y), hinner(problem, y, y)
    step = sy / yy if sy > 0.0 and yy > 0.0 else math.nan
    return step if math.isfinite(step) else min(2.0 * used, 10.0 * config.initial_step)


def minimize(problem, config, start, callback=None):
    """Run projected gradient descent from a starting control.

    Each iteration solves state and adjoint once, forms the exact
    discrete gradient, and accepts the first backtracked projected step
    with sufficient decrease. The first trial step is initial_step at
    iteration 0 and `_bb_step` after it. Terminates when the unit-step
    projected residual norm drops below stop_tol or the iteration budget
    is reached. The result carries the OptimalityReport of the final
    control.

    Args:
        callback: optional callable receiving (IterateRecord, control) as
            each iterate is accepted (used for streaming history and
            checkpoints to disk).

    Raises:
        OptimizerStalledError: the line search exhausted max_backtracks;
            the error carries the current control and history.
    """
    u = clip_to_box(problem, start)
    history = []
    step = config.initial_step
    clamp_tally = 0
    reason = "max_iters"

    cost, state = _cost_at(problem, u)
    for it in range(config.max_iters):
        clamp_tally += state.info.get("clamp_events", 0)
        operator = linearized_operator(state, problem.potential, problem.ops)
        adjoint = solve_adjoint(operator, tracking_seeds(problem, state))
        grad = reduced_gradient(problem, adjoint, u)
        stat = stationarity_norm(problem, u, grad)
        if it > 0:
            step = _bb_step(problem, _moved(u, last_u), _moved(grad, last_grad), used, config)

        record = IterateRecord(it, cost, stat, step, clamp_tally)
        history.append(record)
        if callback is not None:
            callback(record, u)
        if stat <= config.stop_tol:
            reason = "stationarity"
            break

        accepted = None
        at_float_floor = False
        trial = step
        for _ in range(config.max_backtracks):
            cand = clip_to_box(
                problem, ControlPair(u.bulk - trial * grad.bulk, u.surface - trial * grad.surface)
            )
            move = _moved(cand, u)
            move_sq = hnorm(problem, move) ** 2
            if move_sq == 0.0:
                at_float_floor = True
                break
            # tangent prediction y(u) + y'(u) move on the factors the adjoint built
            prediction = state.values + solve_linearized(operator, move).values
            cand_cost, cand_state = _cost_at(problem, cand, guess=prediction)
            if cand_cost <= cost - (config.armijo_c / trial) * move_sq:
                if cand_cost < cost:
                    accepted = (cand, cand_cost, cand_state, trial)
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
        last_u, last_grad = u, grad
        u, cost, state, used = accepted

    report = optimality_report(problem, u, state=state)
    return MinimizeResult(control=u, state=state, history=history, report=report, reason=reason)
