"""Projected Newton-CG descent over the box of admissible controls.

A semismooth Newton method for the box-constrained reduced problem, in
the projected Newton form of Bertsekas (SIAM J. Control Optim. 20, 1982)
with a truncated CG inner solve; the primal-dual active-set methods of
Hintermueller, Ito & Kunisch (SIAM J. Optim. 13, 2002) are of the same
class, whose iteration counts do not grow with the mesh (Hintermueller &
Ulbrich, Math. Program. 101, 2004). The loop works on the controls'
buffers (`ControlPair.data`: bulk levels, then surface levels, no copy)
and pairs them in `hinner`, the problem's `metric`, in which
`reduced_gradient` g is the gradient and `objective.hessian_apply` the
Hessian. Each iteration:

1. Active set: an entry within eps = min(1e-3, stationarity) of a bound
   that the gradient points out of is active; the rest is the free set.
   The rule needs no positive control weight.
2. Truncated CG (Steihaug, SIAM J. Numer. Anal. 20, 1983) on H d = -g
   over the free set, from d = 0, with exact Hessian products: it stops
   once the residual norm is at most min(0.5, sqrt|r0|) |r0| with
   r0 = -g on the free set (the forcing term of Nocedal & Wright's
   line-search Newton-CG, Numerical Optimization, 2006, Alg. 7.1), or
   where a search direction p has
   <p, Hp> <= 0. It returns its iterate so far, or r0 if it took no step.
   Each product is a linearized and an adjoint march on the factors the
   gradient's adjoint march built: 2m step solves, no factorization.
3. Active entries move by -g. The step is projected into the box,
   d = P(x + newton) - x, and where the projection leaves <g, d> >= 0 the
   projected gradient step d = P(x - g) - x replaces it.
4. Armijo backtracking along the feasible segment x + t d, t =
   initial_step, initial_step backtrack_factor, ...:
   J(x + t d) <= J + armijo_c t <g, d>. The full step t = 1 is the
   projected Newton point.

The optimize-n8 benchmark op (seed 1) takes 7 iterations, 8 state solves
and 33 Hessian products, where projected quasi-Newton took 29 and 30; at
n = 16 and 32 it takes 8 iterations each, with 36 and 35 products. The
final report's curvature samples never read the Hessian products, so
they remain an independent check on the result.

Each line-search trial at cand = u + move solves its state by Newton from
the tangent prediction y(u) + y'(u) move (predictor-corrector
continuation). y'(u) move is one linearized march on the operator whose
every level the adjoint march at u has already factored: m step solves,
no new factorization. The control-to-state map is twice differentiable,
so the prediction is off by O(|move|^2): on the seed-1 optimize-n8
benchmark input, 14 % of the trial levels need no Newton step, 30 % one,
51 % two and 5 % three. The trial's state still meets the full Newton
tolerance. Every iterate, the last one too, is evaluated in the loop: its
`objective.first_order` system makes one history record, so a max_iters
stop records max_iters + 1 iterates. Whatever stops the loop, the final
report reads the last system and `MinimizeResult.state` hands its state
on, so the final control costs no extra solve, factor or adjoint march.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, OptimizerStalledError
from .objective import (
    clip_to_box,
    curvature_weights,
    evaluate_cost,
    first_order,
    hessian_apply,
    hinner,
    optimality_report,
    stationarity_norm,
)
from .pde_linear import solve_linearized
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


def _truncated_cg(apply, rhs, dot):
    """Steihaug's truncated CG for apply(d) = rhs from d = 0, in the pairing dot.

    Stops once the residual norm is at most min(0.5, sqrt|rhs|) |rhs| or
    when a search direction p meets dot(p, apply(p)) <= 0. Returns the
    iterate so far, or rhs itself where CG has taken no step.
    """
    d, r, p = np.zeros_like(rhs), rhs.copy(), rhs.copy()
    rr = dot(r, r)
    forcing = min(0.5, rr**0.25) * math.sqrt(rr)
    for _ in range(rhs.size):
        hp = apply(p)
        curv = dot(p, hp)
        if not curv > 0.0:
            break
        alpha = rr / curv
        d += alpha * p
        r -= alpha * hp
        rr, last = dot(r, r), rr
        if math.sqrt(rr) <= forcing:
            break
        p = r + (rr / last) * p
    return d if d.any() else rhs


def minimize(problem, config, start, callback=None):
    """Run projected Newton-CG descent from a starting control.

    Each iteration forms the first-order system at its iterate (state,
    adjoint and exact discrete gradient), takes a truncated Newton step on
    the free set with exact Hessian products, and accepts the first
    backtracked trial along the projected step with sufficient decrease
    (see the module docstring). Terminates when the unit-step projected
    residual norm drops below stop_tol or after max_iters accepted steps,
    with the iterate they reach evaluated and recorded. The result carries
    the OptimalityReport of the final control.

    Args:
        callback: optional callable receiving (IterateRecord, control) as
            each iterate is evaluated (used for streaming history and
            checkpoints to disk). The record's step is the line-search step
            t that produced the iterate; iteration 0, reached by no search,
            records initial_step.

    Raises:
        OptimizerStalledError: the start cost is not finite, or the line
            search exhausted max_backtracks; the error carries the current
            control and history.
    """
    u = clip_to_box(problem, start)
    lo, hi = problem.lower.data, problem.upper.data

    def pairing(a, b):  # hinner's own sum, on two buffers of the controls' layout
        return hinner(problem, ControlPair.wrap(a, u), ControlPair.wrap(b, u))

    history = []
    clamp_tally = 0
    reason = "max_iters"
    step = config.initial_step

    cost, state = _cost_at(problem, u)
    if not math.isfinite(cost):  # Armijo keeps every later cost below this one, so finite
        raise OptimizerStalledError(f"start cost is not finite: {cost}", control=u, history=history)
    for it in range(config.max_iters + 1):
        clamp_tally += state.info.get("clamp_events", 0)
        system = first_order(problem, u, state)
        _, operator, adjoint, grad = system
        stat = stationarity_norm(problem, u, grad)

        record = IterateRecord(it, cost, stat, step, clamp_tally)
        history.append(record)
        if callback is not None:
            callback(record, u)
        if stat <= config.stop_tol:
            reason = "stationarity"
            break
        if it == config.max_iters:
            break

        # epsilon-active set: entries within eps of a bound that the gradient pushes against
        x, g = u.data, grad.data
        eps = min(1e-3, stat)
        free = ~(((x <= lo + eps) & (g > 0.0)) | ((x >= hi - eps) & (g < 0.0)))
        curv_weights = curvature_weights(problem, state, adjoint)

        def hess(v):
            product = hessian_apply(problem, operator, curv_weights, ControlPair.wrap(v, u)).data
            product[~free] = 0.0
            return product

        newton = np.where(free, _truncated_cg(hess, np.where(free, -g, 0.0), pairing), -g)
        d = np.clip(x + newton, lo, hi) - x
        if not pairing(g, d) < 0.0:  # the projection undid the descent: take the projected gradient step
            d = np.clip(x - g, lo, hi) - x
        slope = pairing(g, d)

        accepted = None
        at_float_floor = False
        trial = config.initial_step
        for _ in range(config.max_backtracks):
            cand = np.clip(x + trial * d, lo, hi)
            if not (cand != x).any():
                at_float_floor = True
                break
            # tangent prediction y(u) + y'(u) move on the factors the adjoint built
            prediction = state.values + solve_linearized(operator, ControlPair.wrap(cand - x, u)).values
            cand = ControlPair.wrap(cand, u)
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
        u, cost, state = accepted
        step = trial
        del system, operator, adjoint  # one iterate's factors alive at a time: free these before the next

    report = optimality_report(problem, u, system=system)
    return MinimizeResult(control=u, state=state, history=history, report=report, reason=reason)
