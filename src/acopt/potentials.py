"""Double-well potentials with a logarithmic singular part.

The potential splits as a convex singular part
alpha * (y log y + (1-y) log(1-y)) plus a smooth concave part
c * y * (1-y). With alpha > 0 the first derivative blows up at 0 and 1,
which is what confines solution values to the open unit interval. Setting
alpha = 0 selects the purely quadratic variant used by linear-quadratic
cross checks; in that case there is no singularity and no argument
safeguarding.

`Potential` holds the coefficients the configuration names; it is
immutable, hashable and safe to share, pickle and copy. The solvers
evaluate `SlotPotential.on(grid, pf, pg)`, f at the interior slots and g
on the boundary cycle, over (..., N) slot-layout arrays in one pass; a
`Potential` evaluates as the one-slot `SlotPotential` of its
coefficients. The evaluators clamp arguments of a singular potential to
[eps_guard, 1 - eps_guard] and count them; solvers keep their iterates
inside that interval, so a nonzero count after a solve flags a
discretization problem rather than normal operation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, InvalidParameterError


class _Evaluators:
    """value, d1, d2 and d3, each through the class's _evaluate(name, y)."""

    def value(self, y):
        return self._evaluate("value", y)

    def d1(self, y):
        return self._evaluate("d1", y)

    def d2(self, y):
        return self._evaluate("d2", y)

    def d3(self, y):
        return self._evaluate("d3", y)


@dataclass(frozen=True)
class Potential(_Evaluators):
    """Coefficients and derivative evaluators for one potential.

    Attributes:
        alpha: coefficient of the logarithmic part, >= 0 (0 disables it).
        smooth_c: coefficient c of the smooth part c * y * (1 - y).
        eps_guard: safeguard distance from the endpoints, in (0, 0.5).
    """

    alpha: float = 1.0
    smooth_c: float = 3.0
    eps_guard: float = 1e-9

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf):
            raise InvalidParameterError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not math.isfinite(self.smooth_c):
            raise InvalidParameterError(f"c must be finite, got {self.smooth_c}")
        if not (0.0 < self.eps_guard < 0.5):
            raise InvalidParameterError(f"eps_guard must lie in (0, 0.5), got {self.eps_guard}")

    @property
    def is_singular(self):
        return self.alpha > 0

    def _evaluate(self, name, y):
        """The evaluator name of this potential on every entry of y; a float for a 0-d y."""
        out = SlotPotential(self.alpha, self.smooth_c, self.eps_guard)._evaluate(name, y)
        return float(out) if np.ndim(y) == 0 else out


# Each evaluator as (smooth part (c, y, 1 - y), log part (alpha, y, 1 - y)), summed log + smooth.
# The log part is formed only where alpha > 0: 0 * NaN is NaN outside (0, 1).
_TERMS = {
    "value": (lambda c, y, q: c * y * q, lambda a, y, q: a * (y * np.log(y) + q * np.log(q))),
    "d1": (lambda c, y, q: c * (1.0 - 2.0 * y), lambda a, y, q: a * np.log(y / q)),
    "d2": (lambda c, y, q: -2.0 * c, lambda a, y, q: a / (y * q)),
    "d3": (lambda c, y, q: 0.0, lambda a, y, q: a * (2.0 * y - 1.0) / (y * y * q * q)),
}


class SlotPotential(_Evaluators):
    """A potential whose coefficients alpha, c and eps_guard may differ from slot to slot.

    Each coefficient is a scalar or an (N,) array, broadcast against the
    last axis of arguments such as (m, N) level stacks. NaN anywhere raises
    InvalidArgumentError, a value outside [0, 1] on a singular slot
    (alpha > 0) raises DomainError, and singular slots are clamped.
    `interval` is the tightest guard over the singular slots ((-inf, inf)
    without any), which solver iterates keep to on every slot.
    """

    def __init__(self, alpha, c, eps_guard):
        self.alpha, self.c = np.asarray(alpha, dtype=float), np.asarray(c, dtype=float)
        singular = self.alpha > 0
        self.lo = np.where(singular, eps_guard, -np.inf)
        self.hi = np.where(singular, 1.0 - np.asarray(eps_guard, dtype=float), np.inf)
        self.interval = (self.lo.max(), self.hi.min())
        self.is_singular = bool(singular.any())
        self._log_slots = None if singular.all() else singular  # None: every slot

    @classmethod
    def on(cls, grid, pf, pg):
        """pf at the interior slots of grid and pg on its boundary cycle."""
        on_cycle = np.zeros(grid.num_nodes, dtype=bool)
        on_cycle[grid.boundary_cycle] = True
        names = ("alpha", "smooth_c", "eps_guard")
        return cls(*(np.where(on_cycle, getattr(pg, name), getattr(pf, name)) for name in names))

    def _guard(self, y):
        """The checked argument, clamped slot by slot, and the clamp count.

        A NaN makes the minimum NaN, and [min, max] inside `interval` is
        inside every slot's guard, so two reductions decide the common case.
        """
        y = np.asarray(y, dtype=float)
        y_min = y.min(initial=np.inf)
        if np.isnan(y_min):
            raise InvalidArgumentError("potential argument contains NaN")
        y_max = y.max(initial=-np.inf)
        lo, hi = self.interval
        if lo <= y_min and y_max <= hi:
            return y, 0
        singular = y if self._log_slots is None else y[..., self._log_slots]
        if singular.min(initial=np.inf) < 0.0 or singular.max(initial=-np.inf) > 1.0:
            raise DomainError("argument of a singular potential outside [0, 1]")
        outside = int(np.count_nonzero((y < self.lo) | (y > self.hi)))
        return np.clip(y, self.lo, self.hi), outside

    def _term(self, name, y, one_minus_y):
        smooth, log_part = _TERMS[name]
        out = smooth(self.c, y, one_minus_y)
        s = self._log_slots
        if s is None:
            return log_part(self.alpha, y, one_minus_y) + out
        out = np.broadcast_to(out, y.shape).copy()
        out[..., s] = log_part(self.alpha[s], y[..., s], one_minus_y[..., s]) + out[..., s]
        return out

    def _evaluate(self, name, y):
        y, _ = self._guard(y)
        return self._term(name, y, 1.0 - y)

    def newton_terms(self, y):
        """f' and f'' at one guarded argument, which share 1 - y, and its clamp count."""
        y, clamped = self._guard(y)
        one_minus_y = 1.0 - y
        return self._term("d1", y, one_minus_y), self._term("d2", y, one_minus_y), clamped
