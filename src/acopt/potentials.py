"""Double-well potentials with a logarithmic singular part.

The potential splits as a convex singular part
alpha * (y log y + (1-y) log(1-y)) plus a smooth concave part
c * y * (1-y). With alpha > 0 the first derivative blows up at 0 and 1,
which is what confines solution values to the open unit interval. Setting
alpha = 0 selects the purely quadratic variant used by linear-quadratic
cross checks; in that case there is no singularity and no argument
safeguarding.

`value`, `d1`, `d2` and `d3` are the evaluators: each clamps arguments
of a singular potential to [eps_guard, 1 - eps_guard], and a scalar
argument gives a float. `newton_terms` checks and clamps an argument
once, returns both the first and second derivative there and reports how
many entries it clamped: the state solver's residual and its next Newton
Jacobian share that one guarded evaluation. Solvers keep their iterates
inside the guarded interval, so a nonzero count after a solve flags a
discretization problem rather than normal operation.
Potentials hold only their coefficients: they are immutable, hashable and
safe to share, pickle and copy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, InvalidParameterError


@dataclass(frozen=True)
class Potential:
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

    def _prepare(self, y):
        """Checked argument, clamped into the guarded interval, and the clamp count.

        One min and one max reduction decide every check: a NaN anywhere
        makes the minimum NaN, and the entries are counted and clipped
        only when [min, max] leaves the guarded interval.
        """
        y = np.asarray(y, dtype=float)
        y_min = y.min(initial=np.inf)
        if np.isnan(y_min):
            raise InvalidArgumentError("potential argument contains NaN")
        if not self.is_singular:
            return y, 0
        y_max = y.max(initial=-np.inf)
        if y_min < 0.0 or y_max > 1.0:
            raise DomainError("argument of a singular potential outside [0, 1]")
        lo, hi = self.eps_guard, 1.0 - self.eps_guard
        if lo <= y_min and y_max <= hi:
            return y, 0
        outside = int(np.count_nonzero((y < lo) | (y > hi)))
        return np.clip(y, lo, hi), outside

    @staticmethod
    def _output(y, out):
        """A float for a 0-d argument, the array otherwise."""
        return float(out) if y.ndim == 0 else out

    def _first(self, y, one_minus_y):
        smooth = self.smooth_c * (1.0 - 2.0 * y)
        if self.alpha == 0.0:
            return smooth
        return self.alpha * np.log(y / one_minus_y) + smooth

    def _second(self, y, one_minus_y):
        a, c = self.alpha, self.smooth_c
        return a / (y * one_minus_y) - 2.0 * c if a else np.full_like(y, -2.0 * c)

    def value(self, y):
        y, _ = self._prepare(y)
        a, c = self.alpha, self.smooth_c
        out = c * y * (1.0 - y)
        if a:
            out = a * (y * np.log(y) + (1.0 - y) * np.log(1.0 - y)) + out
        return self._output(y, out)

    def d1(self, y):
        y, _ = self._prepare(y)
        return self._output(y, self._first(y, 1.0 - y))

    def d2(self, y):
        y, _ = self._prepare(y)
        return self._output(y, self._second(y, 1.0 - y))

    def d3(self, y):
        y, _ = self._prepare(y)
        a = self.alpha
        out = a * (2.0 * y - 1.0) / (y * y * (1.0 - y) * (1.0 - y)) if a else np.zeros_like(y)
        return self._output(y, out)


def newton_terms(p, y):
    """First and second derivative at one checked argument, and the clamp count.

    One guard and one clip serve both derivatives, which share 1 - y; the
    values equal p.d1(y) and p.d2(y) bit for bit. A Newton residual needs
    the first derivative at a candidate and the next Jacobian the second
    derivative at the same point.
    """
    yv, clamped = p._prepare(y)
    one_minus_y = 1.0 - yv
    return p._first(yv, one_minus_y), p._second(yv, one_minus_y), clamped
