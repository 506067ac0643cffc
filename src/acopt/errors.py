"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A constructor or operation argument violates its stated range."""


class DimensionMismatchError(ValueError):
    """Field or operator shapes are inconsistent with the grid/time axis."""


class DomainError(ValueError):
    """A potential was evaluated outside the closed unit interval."""


class InvalidArgumentError(ValueError):
    """Non-finite (NaN) input where a number is required."""


class SolverFailureError(RuntimeError):
    """A nonlinear or linear solve did not produce a usable solution.

    Carries the failing time-step index and, for Newton failures, the last
    residual norm.
    """

    def __init__(self, message, step=None, residual=None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class OptimizerStalledError(RuntimeError):
    """The optimizer cannot descend: its start cost is not finite, or the line
    search exhausted its backtracking budget.

    The current iterate and the history collected so far are attached so
    diagnostics can still be emitted.
    """

    def __init__(self, message, control=None, history=None):
        super().__init__(message)
        self.control = control
        self.history = history


class ConfigError(ValueError):
    """A run configuration file is malformed or violates an assumption."""


class BoundsViolationWarning(UserWarning):
    """A state solve clamped potential arguments, signalling a bounds issue."""
