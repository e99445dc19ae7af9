"""Exception taxonomy shared by all modules.

Three families matter for the CLI exit-code contract: malformed input,
violated mathematical preconditions, and numerical failures.
"""


class LinControlError(Exception):
    """Base class for all library errors."""


class DimensionError(LinControlError, ValueError):
    """Matrix or vector shapes are inconsistent."""


class DomainError(LinControlError, ValueError):
    """A time or grid falls outside the interval an object is defined on."""


class PreconditionError(LinControlError):
    """A mathematical precondition of an operation does not hold."""


class UncontrollableError(PreconditionError):
    """The pair (A, B) is not controllable."""


class UnobservableError(PreconditionError):
    """The pair (A, C) is not observable."""


class UncontrollableIntervalError(PreconditionError):
    """The controllability Gramian on the requested interval is singular."""

    def __init__(self, message, min_eigenvalue):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NoCertificateError(PreconditionError):
    """A is not stable, so the Lyapunov integral diverges."""


class FiniteCostViolationError(PreconditionError):
    """The finite cost condition fails: an unstable mode escapes the input."""

    def __init__(self, message, bad_eigenvalue=None):
        super().__init__(message)
        self.bad_eigenvalue = bad_eigenvalue


class DecayRateTooSmallError(PreconditionError):
    """The requested decay rate does not make the weighted Gramian converge."""

    def __init__(self, message, minimal_rate):
        super().__init__(message)
        self.minimal_rate = minimal_rate


class LinearTestInapplicableError(PreconditionError):
    """The linearized system is not controllable on the interval."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class TrustRegionError(PreconditionError):
    """Endpoints lie outside the trust ball of the steering iteration."""


class NumericalError(LinControlError):
    """A numerical procedure failed or produced inconsistent results."""


class SingularEquationError(NumericalError):
    """The linear matrix equation has no unique solution."""


class NumericalInconsistencyError(NumericalError):
    """Two routes that must agree produced different verdicts."""


class ConditioningError(NumericalError):
    """A construction lost too much accuracy to ill-conditioning."""


class ConvergenceError(NumericalError):
    """An iteration hit its cap before reaching the requested tolerance."""

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = tuple(history)


class EscapeTimeError(NumericalError):
    """An integrated quantity blew up before the end of the interval."""


class FlowAccuracyError(NumericalError):
    """A nonlinear flow's error estimate is not below the steering tolerance."""

    def __init__(self, message, flow_error):
        super().__init__(message)
        self.flow_error = flow_error


class DivergenceError(NumericalError):
    """The fixed-point iterate left the trust ball."""

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = tuple(history)
