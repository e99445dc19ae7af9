"""Exception taxonomy shared by all modules.

Three families matter for the CLI exit-code contract: malformed input,
violated mathematical preconditions, and numerical failures.

A refusal's numeric witness is a keyword field: ``raise
FlowAccuracyError(message, flow_error=e)`` sets ``exc.flow_error``. The base
class holds the only constructor, so every error pickles and copies, and a
refusal raised in a worker process reaches the caller with its witness.
"""


class LinControlError(Exception):
    """Base class for all library errors.

    Each keyword argument becomes an attribute, in the order given.
    """

    def __init__(self, message, **witnesses):
        super().__init__(message)
        vars(self).update(witnesses)


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
    """The controllability Gramian on the interval is singular; witness ``min_eigenvalue``."""


class NoCertificateError(PreconditionError):
    """A is not stable, so the Lyapunov integral diverges."""


class FiniteCostViolationError(PreconditionError):
    """The finite cost condition fails: an unstable mode escapes the input;
    witness ``bad_eigenvalue``."""


class DecayRateTooSmallError(PreconditionError):
    """The decay rate does not make the weighted Gramian converge; witness ``minimal_rate``."""


class LinearTestInapplicableError(PreconditionError):
    """The linearized system is not controllable on the interval; witness ``min_eigenvalue``."""


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
    """An iteration hit its cap before reaching the requested tolerance;
    witness ``history``, the errors per pass (empty when none are kept)."""


class EscapeTimeError(NumericalError):
    """An integrated quantity blew up before the end of the interval."""


class FlowAccuracyError(NumericalError):
    """A nonlinear flow's error estimate is not below the steering tolerance;
    witness ``flow_error``."""


class DivergenceError(NumericalError):
    """The fixed-point iterate left the trust ball; witness ``history``, the errors per pass."""
