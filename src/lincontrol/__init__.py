"""Constructive finite-dimensional linear control theory.

Controllability and observability analysis, stability certification,
pole placement and observer synthesis, finite/infinite-horizon LQR,
prescribed-decay stabilization through weighted Gramians, and local
steering of nonlinear systems via the linear test.
"""

from .errors import (
    ConditioningError,
    ConvergenceError,
    DecayRateTooSmallError,
    DimensionError,
    DivergenceError,
    DomainError,
    EscapeTimeError,
    FiniteCostViolationError,
    FlowAccuracyError,
    LinControlError,
    LinearTestInapplicableError,
    NoCertificateError,
    NumericalError,
    NumericalInconsistencyError,
    PreconditionError,
    SingularEquationError,
    TrustRegionError,
    UncontrollableError,
    UncontrollableIntervalError,
    UnobservableError,
)
from .kernels import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    eigenvalues,
    expm,
    numerical_rank,
    resolvent,
    solve_sylvester,
)
from .lqr import (
    AreSolution,
    LqrProblem,
    LqrRun,
    RiccatiSolution,
    are_solve,
    evaluate_cost,
    lqr_trajectory,
    riccati_finite,
)
from .nonlinear import (
    ReferenceTrajectory,
    SteeringResult,
    VectorField,
    equilibrium_reference,
    linearize_along,
    steer_nonlinear,
)
from .observability import (
    DetectabilityReport,
    ObservabilityReport,
    detectability_test,
    duality_check,
    observability_test,
)
from .reachability import (
    ControllabilityReport,
    GramianReport,
    HautusReport,
    KalmanDecomposition,
    controllability_gramian,
    hautus_test,
    kalman_decomposition,
    kalman_test,
    min_energy_control,
)
from .stability import (
    StabilityReport,
    lyapunov_certificate,
    lyapunov_stability_test,
    spectral_abscissa,
)
from .synthesis import (
    FeedbackGain,
    GramianStabilizer,
    MonicPolynomial,
    ObserverGain,
    ObserverLoop,
    characteristic_polynomial,
    closed_loop_observer_system,
    controller_form,
    design_observer,
    gramian_stabilizer,
    pole_place,
)
from .systems import (
    ControlSignal,
    LtiSystem,
    LtvSystem,
    Trajectory,
    simulate,
    uniform_grid,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
