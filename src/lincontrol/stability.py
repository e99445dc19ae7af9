"""Stability verdicts via the spectral abscissa and Lyapunov certificates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import NoCertificateError, NumericalInconsistencyError, PreconditionError
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig

# omega < -STABILITY_MARGIN declares stable; |omega| <= STABILITY_MARGIN is
# flagged marginal and reported unstable.
STABILITY_MARGIN = 1e-9


@dataclass(frozen=True)
class StabilityReport:
    omega: float
    stable: bool
    marginal: bool = False
    lyapunov_Q: Optional[np.ndarray] = None
    residual: Optional[float] = None


def spectral_abscissa(A) -> float:
    """Largest real part over the eigenvalues of A."""
    return float(np.max(kernels.eigenvalues(A).real))


def stability_report(A) -> StabilityReport:
    omega = spectral_abscissa(A)
    return StabilityReport(
        omega=omega,
        stable=omega < -STABILITY_MARGIN,
        marginal=abs(omega) <= STABILITY_MARGIN,
    )


def lyapunov_certificate(A, R, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> StabilityReport:
    """Unique symmetric solution Q of A^T Q + Q A = -R for stable A.

    Q equals int_0^inf e^{tA^T} R e^{tA} dt, so it inherits (semi)
    definiteness from R; here it is produced by the Bartels-Stewart
    solve, with the integral kept as an independent test oracle. One
    real Schur form of A^T gives both the stability verdict (its
    eigenvalues) and the solve (`kernels.solve_lyapunov`).
    """
    A = kernels.require_square(A, "A")
    R = kernels.require_square(R, "R")
    if not kernels.is_symmetric(R, 1e-10):
        raise ValueError("R must be symmetric")
    schur = kernels.real_schur(A.T)
    omega = float(np.max(schur.eigenvalues.real))
    if not omega < -STABILITY_MARGIN:
        raise NoCertificateError(
            f"A is not stable (spectral abscissa {omega:.6g}); "
            "the Lyapunov integral diverges")
    Q = kernels.solve_lyapunov(schur, -R, cfg)
    Q = 0.5 * (Q + Q.T)
    residual = kernels._scaled_norm(A.T @ Q + Q @ A + R)
    return StabilityReport(
        omega=omega,
        stable=True,
        marginal=False,
        lyapunov_Q=Q,
        residual=residual,
    )


def lyapunov_stability_test(A, C, Q_candidate,
                            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Certificate check: observable (A, C) plus a PSD solution of
    A^T Q + Q A = -C^T C implies A is stable.

    Returns True iff Q_candidate satisfies the equation to residual
    tolerance, ||A^T Q + Q A + C^T C|| <= residual_tol (1 + ||C^T C||) in
    scaled Frobenius norms (`kernels._scaled_norm`); a satisfied equation
    with an unstable A is reported as a numerical inconsistency since the
    two verdicts cannot disagree.
    """
    from .observability import observability_test  # deferred, avoids an import cycle

    A = kernels.require_square(A, "A")
    C = kernels.as_matrix(C, "C")
    Q = kernels.require_square(Q_candidate, "Q_candidate")
    if not kernels.is_symmetric(Q, 1e-10):
        raise PreconditionError("Q_candidate must be symmetric")
    eigs = np.linalg.eigvalsh(Q)  # ||Q||_2 is the largest |eigenvalue|
    if eigs[0] < -1e-10 * (1.0 + max(-eigs[0], eigs[-1])):
        raise PreconditionError("Q_candidate must be positive semidefinite")
    if not observability_test(A, C, 1.0, cfg).observable:
        raise PreconditionError("(A, C) must be observable")
    R = C.T @ C
    # scaled norms: a residual that overflows is not finite and never accepted
    with np.errstate(over="ignore", invalid="ignore"):
        residual = kernels._scaled_norm(A.T @ Q + Q @ A + R)
    ok = math.isfinite(residual) and residual <= cfg.residual_tol * (1.0 + kernels._scaled_norm(R))
    stable = spectral_abscissa(A) < -STABILITY_MARGIN
    if ok and not stable:
        raise NumericalInconsistencyError(
            "PSD Lyapunov solution found for an unstable matrix with "
            "observable output; verdicts disagree")
    return ok and stable
