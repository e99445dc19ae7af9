"""Observability, duality, and detectability.

The rank test stacks C, CA, ..., CA^{n-1}; the Gramian route takes
R_T = int_0^T e^{tA^T} C^T C e^{tA} dt. Both are computed and must agree.
Everything dualizes: (A, C) is observable iff (A^T, C^T) is controllable,
and each object here is the controllability object of (A^T, C^T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels, reachability, synthesis
from .errors import DomainError, NumericalInconsistencyError
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig
from .reachability import GramianReport
from .stability import STABILITY_MARGIN, spectral_abscissa
from .systems import LtiSystem


@dataclass(frozen=True)
class ObservabilityReport:
    observability_matrix: np.ndarray   # (n m) x n stack of C A^k
    rank: int
    observable: bool
    gramian: GramianReport


@dataclass(frozen=True)
class DetectabilityReport:
    detectable: bool
    witness_L: Optional[np.ndarray] = None


def observability_matrix(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The stack [C; CA; ...; CA^{n-1}], the transposed Kalman matrix of (A^T, C^T)."""
    return reachability.kalman_matrix(A.T, C.T).T


def observation_gramian(A, C, horizon: float,
                        cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> GramianReport:
    """R_T on [0, horizon], by duality: substituting s = horizon - t, R_T
    is the controllability Gramian of (A^T, C^T) on [0, horizon], so it
    comes from the same flow triple, Lyapunov residual and invertibility
    cutoff."""
    C = kernels.as_matrix(C, "C")
    return reachability.controllability_gramian(
        LtiSystem(kernels.require_square(A, "A").T, C.T), 0.0, horizon, cfg)


def observability_test(A, C, horizon: float = 1.0,
                       cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ObservabilityReport:
    """Rank test and R_T quadrature, cross-checked against each other."""
    A = kernels.require_square(A, "A")
    C = kernels.as_matrix(C, "C")
    if C.shape[1] != A.shape[0]:
        raise DomainError(f"C must have {A.shape[0]} columns, got {C.shape}")
    O = observability_matrix(A, C)
    rank = kernels.numerical_rank(O, cfg)
    by_rank = rank == A.shape[0]
    gram = observation_gramian(A, C, horizon, cfg)
    if by_rank != gram.invertible:
        raise NumericalInconsistencyError(
            f"rank verdict ({by_rank}) and Gramian verdict ({gram.invertible}) "
            "disagree; the pair is too ill-conditioned to classify")
    return ObservabilityReport(
        observability_matrix=O,
        rank=rank,
        observable=by_rank,
        gramian=gram,
    )


def duality_check(A, C, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Whether the observability verdict of (A, C) matches the
    controllability verdict of (A^T, C^T)."""
    A = kernels.require_square(A, "A")
    C = kernels.as_matrix(C, "C")
    obs = observability_test(A, C, 1.0, cfg).observable
    ctrl = reachability.kalman_test(LtiSystem(A.T, C.T), cfg).controllable
    return obs == ctrl


def detectability_test(A, C, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> DetectabilityReport:
    """PBH test on the closed right half plane, with an explicit witness.

    (A, C) is detectable iff (A^T, C^T) is stabilizable, i.e.
    rank [lam I - A; C] = n at every eigenvalue with Re lam >= 0. When
    detectable, a gain L with A + L C stable is synthesized on the
    observable block of the dual Kalman decomposition, in its orthonormal
    coordinates, with zero gain on the remaining (stable) modes; an
    observable pair is the case where that block is the whole state.
    The block gain is the decay-rate stabilizer of `gramian_stabilizer`
    at one unit past the block's minimal decay rate, read off the one
    Schur form of the block that the stabilizer solves with.
    """
    A = kernels.require_square(A, "A")
    C = kernels.as_matrix(C, "C")
    n = A.shape[0]
    m = C.shape[0]
    if reachability.unstabilizable_mode(A.T, C.T, cfg) is not None:
        return DetectabilityReport(detectable=False, witness_L=None)

    dual = reachability.kalman_decomposition(LtiSystem(A.T, C.T), cfg)
    r = dual.r
    L = np.zeros((n, m))
    if r > 0:
        F1 = synthesis._gramian_stabilizer(dual.A1, dual.B1, lambda minimal: minimal + 1.0,
                                           cfg).K
        L = (np.hstack([F1, np.zeros((m, n - r))]) @ dual.T.T).T
    closed = spectral_abscissa(A + L @ C)
    if closed >= -STABILITY_MARGIN:
        raise NumericalInconsistencyError(
            f"detectability witness failed: spectral abscissa of A + LC is {closed:.6g}")
    return DetectabilityReport(detectable=True, witness_L=L)
