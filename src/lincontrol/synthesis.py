"""Feedback and observer synthesis.

Covers the companion (controller) form of a single-input pair, pole
placement for single and multiple inputs, observer gains by duality, the
coupled plant/observer loop, and stabilization with a prescribed decay
rate through the weighted reachability Gramian.

Characteristic polynomials follow the sign convention

    chi_A(s) = s^n - a_n s^{n-1} - ... - a_2 s - a_1,

so the stored coefficients (a_1, ..., a_n) enter with a minus sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels, reachability
from .errors import (
    ConditioningError,
    DecayRateTooSmallError,
    DimensionError,
    NumericalError,
    NumericalInconsistencyError,
    UncontrollableError,
    UnobservableError,
)
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig
from .stability import spectral_abscissa
from .systems import LtiSystem, Trajectory, simulate

# Coefficient agreement demanded of every synthesized gain, relative to
# the target coefficients. Companion-basis transforms on random systems
# carry conditioning error well above machine precision, so this sits at
# the acceptance-grade level rather than at residual_tol.
PLACEMENT_TOL = 1e-6


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial s^n - a_n s^{n-1} - ... - a_1 stored by (a_1..a_n)."""

    degree: int
    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float).reshape(-1)
        if alphas.size != self.degree:
            raise DimensionError(
                f"need {self.degree} coefficients, got {alphas.size}")
        if alphas.size and not np.all(np.isfinite(alphas)):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "alphas", alphas)

    @classmethod
    def from_roots(cls, roots: Sequence[complex]) -> "MonicPolynomial":
        """Expand product(s - r). Non-real roots must come in conjugate pairs."""
        roots = np.asarray(roots, dtype=complex)
        coeffs = np.poly(roots)
        if np.max(np.abs(coeffs.imag)) > 1e-9 * (1.0 + np.max(np.abs(coeffs.real))):
            raise ValueError("roots must be closed under conjugation")
        return cls.from_monic_coefficients(coeffs.real)

    @classmethod
    def from_monic_coefficients(cls, coeffs) -> "MonicPolynomial":
        """From descending-power coefficients [1, c_{n-1}, ..., c_0]."""
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        if abs(coeffs[0] - 1.0) > 1e-12:
            raise ValueError("polynomial must be monic")
        n = coeffs.size - 1
        alphas = -coeffs[1:][::-1]
        return cls(degree=n, alphas=alphas)

    def monic_coefficients(self) -> np.ndarray:
        """Descending-power coefficients [1, c_{n-1}, ..., c_0]."""
        return np.concatenate([[1.0], -self.alphas[::-1]])

    def roots(self) -> np.ndarray:
        return np.roots(self.monic_coefficients())


@dataclass(frozen=True)
class FeedbackGain:
    F: np.ndarray
    achieved_spectrum: np.ndarray
    residual: float


@dataclass(frozen=True)
class ObserverGain:
    L: np.ndarray
    closed_loop_abscissa: float


@dataclass(frozen=True)
class ControllerForm:
    A_sharp: np.ndarray
    b_sharp: np.ndarray
    T: np.ndarray
    T_inv: np.ndarray


@dataclass(frozen=True)
class GramianStabilizer:
    decay_rate: float
    Q: np.ndarray
    P: np.ndarray
    K: np.ndarray
    riccati_residual: float
    closed_loop_abscissa: float


def characteristic_polynomial(A) -> MonicPolynomial:
    """chi_A recovered by expanding the eigenvalues of A."""
    return _expand(kernels.eigenvalues(kernels.require_square(A, "A")))


def _expand(eigs: np.ndarray) -> MonicPolynomial:
    """The monic polynomial with the roots eigs, a spectrum of a real matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.poly(eigs)
    if not np.all(np.isfinite(coeffs)):
        raise ConditioningError("characteristic polynomial coefficients overflow")
    scale = 1.0 + np.max(np.abs(coeffs.real))
    if np.max(np.abs(coeffs.imag)) > 1e-9 * scale:
        raise NumericalError("eigenvalue expansion left an imaginary residue")
    return MonicPolynomial.from_monic_coefficients(coeffs.real)


def controller_form(A, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ControllerForm:
    """Similarity onto the companion realization (A#, e_n) of a single-input
    pair, which is decided controllable here (`_companion_similarity`)."""
    A = kernels.require_square(A, "A")
    b = kernels.as_state(b, A.shape[0], "b")
    reachability.require_controllable(A, b[:, None], cfg)
    return _companion_similarity(A, b)


def _companion_similarity(A: np.ndarray, b: np.ndarray) -> ControllerForm:
    """`controller_form` of a pair already decided controllable:
    T = K(A, b) K(A#, b#)^{-1} built from the two Krylov matrices, so
    T^{-1} A T = A# and T^{-1} b = b#. Both identities are verified to
    1e-8 before returning."""
    n = A.shape[0]
    # the companion matrix: superdiagonal ones and last row (a_1 ... a_n)
    A_sharp = np.eye(n, k=1)
    A_sharp[-1] = characteristic_polynomial(A).alphas
    b_sharp = np.eye(n)[-1]
    T = reachability.kalman_matrix(A, b[:, None]) @ np.linalg.inv(
        reachability.kalman_matrix(A_sharp, b_sharp[:, None]))
    T_inv = np.linalg.inv(T)
    scale = 1.0 + np.abs(A).max()
    err = max(
        np.abs(T_inv @ A @ T - A_sharp).max(),
        np.abs(T_inv @ b - b_sharp).max(),
    )
    if err > 1e-8 * scale:
        raise ConditioningError(
            f"controller-form similarity verified only to {err:.3e}")
    return ControllerForm(A_sharp=A_sharp, b_sharp=b_sharp, T=T, T_inv=T_inv)


def _heymann_chain(A: np.ndarray, B: np.ndarray, v: np.ndarray):
    """Chain x_1 = Bv, x_{i+1} = A x_i + B u_i spanning R^n, greedy over
    the columns of B (then u = 0), accepting the first candidate that
    extends the span."""
    n, p = B.shape
    x1 = B @ v
    X = [x1]
    Q = [x1 / np.linalg.norm(x1)]
    U = []
    candidates = [np.eye(p)[:, j] for j in range(p)] + [np.zeros(p)]
    while len(X) < n:
        extended = False
        for u in candidates:
            c = A @ X[-1] + B @ u
            res = c - sum((q @ c) * q for q in Q)
            if np.linalg.norm(res) > 1e-8 * (1.0 + np.linalg.norm(c)):
                X.append(c)
                Q.append(res / np.linalg.norm(res))
                U.append(u)
                extended = True
                break
        if not extended:
            raise ConditioningError(
                f"independence chain stalled at length {len(X)} < {n}")
    U.append(np.zeros(p))  # the last chain vector gets zero feedback
    return np.column_stack(X), np.column_stack(U)


def pole_place(A, B, target: MonicPolynomial,
               cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FeedbackGain:
    """Gain F with chi_{A + B F} equal to the target polynomial.

    Single input goes through the controller form, which decides the
    pair. Several inputs are decided here, and a preliminary gain F1 built
    on an independence chain reduces to the single-input problem for
    (A + B F1, Bv); the result is F = F1 + v f. A reduced pair that fails
    the gate is refused with ConditioningError: that pair was built here,
    not given. Coefficients expanded from the achieved spectrum are
    verified against the target to PLACEMENT_TOL relative accuracy.
    """
    A = kernels.require_square(A, "A")
    B = kernels.as_matrix(B, "B")
    n, p = B.shape
    if target.degree != n:
        raise DimensionError(f"target degree {target.degree} must equal n={n}")
    # an overflow shows as a non-finite closed loop and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        F1, v = np.zeros((1, n)), np.ones(1)  # one input: the pair itself
        if p == 1:
            form = controller_form(A, B @ v, cfg)
        else:
            reachability.require_controllable(A, B, cfg)
            norms = np.linalg.norm(B, axis=0)
            good = np.nonzero(norms > 1e-12 * (1.0 + norms.max()))[0]
            v = np.eye(p)[:, good[0]]
            X, U = _heymann_chain(A, B, v)
            F1 = U @ np.linalg.inv(X)
            A1, b1 = A + B @ F1, B @ v
            if not reachability.is_controllable(A1, b1[:, None], cfg):
                raise ConditioningError("the single-input reduction (A + B F1, B v) "
                                        "lost controllability to rounding")
            form = _companion_similarity(A1, b1)
        # A# + b# f# replaces the last row (a_k) by the target row exactly.
        F = F1 + np.outer(v, (target.alphas - form.A_sharp[-1]) @ form.T_inv)
        closed = A + B @ F
    if not np.all(np.isfinite(closed)):
        raise ConditioningError("placed closed loop A + B F overflows")
    eigs = kernels.eigenvalues(closed)  # real on a real spectrum, stored as complex
    residual = float(np.max(np.abs(_expand(eigs).alphas - target.alphas)
                            / (1.0 + np.abs(target.alphas))))
    if residual > PLACEMENT_TOL:
        raise ConditioningError(
            f"placement residual {residual:.3e} exceeds {PLACEMENT_TOL:.0e}")
    return FeedbackGain(F=F, achieved_spectrum=eigs.astype(complex), residual=residual)


def design_observer(A, C, target: MonicPolynomial,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ObserverGain:
    """Output-injection gain L with chi_{A + L C} = target, by duality: the
    transposed gain of `pole_place` on (A^T, C^T), whose gate and placed
    spectrum, that of (A + L C)^T, are the observer's."""
    A = kernels.require_square(A, "A")
    C = kernels.as_matrix(C, "C")
    try:
        dual = pole_place(A.T, C.T, target, cfg)
    except UncontrollableError:
        raise UnobservableError("(A, C) is not observable") from None
    return ObserverGain(L=dual.F.T, closed_loop_abscissa=float(max(dual.achieved_spectrum.real)))


@dataclass(frozen=True)
class ObserverLoop:
    """Plant and observer coupled through u = K xhat.

    In coordinates (x, e) with e = xhat - x the dynamics are block upper
    triangular, so the loop spectrum is eig(A + BK) united with
    eig(A + LC).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    K: np.ndarray
    L: np.ndarray
    augmented: np.ndarray

    def simulate(self, x0, xhat0, grid,
                 cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        """Returns (trajectory of x with controls u = K xhat, xhat samples)."""
        n = self.A.shape[0]
        x0 = kernels.as_state(x0, n, "x0")
        xhat0 = kernels.as_state(xhat0, n, "xhat0")
        z0 = np.concatenate([x0, xhat0 - x0])
        aug_sys = LtiSystem(self.augmented, np.zeros((2 * n, 1)))
        traj = simulate(aug_sys, z0, None, grid, cfg)
        x = traj.states[:, :n]
        xhat = x + traj.states[:, n:]
        u = xhat @ self.K.T
        return Trajectory(grid=traj.grid, states=x, controls=u), xhat


def closed_loop_observer_system(A, B, C, K, L) -> ObserverLoop:
    """Assemble the 2n x 2n loop matrix in (x, e) coordinates."""
    A = kernels.require_square(A, "A")
    B = kernels.as_matrix(B, "B")
    C = kernels.as_matrix(C, "C")
    K = kernels.as_matrix(K, "K")
    L = kernels.as_matrix(L, "L")
    n, p = B.shape
    m = C.shape[0]
    if A.shape[0] != n or C.shape[1] != n:
        raise DimensionError("A, B, C dimensions are inconsistent")
    if K.shape != (p, n):
        raise DimensionError(f"K must have shape {(p, n)}, got {K.shape}")
    if L.shape != (n, m):
        raise DimensionError(f"L must have shape {(n, m)}, got {L.shape}")
    top = np.hstack([A + B @ K, B @ K])
    bottom = np.hstack([np.zeros((n, n)), A + L @ C])
    return ObserverLoop(A=A, B=B, C=C, K=K, L=L,
                        augmented=np.vstack([top, bottom]))


def minimal_decay_rate(A) -> float:
    """Smallest admissible rate for the weighted Gramian, plus margin."""
    return _decay_floor(kernels.eigenvalues(A))


def _decay_floor(eigs: np.ndarray) -> float:
    """max(0, -min Re lambda) + 1e-6 over the eigenvalues lambda of A: the
    spectral abscissa of -A, floored at 0, plus margin."""
    return max(0.0, -float(np.min(eigs.real))) + 1e-6


def gramian_stabilizer(A, B, decay_rate: float,
                       cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> GramianStabilizer:
    """Feedback K = -B^T Q^{-1} forcing ||x(t)|| <= c e^{-decay_rate t}.

    Q is the weighted reachability Gramian
    int_0^inf e^{-2 lam t} e^{-tA} B B^T e^{-tA^T} dt, obtained here from
    its exact algebraic identity (A + lam I) Q + Q (A + lam I)^T = B B^T
    rather than by improper integration; the integral stays available as
    a test oracle. One real Schur form of A gives the minimal admissible
    rate (its eigenvalues) and, shifted by lam, the solve
    (`kernels.solve_lyapunov`); the closed-loop abscissa is an
    independent eigenvalue computation. P = Q^{-1} satisfies
    P A + A^T P + 2 lam P - P B B^T P = 0.
    """
    A = kernels.require_square(A, "A")
    B = kernels.as_matrix(B, "B")
    reachability.require_controllable(A, B, cfg)
    return _gramian_stabilizer(A, B, lambda minimal: decay_rate, cfg)


def _gramian_stabilizer(A: np.ndarray, B: np.ndarray, rate_for: Callable[[float], float],
                        cfg: ToleranceConfig) -> GramianStabilizer:
    """`gramian_stabilizer` on a pair already decided controllable, at the
    rate rate_for(minimal), where minimal is the minimal admissible rate
    read off the Schur form of A that the solve uses (A is factored once)."""
    n = A.shape[0]
    schur = kernels.real_schur(A)
    minimal = _decay_floor(schur.eigenvalues)
    decay_rate = rate_for(minimal)
    if not decay_rate > 0.0 or decay_rate < minimal:
        raise DecayRateTooSmallError(
            f"decay rate {decay_rate} does not make the weighted Gramian "
            f"converge; minimal admissible rate is {minimal:.8g}",
            minimal_rate=minimal)
    with np.errstate(over="ignore", invalid="ignore"):
        BBt = B @ B.T
    if not np.isfinite(BBt).all():
        raise ConditioningError("B B^T overflows")
    Q = kernels.solve_lyapunov(schur.shifted(decay_rate), BBt, cfg)
    Q = 0.5 * (Q + Q.T)
    cond = np.linalg.cond(Q)
    if not np.isfinite(cond) or cond > 1e14:
        raise ConditioningError(f"Gramian numerically singular (cond {cond:.3e})")
    P = np.linalg.solve(Q, np.eye(n))
    P = 0.5 * (P + P.T)
    K = -B.T @ P
    norm = kernels._scaled_norm
    # the identity divided through by p = ||P||, so that ||PB||^2 = p^2 ||PB / p||^2
    # stays finite while P does; terms that overflow leave a residual that
    # is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        p = norm(P)
        Pp = P / p
        PA, PB = Pp @ A, Pp @ B
        lhs = PA + PA.T + 2.0 * decay_rate * Pp - p * (PB @ PB.T)
        nPB = norm(PB)
        residual = norm(lhs) / (norm(PA) + 2.0 * decay_rate * norm(Pp) + p * nPB * nPB)
    if not residual <= 1e-6:
        raise ConditioningError(
            f"Riccati identity residual {residual:.3e} is too large")
    closed = spectral_abscissa(A + B @ K)
    if closed > -decay_rate + 1e-6:
        raise NumericalInconsistencyError(
            f"closed-loop abscissa {closed:.6g} misses the prescribed "
            f"decay rate {decay_rate}")
    return GramianStabilizer(
        decay_rate=decay_rate,
        Q=Q,
        P=P,
        K=K,
        riccati_residual=residual,
        closed_loop_abscissa=closed,
    )
