"""Controllability analysis and minimum-energy steering.

Implements the rank test on M = [B, AB, ..., A^{n-1}B], the eigenvalue
(PBH) test, the controllability Gramian

    Gc = int_{t0}^{t1} R(t1, s) B(s) B(s)^T R(t1, s)^T ds,

the Gramian-inverse minimum-energy control, and the orthogonal
decomposition into controllable and uncontrollable blocks.

For a constant system the Gramian is the Lyapunov flow
W' = A W + W A^T + B B^T from W(0) = 0, the Riccati flow with no
quadratic term, so it is read off the doubled flow triple of
`kernels._flow_triple`, with no quadrature error and in O(n^2) memory,
and certified by its Lyapunov identity. The steering adjoint
R(t1, s)^T z is built at Simpson nodes by doubling on the vector, and its
control B^T w is the Hermite dense output of its own samples. A
time-varying system's Gramian is that flow by one Magnus step a node gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import kernels
from .errors import (
    ConditioningError,
    DimensionError,
    DomainError,
    NumericalError,
    NumericalInconsistencyError,
    UncontrollableIntervalError,
)
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig
from .stability import STABILITY_MARGIN
from .systems import ControlSignal, LtiSystem, LtvSystem

# Bound on the Lyapunov identity A G + G A^T + B B^T = R B B^T R^T of a
# constant-coefficient Gramian G with R = R(t1, t0), relative to the size
# of its four terms.
LYAPUNOV_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ControllabilityReport:
    kalman_matrix: np.ndarray
    rank: int
    controllable: bool
    reachable_basis: np.ndarray      # n x r, orthonormal columns
    unreachable_basis: np.ndarray    # n x (n - r), orthonormal columns


@dataclass(frozen=True)
class HautusRecord:
    eigenvalue: complex
    rank: int
    passed: bool


@dataclass(frozen=True)
class HautusReport:
    records: tuple

    @property
    def controllable(self) -> bool:
        return all(r.passed for r in self.records)


@dataclass(frozen=True)
class GramianReport:
    gramian: np.ndarray
    interval: tuple
    min_eigenvalue: float
    invertible: bool
    residual: Optional[float] = None   # Lyapunov identity; None for an LtvSystem


@dataclass(frozen=True)
class KalmanDecomposition:
    T: np.ndarray    # orthogonal change of coordinates
    r: int
    A1: np.ndarray   # r x r, controllable block
    A2: np.ndarray   # r x (n - r) coupling
    A3: np.ndarray   # (n - r) x (n - r), uncontrollable block
    B1: np.ndarray   # r x p


def kalman_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Horizontal stack [B, AB, ..., A^{n-1}B] built by repeated products.

    A stack that overflows is refused (`ConditioningError`), without a
    floating-point warning.
    """
    n = A.shape[0]
    blocks = [B]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n - 1):
            blocks.append(A @ blocks[-1])
    M = np.hstack(blocks)
    if not np.isfinite(M).all():
        raise ConditioningError("Kalman matrix [B, AB, ..., A^{n-1}B] overflows")
    return M


def is_controllable(A: np.ndarray, B: np.ndarray,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """The controllability gate: rank [B, AB, ..., A^{n-1}B] = n."""
    return kernels.numerical_rank(kalman_matrix(A, B), cfg) == A.shape[0]


def _range_split(M: np.ndarray, cfg: ToleranceConfig):
    """Rank and orthonormal bases of range(M) and its complement via SVD."""
    U, s, _ = np.linalg.svd(M)
    r = kernels.rank_of_singular_values(s, M.shape, cfg)
    reachable = kernels.sign_normalize_columns(U[:, :r])
    unreachable = kernels.sign_normalize_columns(U[:, r:])
    return r, reachable, unreachable


def kalman_test(sys: LtiSystem, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ControllabilityReport:
    """Rank test: (A, B) is controllable iff rank M = n."""
    M = kalman_matrix(sys.A, sys.B)
    r, reach, unreach = _range_split(M, cfg)
    return ControllabilityReport(
        kalman_matrix=M,
        rank=r,
        controllable=(r == sys.n),
        reachable_basis=reach,
        unreachable_basis=unreach,
    )


def hautus_rank_at(A: np.ndarray, B: np.ndarray, lam: complex,
                   cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Rank of the n x (n + p) matrix [lam I - A, B] for real A, B.

    The matrix is complex for a non-real lam and real otherwise; either
    way its singular values are counted against the cutoff of
    `kernels.rank_of_singular_values` for its own shape.
    """
    lam = complex(lam)
    M = np.hstack([(lam if lam.imag else lam.real) * np.eye(A.shape[0]) - A, B])
    return kernels.rank_of_singular_values(np.linalg.svd(M, compute_uv=False), M.shape, cfg)


def hautus_test(sys: LtiSystem, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> HautusReport:
    """Eigenvalue test: rank [lam I - A, B] = n at every eigenvalue of A."""
    records = []
    for lam in kernels.eigenvalues(sys.A):
        rank = hautus_rank_at(sys.A, sys.B, complex(lam), cfg)
        records.append(HautusRecord(complex(lam), rank, rank == sys.n))
    return HautusReport(records=tuple(records))


def unstabilizable_mode(A: np.ndarray, B: np.ndarray,
                        cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Optional[complex]:
    """PBH test on the closed right half plane.

    Returns the first eigenvalue lam of A with Re lam >= -STABILITY_MARGIN
    at which rank [lam I - A, B] < n, or None when (A, B) is
    stabilizable. Stable eigenvalues are not evaluated.
    """
    for lam in kernels.eigenvalues(A):
        if (lam.real >= -STABILITY_MARGIN
                and hautus_rank_at(A, B, complex(lam), cfg) < A.shape[0]):
            return complex(lam)
    return None


def _transition_samples(sys: LtvSystem, t0: float, t1: float, cfg: ToleranceConfig):
    """(nodes, E, A_at, G): E(s) = R(t1, s) and A(s) on the Simpson nodes
    of [t0, t1], and the Gramian. Each gap, of step (t1 - t0) / m, takes
    one Magnus step Phi of H = [[-A^T, 0], [B B^T, A]], the linear system
    of the Lyapunov flow W' = A W + W A^T + B B^T: Phi22 is the step
    transition and S = Phi21 Phi22^T the step Gramian, so from E_m = I,
    E_k = E_{k+1} Phi22 and G = sum_k E_{k+1} S_k E_{k+1}^T. The suffix
    products E_k are the states of `kernels.affine_states` on the
    transposed steps, PATH_CHUNK gaps at a time. Stacks over
    MAX_PATH_ENTRIES are refused first (`kernels.check_path_entries`).
    """
    kernels.check_within(t0, t1, sys.t0, sys.t1, "Gramian")
    m = kernels.simpson_intervals(t1 - t0, cfg.ode_step)
    n = sys.n
    kernels.check_path_entries(
        (4 * m + 2) * n * n, f"the Magnus stacks of {kernels.count_text(m)} node gaps at n = {n}")
    h = (t1 - t0) / m
    nodes = np.linspace(t0, t1, m + 1)
    times = nodes[:-1, None] + h * kernels.GAUSS
    A_at = kernels.sample_at(sys.A_of, nodes)
    Phi22, S = np.empty((m, n, n)), np.empty((m, n, n))
    for lo in range(0, m, kernels.PATH_CHUNK):  # (2n, 2n) steps of a few hundred gaps at a time
        sl = slice(lo, lo + kernels.PATH_CHUNK)
        A, B = kernels.sample_at(sys.A_of, times[sl]), kernels.sample_at(sys.B_of, times[sl])
        H = np.block([[-A.swapaxes(-1, -2), np.zeros_like(A)], [B @ B.swapaxes(-1, -2), A]])
        Phi, _ = kernels._magnus_step_maps(H, None, np.full(len(H), h))
        Phi22[sl], S[sl] = Phi[:, n:, n:], Phi[:, n:, :n] @ Phi[:, n:, n:].swapaxes(-1, -2)
    # Et[j] = E_{m-j}^T: E_k = E_{k+1} Phi22_k is Et[j + 1] = Phi22_{m-1-j}^T Et[j]
    Et, Mt = np.empty((m + 1, n, n)), Phi22[::-1].swapaxes(-1, -2)
    Et[0] = np.eye(n)
    for lo in range(0, m, kernels.PATH_CHUNK):
        Et[lo:lo + kernels.PATH_CHUNK + 1] = kernels.affine_states(
            Mt[lo:lo + kernels.PATH_CHUNK], None, Et[lo])
    E = Et[::-1].swapaxes(-1, -2)
    G = (E[1:] @ S @ E[1:].swapaxes(-1, -2)).sum(axis=0)
    return nodes, E, A_at, G


def gramian_invertibility_cutoff(G: np.ndarray,
                                 cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Invertibility threshold for a PSD Gramian.

    Gramian eigenvalues sit on the energy scale, the square of the rank
    test's singular-value scale, so the cutoff is (rank_rtol * dim)^2
    with a floor of a few machine epsilons; anything smaller cannot be
    distinguished from quadrature rounding either way.
    """
    return _cutoff(float(np.linalg.norm(G, 2)), max(G.shape), cfg)


def _cutoff(norm: float, dim: int, cfg: ToleranceConfig) -> float:
    """`gramian_invertibility_cutoff` of a Gramian of size dim and 2-norm norm."""
    floor = max((cfg.rank_rtol * dim) ** 2, 4.0 * np.finfo(float).eps)
    return floor * (1.0 + norm)


class _Quadrature(NamedTuple):
    """The Gramian on [t0, t1] and what steering reads off its quadrature."""

    report: GramianReport
    transition: np.ndarray   # R(t1, t0)
    adjoint: Callable        # z -> dense output of w(s) = R(t1, s)^T z


def _gramian(sys: Union[LtiSystem, LtvSystem], t0: float, t1: float,
             cfg: ToleranceConfig) -> _Quadrature:
    """The Gramian on [t0, t1], R(t1, t0), and the steering adjoint.

    For an LtiSystem, G is the Lyapunov flow W' = A W + W A^T + B B^T,
    W(0) = 0, over t1 - t0, so `kernels._flow_triple(A^T, 0, B B^T,
    t1 - t0, 0)` returns (R(t1, t0)^T, 0, G), with no quadrature error
    and no dependence on cfg.ode_step; `report.residual` is its Lyapunov
    identity (LYAPUNOV_RESIDUAL_TOL). `adjoint(z)` takes E = e^{hA} on the
    Simpson nodes of step h = (t1 - t0) / m and builds the rows z^T E^j
    there by doubling, v_{K+j} = v_j E^K, refused first (`DomainError`)
    over MAX_PATH_ENTRIES entries. For an LtvSystem, G and the
    adjoint samples come from the Magnus steps of `_transition_samples`,
    and the residual is None. Both adjoints are cubic-Hermite dense output
    with slope -w A(s), made a control by `_steering`. A B B^T, G or
    R(t1, t0) that overflows is refused (`NumericalError`), without a
    floating-point warning.
    """
    if not t0 < t1:
        raise DomainError(f"need t0 < t1, got [{t0}, {t1}]")
    m = kernels.simpson_intervals(t1 - t0, cfg.ode_step)
    h = (t1 - t0) / m
    overflow = NumericalError(
        f"controllability Gramian on [{t0}, {t1}] overflows: the "
        "transition matrix or the quadrature sum is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(sys, LtiSystem):
            A, BBt = sys.A, sys.B @ sys.B.T
            if not np.isfinite(BBt).all():
                raise overflow
            zero = np.zeros_like(A)
            alpha, _, G = kernels._flow_triple(A.T, zero, BBt, t1 - t0, zero)
            R10 = alpha.T

            def adjoint(z):
                kernels.check_path_entries(
                    (m + 1) * z.size, f"the adjoint's {kernels.count_text(m + 1)} node rows")
                V, P = z[None], kernels.expm(h * A)   # V[j] = z^T E^j, P = E^len(V)
                while len(V) <= m:
                    V = np.concatenate([V, V[:m + 1 - len(V)] @ P])
                    if len(V) <= m:
                        P = P @ P
                w = np.ascontiguousarray(V[::-1])   # contiguous rows interpolate faster
                return kernels.SampledMatrixFunction(t0, h, w, -(w @ A))
        else:
            _, E, A_at, G = _transition_samples(sys, t0, t1, cfg)
            R10 = E[0]

            def adjoint(z):
                w = z @ E
                return kernels.SampledMatrixFunction(t0, h, w, -(w[:, None] @ A_at)[:, 0])
        G = 0.5 * (G + G.T)
        if not (np.isfinite(G).all() and np.isfinite(R10).all()):
            raise overflow
        residual = _lyapunov_residual(A, BBt, G, R10) if isinstance(sys, LtiSystem) else None
    if residual is not None and not residual <= LYAPUNOV_RESIDUAL_TOL:
        raise NumericalInconsistencyError(
            f"controllability Gramian on [{t0}, {t1}] misses the Lyapunov identity "
            f"A G + G A^T + B B^T = R B B^T R^T by {residual:.3e} of its terms "
            f"(bound {LYAPUNOV_RESIDUAL_TOL:.0e})")
    eigs = np.linalg.eigvalsh(G)
    min_eig = float(eigs[0])
    # ||G||_2 is the largest |eigenvalue|, with no SVD of its own
    cutoff = _cutoff(float(max(-eigs[0], eigs[-1])), G.shape[0], cfg)
    report = GramianReport(
        gramian=G,
        interval=(t0, t1),
        min_eigenvalue=min_eig,
        invertible=min_eig > cutoff,
        residual=residual,
    )
    return _Quadrature(report, R10, adjoint)


def _lyapunov_residual(A, BBt, G, R10) -> float:
    """||A G + G A^T + B B^T - R B B^T R^T|| relative to the sum of the
    norms of its four terms (0 when all vanish), every norm scaled
    (`kernels._scaled_norm`); nan or inf if a term overflows."""
    AG = A @ G
    RQR = R10 @ BBt @ R10.T
    norm = kernels._scaled_norm
    size = 2.0 * norm(AG) + norm(BBt) + norm(RQR)
    miss = norm(AG + AG.T + BBt - RQR)
    return miss / size if size > 0.0 else miss


def controllability_gramian(sys: Union[LtiSystem, LtvSystem], t0: float, t1: float,
                            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> GramianReport:
    """The controllability Gramian on [t0, t1] (see `_gramian`)."""
    return _gramian(sys, t0, t1, cfg).report


def min_energy_control(sys: Union[LtiSystem, LtvSystem], t0: float, t1: float,
                       x0, x1, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Least-L2-norm control steering x0 at t0 to x1 at t1.

    Returns (u, cost) with u(s) = B(s)^T R(t1, s)^T z for
    z = Gc^{-1} (x1 - R(t1, t0) x0) and cost = <z, Gc z>, the exact
    minimum of int ||u||^2 over all steering controls, built by `_steering`
    as in `nonlinear.steer_nonlinear`.
    """
    x0 = kernels.as_vector(x0, "x0")
    x1 = kernels.as_vector(x1, "x1")
    if x0.size != sys.n or x1.size != sys.n:
        raise DimensionError(
            f"x0 and x1 must have length {sys.n}, got {x0.size} and {x1.size}")
    report, R10, adjoint = _gramian(sys, t0, t1, cfg)
    if not report.invertible:
        raise UncontrollableIntervalError(
            f"controllability Gramian on [{t0}, {t1}] is singular "
            f"(min eigenvalue {report.min_eigenvalue:.3e})",
            min_eigenvalue=report.min_eigenvalue)
    G = report.gramian
    z = np.linalg.solve(G, x1 - R10 @ x0)
    return _steering(sys, adjoint(z), t1), float(z @ G @ z)


def _steering(sys: Union[LtiSystem, LtvSystem], w: kernels.SampledMatrixFunction,
              t1: float, ubar=None) -> ControlSignal:
    """The control ubar(s) + B(s)^T w(s) on [w.t0, t1] for an adjoint dense
    output w. On an LtiSystem (ubar a vector or None) it is the Hermite
    dense output of its own samples ubar + w B, slopes w' B: the Hermite
    value weights sum to 1, so this is ubar + Hermite(w) B up to rounding.
    On an LtvSystem (ubar a callable of times or None) it samples B(s)."""
    if isinstance(sys, LtiSystem):
        values = w.values @ sys.B + (0.0 if ubar is None else ubar)
        u = kernels.SampledMatrixFunction(w.t0, w.h, values, w.derivs @ sys.B)
    else:
        B_of = sys.B_of

        def u(s):
            du = np.einsum("...np,...n->...p", kernels.sample_at(B_of, s), w(s))
            return du if ubar is None else ubar(s) + du
    return ControlSignal.vectorized(w.t0, t1, sys.p, u)


def kalman_decomposition(sys: LtiSystem,
                         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> KalmanDecomposition:
    """Orthogonal coordinates splitting controllable from uncontrollable.

    T = [V_reach, V_unreach] built from orthonormal bases of the
    controllable space R(A, B) and its complement; T^T A T is block
    upper triangular and T^T B has zero lower block.
    """
    report = kalman_test(sys, cfg)
    r = report.rank
    T = np.hstack([report.reachable_basis, report.unreachable_basis])
    At = T.T @ sys.A @ T
    Bt = T.T @ sys.B
    return KalmanDecomposition(
        T=T,
        r=r,
        A1=At[:r, :r],
        A2=At[:r, r:],
        A3=At[r:, r:],
        B1=Bt[:r, :],
    )
