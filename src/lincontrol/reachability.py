"""Controllability analysis and minimum-energy steering.

Implements the rank test on M = [B, AB, ..., A^{n-1}B], the eigenvalue
(PBH) test, the controllability Gramian

    Gc = int_{t0}^{t1} R(t1, s) B(s) B(s)^T R(t1, s)^T ds,

the Gramian-inverse minimum-energy control, and the orthogonal
decomposition into controllable and uncontrollable blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import kernels
from .errors import DimensionError, DomainError, UncontrollableIntervalError
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig
from .stability import STABILITY_MARGIN
from .systems import ControlSignal, LtiSystem, LtvSystem


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


@dataclass(frozen=True)
class KalmanDecomposition:
    T: np.ndarray    # orthogonal change of coordinates
    r: int
    A1: np.ndarray   # r x r, controllable block
    A2: np.ndarray   # r x (n - r) coupling
    A3: np.ndarray   # (n - r) x (n - r), uncontrollable block
    B1: np.ndarray   # r x p


def kalman_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Horizontal stack [B, AB, ..., A^{n-1}B] built by repeated products."""
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


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
    """Complex rank of [lam I - A, B] for real A, B.

    Non-real lam is handled through the real doubled embedding
    [[X, -Y], [Y, X]] of X + iY, whose real rank is exactly twice the
    complex rank, so all kernels stay real.
    """
    n = A.shape[0]
    X = lam.real * np.eye(n) - A
    if lam.imag == 0.0:
        return kernels.numerical_rank(np.hstack([X, B]), cfg)
    Y = lam.imag * np.eye(n)
    Z = np.hstack([X, B])
    W = np.hstack([Y, np.zeros_like(B)])
    doubled = np.block([[Z, -W], [W, Z]])
    return kernels.numerical_rank(doubled, cfg) // 2


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


def _transition_samples(sys: Union[LtiSystem, LtvSystem], t0: float, t1: float,
                        cfg: ToleranceConfig):
    """Samples of E(s) = R(t1, s) on Simpson nodes of [t0, t1].

    Returns (nodes, E, A_at, B_at): A_at and B_at sample the system
    matrices at the nodes (A_at is the one matrix A for constant
    systems). For constant systems E holds the powers of e^{h A}, built
    by doubling; for time-varying systems the adjoint resolvent ODE
    d/ds E^T = -A(s)^T E^T is integrated backward from E(t1) = I, one RK4
    step per node, with A sampled once at the nodes and midpoints.
    """
    span = t1 - t0
    m = kernels.simpson_intervals(span, cfg.ode_step)
    nodes = np.linspace(t0, t1, m + 1)
    h = span / m
    n = sys.n
    if isinstance(sys, LtiSystem):
        A_at, B_at = sys.A, np.broadcast_to(sys.B, (m + 1,) + sys.B.shape)
        Eh = kernels.expm(h * sys.A)
        # P[j] = Eh^j, doubled until it covers the m + 1 nodes with one
        # stacked product per doubling: Eh^(K + j) = Eh^j Eh^K
        P = np.eye(n)[None]
        while P.shape[0] <= m:
            P = np.concatenate([P, (P.reshape(-1, n) @ (P[-1] @ Eh)).reshape(P.shape)])
        E = P[m::-1]
    else:
        slack = 1e-9 * (1.0 + abs(sys.t1 - sys.t0))
        if t0 < sys.t0 - slack or t1 > sys.t1 + slack:
            raise DomainError(
                f"[{t0}, {t1}] leaves the system interval [{sys.t0}, {sys.t1}]")
        stages = kernels.rk4_stages(nodes[::-1], span)
        times = stages.times
        A_all = kernels.sample_at(sys.A_of, np.concatenate([times.ravel(), nodes]))
        A_at = A_all[times.size:]
        minus_AT = -A_all[:times.size].reshape(times.shape + (n, n)).transpose(0, 1, 3, 2)
        B_at = kernels.sample_at(sys.B_of, nodes)
        ET = kernels.rk4_linear(lambda sl: (minus_AT[sl], None), np.eye(n), stages)
        E = ET[::-1].transpose(0, 2, 1)
    return nodes, E, A_at, B_at


def _gramian_from_samples(nodes: np.ndarray, E: np.ndarray, B_at: np.ndarray) -> np.ndarray:
    """Composite-Simpson sum of w_k F_k F_k^T with F_k = E_k B_at[k].

    The scaled factors sqrt(w_k) F_k are laid side by side in one
    n x (K p) matrix M, so the sum is the single product M M^T.
    """
    h = nodes[1] - nodes[0]
    w = kernels.simpson_weights(nodes.size - 1) * (h / 3.0)
    F = (E @ B_at) * np.sqrt(w)[:, None, None]
    M = F.transpose(1, 0, 2).reshape(F.shape[1], -1)
    G = M @ M.T
    return 0.5 * (G + G.T)


def gramian_invertibility_cutoff(G: np.ndarray,
                                 cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Invertibility threshold for a PSD Gramian.

    Gramian eigenvalues sit on the energy scale, the square of the rank
    test's singular-value scale, so the cutoff is (rank_rtol * dim)^2
    with a floor of a few machine epsilons; anything smaller cannot be
    distinguished from quadrature rounding either way.
    """
    floor = max((cfg.rank_rtol * max(G.shape)) ** 2, 4.0 * np.finfo(float).eps)
    return floor * (1.0 + float(np.linalg.norm(G, 2)))


def _gramian(sys: Union[LtiSystem, LtvSystem], t0: float, t1: float,
             cfg: ToleranceConfig):
    """The transition samples of `_transition_samples` on [t0, t1] and
    the GramianReport built from them."""
    if not t0 < t1:
        raise DomainError(f"need t0 < t1, got [{t0}, {t1}]")
    samples = _transition_samples(sys, t0, t1, cfg)
    nodes, E, _, B_at = samples
    G = _gramian_from_samples(nodes, E, B_at)
    min_eig = float(np.linalg.eigvalsh(G)[0])
    return samples, GramianReport(
        gramian=G,
        interval=(t0, t1),
        min_eigenvalue=min_eig,
        invertible=min_eig > gramian_invertibility_cutoff(G, cfg),
    )


def _adjoint(nodes: np.ndarray, E: np.ndarray, A_at: np.ndarray,
             z: np.ndarray) -> kernels.SampledMatrixFunction:
    """Dense output of w(s) = E(s)^T z, which solves w' = -A(s)^T w; the
    steering control is B(s)^T w(s)."""
    w = z @ E
    return kernels.SampledMatrixFunction(nodes[0], nodes[1] - nodes[0], w,
                                         -(w[:, None] @ A_at)[:, 0])


def controllability_gramian(sys: Union[LtiSystem, LtvSystem], t0: float, t1: float,
                            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> GramianReport:
    """Composite-Simpson quadrature of the controllability Gramian on [t0, t1]."""
    return _gramian(sys, t0, t1, cfg)[1]


def min_energy_control(sys: Union[LtiSystem, LtvSystem], t0: float, t1: float,
                       x0, x1, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Least-L2-norm control steering x0 at t0 to x1 at t1.

    Returns (u, cost) with u(s) = B(s)^T R(t1, s)^T z for
    z = Gc^{-1} (x1 - R(t1, t0) x0) and cost = <z, Gc z>, the exact
    minimum of int ||u||^2 over all steering controls.
    """
    x0 = kernels.as_vector(x0, "x0")
    x1 = kernels.as_vector(x1, "x1")
    if x0.size != sys.n or x1.size != sys.n:
        raise DimensionError(
            f"x0 and x1 must have length {sys.n}, got {x0.size} and {x1.size}")
    (nodes, E, A_at, B_at), report = _gramian(sys, t0, t1, cfg)
    if not report.invertible:
        raise UncontrollableIntervalError(
            f"controllability Gramian on [{t0}, {t1}] is singular "
            f"(min eigenvalue {report.min_eigenvalue:.3e})",
            min_eigenvalue=report.min_eigenvalue)
    G = report.gramian
    z = np.linalg.solve(G, x1 - E[0] @ x0)
    cost = float(z @ G @ z)
    w = _adjoint(nodes, E, A_at, z)

    if isinstance(sys, LtiSystem):
        B = sys.B

        def u_at(s):
            return w(s) @ B
    else:
        B_of = sys.B_of

        def u_at(s):
            return np.einsum("...np,...n->...p", kernels.sample_at(B_of, s), w(s))

    return ControlSignal.vectorized(t0, t1, B_at.shape[2], u_at), cost


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
