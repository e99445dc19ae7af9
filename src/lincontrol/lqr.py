"""Linear-quadratic optimal control in finite and infinite horizons.

The finite-horizon value matrix P_T(t) solves the backward Riccati
differential equation

    P' + P A + A^T P - P B B^T P + C^T C = 0,   P(T) = P0,

and the optimal feedback is u = -B^T P_T(t) x with adjoint
y(t) = P_T(t) x(t). The infinite-horizon value matrix is obtained as the
horizon limit of P_T(0) and satisfies the algebraic Riccati equation.

Both Riccati paths use one exact propagator. The flow of the equation
over a duration tau is the linear-fractional map of expm(tau H), with the
Hamiltonian H = [[-A, B B^T], [C^T C, A^T]], written as a triple
(alpha, beta, gamma). Triples compose in closed form, and a triple
composed with itself is the doubling step of Anderson & Moore (Optimal
Filtering, 1979). `are_solve` doubles the horizon. `riccati_finite` takes
all its samples from a doubling scan: the samples 1..c grid steps back
from T, carried by the flow over c steps, are the samples c+1..2c, so m
samples cost ceil(log2 m) batched steps. Neither integrates, so
cfg.ode_step sets no error there. The triple of one grid step certifies
the samples and gives the closed-loop transitions `lqr_trajectory` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels, reachability
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    EscapeTimeError,
    FiniteCostViolationError,
    NumericalError,
    NumericalInconsistencyError,
)
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig
from .stability import spectral_abscissa
from .systems import LtiSystem, Trajectory, time_grid

BLOWUP_NORM = 1e12
# Bound on the ARE residual of an accepted limit, relative to the size of
# its terms 1 + 2||PA|| + ||PB||^2 + ||C^T C||.
ARE_RESIDUAL_TOL = 1e-3
# Bound on the miss of the one-step flow between adjacent Riccati samples,
# relative to 1 + the largest entry of P over the samples.
RDE_RESIDUAL_TOL = 1e-10
# Bound on |cost - value| of a closed-loop run, relative to 1 + value.
VALUE_IDENTITY_TOL = 1e-6


@dataclass(frozen=True)
class LqrProblem:
    """System (A, B, C), PSD terminal weight P0, and a horizon.

    The running cost is ||C x||^2 + ||u||^2; the terminal cost is
    <P0 x(T), x(T)>. P0 defaults to zero.
    """

    sys: LtiSystem
    P0: Optional[np.ndarray] = None
    horizon: float = math.inf

    def __post_init__(self):
        n = self.sys.n
        P0 = np.zeros((n, n)) if self.P0 is None else kernels.require_square(self.P0, "P0")
        if P0.shape[0] != n:
            raise DimensionError(f"P0 must be {n} x {n}, got {P0.shape}")
        if not kernels.is_symmetric(P0, 1e-10):
            raise DimensionError("P0 must be symmetric")
        if np.linalg.eigvalsh(P0)[0] < -1e-10 * (1.0 + np.linalg.norm(P0, 2)):
            raise DimensionError("P0 must be positive semidefinite")
        object.__setattr__(self, "P0", 0.5 * (P0 + P0.T))
        if not self.horizon > 0.0:
            raise DomainError("horizon must be positive")


@dataclass(frozen=True)
class RiccatiSolution:
    grid: np.ndarray          # increasing samples on [0, T]
    P_samples: np.ndarray     # (K, n, n), symmetric PSD
    transitions: np.ndarray   # (K - 1, n, n): x(t_{k+1}) = transitions[k] x(t_k)
    terminal_matches_P0: bool
    max_residual: float
    _dense: kernels.SampledMatrixFunction = None

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def P_at(self, t) -> np.ndarray:
        """Cubic-Hermite dense output between the stored samples, at a
        time or at every entry of an array of times."""
        return self._dense(t)


@dataclass(frozen=True)
class LqrRun:
    trajectory: Trajectory    # closed-loop states with control samples
    adjoint: np.ndarray       # y(t_k) = P(t_k) x(t_k)
    cost: float               # Simpson quadrature of the run plus the terminal term
    value: float              # xi^T P(t0) xi, which the cost must match

    @property
    def control(self) -> np.ndarray:
        return self.trajectory.controls


@dataclass(frozen=True)
class AreSolution:
    P: np.ndarray
    residual: float
    closed_loop_abscissa: float
    horizon_used: float


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _check_escape(P: np.ndarray, where: str) -> None:
    if not np.abs(P).max() < BLOWUP_NORM:  # also catches nan
        raise EscapeTimeError(f"Riccati solution blew up {where}")


def _flow_triple(A, BBt, CtC, duration, P0):
    """Triple (alpha, beta, gamma) of the backward Riccati flow over
    `duration`, acting on the deviation D = P - P0 from the terminal weight:

        D  |->  gamma + alpha^T D (I + beta D)^{-1} alpha.

    The shear [[I, 0], [P0, I]] moves the Hamiltonian to the graph of P0,
    where it reads [[-Ac, B B^T], [R(P0), Ac^T]] with Ac = A - B B^T P0 and
    R(P0) the Riccati residual at P0. Anchored at 0 instead, alpha and
    beta grow like e^{lambda tau} and e^{2 lambda tau} along an unstable
    mode that C does not see, and the doubling turns singular. The
    exponential is taken on a step with unit 1-norm and doubled back up.
    A Hamiltonian that overflows is refused (`EscapeTimeError`).
    """
    Ac = A - BBt @ P0
    P0A = P0 @ A
    R = CtC + P0A + P0A.T - P0 @ BBt @ P0
    H = np.block([[-Ac, BBt], [R, Ac.T]])
    if not np.isfinite(H).all():
        raise EscapeTimeError("Riccati Hamiltonian overflows: its entries are not finite")
    scale = np.linalg.norm(H, 1)
    s = max(0, math.ceil(math.log2(duration) + math.log2(scale))) if scale > 0 else 0
    Phi = kernels.expm((duration / 2.0 ** s) * H)
    n = A.shape[0]
    try:
        alpha = np.linalg.inv(Phi[:n, :n])
    except np.linalg.LinAlgError as exc:
        raise EscapeTimeError("Riccati flow lost invertibility") from exc
    triple = (alpha, _sym(alpha @ Phi[:n, n:]), _sym(Phi[n:, :n] @ alpha))
    for _ in range(s):
        triple = _compose(triple, triple)
    return triple


def _compose(first, second):
    """The triple of the flow of `first` followed by that of `second`.

    With W = I + beta2 gamma1 the composite is

        alpha = alpha1 W^{-1} alpha2,
        beta  = beta1 + alpha1 W^{-1} beta2 alpha1^T,
        gamma = gamma2 + alpha2^T gamma1 W^{-1} alpha2,

    from one solve over the stacked right-hand sides. `_compose(t, t)`
    is the doubling step of Anderson & Moore.
    """
    a1, b1, g1 = first
    a2, b2, g2 = second
    W = np.eye(a1.shape[0]) + b2 @ g1
    try:
        Wa, Wba = np.split(np.linalg.solve(W, np.hstack([a2, b2 @ a1.T])), 2, axis=1)
    except np.linalg.LinAlgError as exc:
        raise EscapeTimeError("Riccati flow lost invertibility") from exc
    return (a1 @ Wa, _sym(b1 + a1 @ Wba), _sym(g2 + a2.T @ g1 @ Wa))


def _advance(triple, D: np.ndarray):
    """The flow map of `triple` applied to each deviation of a stack D:
    gamma + alpha^T D X with X = (I + beta D)^{-1} alpha, the gamma part of
    `_compose` with D in place of gamma1, returned with X. Over one grid
    step, from D at t + h, X is the closed-loop transition x(t + h) = X x(t)."""
    alpha, beta, gamma = triple
    W = beta @ D
    W += np.eye(alpha.shape[0])
    try:
        X = np.linalg.solve(W, np.broadcast_to(alpha, W.shape))
    except np.linalg.LinAlgError as exc:
        raise EscapeTimeError("Riccati flow lost invertibility") from exc
    G = alpha.T @ (D @ X)
    G += gamma
    return 0.5 * (G + G.swapaxes(1, 2)), X


def riccati_finite(prob: LqrProblem, cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                   step: Optional[float] = None) -> RiccatiSolution:
    """Samples of the Riccati solution on a uniform grid, with dense output.

    The deviation from P0 at T vanishes, so the sample k grid steps back
    from T is P0 + gamma of the flow triple over k steps (anchored at P0,
    see `_flow_triple`). A doubling scan finds them all: the flow over c
    steps maps the samples 1..c to the samples c+1..2c in one batched
    step, and the triple then doubles, so m samples take ceil(log2 m)
    steps and carry no time-discretization error. Each level is checked
    for blow-up before the next is formed, so an EscapeTimeError names
    the first sample back from T whose size reaches BLOWUP_NORM. The
    spacing defaults to min(cfg.ode_step, T/2000) so the Hermite dense
    output resolves the layer near t = T when P0 = 0 and C is large.
    The triple of one step, applied to each sample in blocks of 256, must
    give the next one back: max_residual is that miss relative to
    1 + max |P|, refused above RDE_RESIDUAL_TOL, and the solves are the
    transitions. Samples are symmetric and checked to be PSD.
    """
    if not math.isfinite(prob.horizon):
        raise DomainError("riccati_finite needs a finite horizon")
    T = prob.horizon
    A, B, C = prob.sys.A, prob.sys.B, prob.sys.C
    h_target = step if step is not None else min(cfg.ode_step, T / 2000.0)
    m = math.ceil(T / h_target)
    h = T / m
    K = m + 1
    n = prob.sys.n
    P = np.empty((K, n, n))
    D = P[::-1]  # D[k]: deviation from P0 k steps back from T
    D[0] = 0.0
    lo, c = 1, 1  # D[1..c] is known, D[lo..c] is the level not yet checked
    # an overflow shows as an inf or nan sample and is reported as blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        BBt = B @ B.T
        CtC = C.T @ C
        triple = one_step = _flow_triple(A, BBt, CtC, h, prob.P0)
        D[1] = triple[2]
        while True:
            big = ~(np.abs(prob.P0 + D[lo:c + 1]).max(axis=(1, 2)) < BLOWUP_NORM)
            if big.any():
                k = lo + int(np.argmax(big))
                raise EscapeTimeError(f"Riccati solution blew up near t = {(m - k) * h:.6g}")
            if c == m:
                break
            if c > 1:
                triple = _compose(triple, triple)  # the flow over c steps
            k = min(c, m - c)
            D[c + 1:c + k + 1] = _advance(triple, D[1:k + 1])[0]
            lo, c = c + 1, c + k
        transitions, misses = np.empty((m, n, n)), []
        for lo in range(0, m, 256):  # P still holds deviations: P[j + 1] maps to P[j]
            G, transitions[lo:lo + 256] = _advance(one_step, P[lo + 1:lo + 257])
            misses.append(np.abs(G - P[lo:lo + len(G)]).max())
    P += prob.P0
    grid = np.linspace(0.0, T, K)

    min_eig = float(np.linalg.eigvalsh(P[:: max(1, K // 256)])[:, 0].min())
    if min_eig < -1e-9:
        raise NumericalInconsistencyError(
            f"Riccati sample lost positive semidefiniteness (min eig {min_eig:.3e})")
    max_residual = float(np.max(misses) / (1.0 + np.abs(P).max()))
    if not max_residual <= RDE_RESIDUAL_TOL:
        raise NumericalInconsistencyError(
            f"Riccati samples miss the one-step flow by {max_residual:.3e} of 1 + max |P|")

    # dP = -(P A + A^T P - P B B^T P + C^T C), the slopes of the dense output
    dP = P @ BBt @ P
    PA = P @ A
    dP -= CtC
    dP -= PA
    dP -= np.swapaxes(PA, 1, 2)
    del PA
    return RiccatiSolution(
        grid=grid,
        P_samples=P,
        transitions=transitions,
        terminal_matches_P0=bool(np.array_equal(P[-1], prob.P0)),
        max_residual=max_residual,
        _dense=kernels.SampledMatrixFunction(0.0, h, P, dP),
    )


def lqr_trajectory(prob: LqrProblem, ric: RiccatiSolution, xi, grid=None) -> LqrRun:
    """Closed-loop run x' = (A - B B^T P(t)) x from xi at t0 = grid[0], with
    the sampled optimal control, the adjoint y = P x, and the cost.

    The transitions of `ric` carry xi through every sample to T, so each
    grid point must be a sample time; the rows returned are the grid's.
    The cost, Simpson's rule over the run, must match the value xi^T P(t0) xi.
    """
    xi = kernels.as_vector(xi, "xi")
    if xi.size != prob.sys.n:
        raise DimensionError(f"xi must have length {prob.sys.n}")
    m, h = ric.grid.size - 1, ric.grid[1]
    steps = np.arange(m + 1.0) if grid is None else time_grid(grid) / h
    rows = np.rint(steps)
    if not (rows[0] >= 0 and rows[-1] <= m and np.abs(steps - rows).max() <= 1e-9):
        raise DomainError(f"grid points must be Riccati samples, multiples of the spacing {h:.6g}")
    first = int(rows[0])
    states = np.empty((m + 1 - first, xi.size))
    states[0] = xi
    # an overflow is a state that is not finite, or a cost off the value
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m - first):
            states[k + 1] = ric.transitions[first + k] @ states[k]
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            raise NumericalError(
                f"closed-loop state is not finite at t = {ric.grid[first + np.argmin(finite)]:.6g}")
        adjoint = np.einsum("kij,kj->ki", ric.P_samples[first:], states)
        controls = -np.einsum("ij,kj->ki", prob.sys.B.T, adjoint)
        cost = evaluate_cost(prob, Trajectory(ric.grid[first:], states, controls))
        value = float(xi @ ric.P_samples[first] @ xi)
    if not abs(cost - value) <= VALUE_IDENTITY_TOL * (1.0 + value):
        raise NumericalInconsistencyError(
            f"cost {cost:.6g} misses the value identity xi^T P(t0) xi = {value:.6g}: "
            f"the Riccati spacing {h:.6g} does not resolve the closed loop")
    rows = rows.astype(int) - first
    full = Trajectory(ric.grid[first:][rows], states[rows], controls[rows])
    return LqrRun(trajectory=full, adjoint=adjoint[rows], cost=cost, value=value)


def evaluate_cost(prob: LqrProblem, traj: Trajectory) -> float:
    """Simpson quadrature of ||C x||^2 + ||u||^2 plus the terminal term."""
    if traj.controls is None:
        raise ValueError("trajectory carries no control samples")
    diffs = np.diff(traj.grid)
    h = float(diffs[0])
    if np.max(np.abs(diffs - h)) > 1e-9 * (1.0 + h):
        raise ValueError("cost quadrature expects a uniform grid")
    Cx = traj.states @ prob.sys.C.T
    integrand = np.sum(Cx ** 2, axis=1) + np.sum(traj.controls ** 2, axis=1)
    running = float(kernels.composite_simpson(integrand, h))
    xT = traj.states[-1]
    return running + float(xT @ prob.P0 @ xT)


def check_finite_cost_condition(sys: LtiSystem,
                                cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> None:
    """Stabilizability in PBH form: rank [lam I - A, B] = n on every
    eigenvalue in the closed right half plane. Raises when violated."""
    lam = reachability.unstabilizable_mode(sys.A, sys.B, cfg)
    if lam is not None:
        raise FiniteCostViolationError(
            f"unstable mode at {lam:.6g} is unreachable from the input; "
            "the finite cost condition fails", bad_eigenvalue=lam)


def are_solve(sys: LtiSystem, cfg: ToleranceConfig = DEFAULT_TOLERANCES,
              initial_horizon: float = 1.0,
              convergence_tol: Optional[float] = None,
              max_doublings: int = 20) -> AreSolution:
    """Stabilizing solution of A^T P + P A - P B B^T P + C^T C = 0.

    P is the horizon limit of the value matrix with terminal weight I:
    the values P_T(0), P_{2T}(0), P_{4T}(0), ... are taken until
    ||P_{2T}(0) - P_T(0)||_F drops below the convergence tolerance.
    Each is exact, not integrated: the triple of the Riccati flow over
    T (anchored at I, see `_flow_triple`) doubles in closed form, so
    horizon 2^k T costs k doublings at O(n^3) each. The terminal weight
    I steers the limit to the stabilizing root even when C misses
    unstable modes. A limit whose ARE residual exceeds ARE_RESIDUAL_TOL
    relative to 1 + 2||PA|| + ||PB||^2 + ||C^T C|| is refused: with an
    initial horizon far below the time scale of the system, P_T and
    P_2T both stay near I and pass the stopping rule.
    """
    if not (math.isfinite(initial_horizon) and initial_horizon > 0.0):
        raise DomainError(f"initial horizon must be finite and positive, got {initial_horizon}")
    if max_doublings < 0:
        raise DomainError(f"max_doublings must be nonnegative, got {max_doublings}")
    check_finite_cost_condition(sys, cfg)
    tol = cfg.residual_tol if convergence_tol is None else convergence_tol
    A, B, C = sys.A, sys.B, sys.C
    # an overflow shows as an inf or nan value matrix and is reported as blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        BBt = B @ B.T
        CtC = C.T @ C
        eye = np.eye(sys.n)
        T = initial_horizon
        triple = _flow_triple(A, BBt, CtC, T, eye)
        P_prev = eye + triple[2]
        _check_escape(P_prev, f"within horizon {T:.6g}")
        converged = False
        diff = math.inf
        for _ in range(max_doublings):
            triple = _compose(triple, triple)
            P_next = eye + triple[2]
            T *= 2.0
            _check_escape(P_next, f"within horizon {T:.6g}")
            diff = float(np.linalg.norm(P_next - P_prev))
            P_prev = P_next
            if diff <= tol:
                converged = True
                break
    if not converged:
        raise ConvergenceError(
            f"value matrix did not settle within horizon {T:.6g} "
            f"(last doubling moved {diff:.3e}, tolerance {tol:.1e})")
    P = P_prev
    residual = float(np.linalg.norm(A.T @ P + P @ A - P @ BBt @ P + CtC))
    scale = 1.0 + 2.0 * np.linalg.norm(P @ A) + np.linalg.norm(P @ B) ** 2 + np.linalg.norm(CtC)
    if not residual <= ARE_RESIDUAL_TOL * scale:
        raise NumericalInconsistencyError(
            f"limit matrix misses the ARE: residual {residual:.3e} is "
            f"{residual / scale:.3e} of the size of its terms (bound {ARE_RESIDUAL_TOL:.0e})")
    closed = spectral_abscissa(A - BBt @ P)
    if closed >= 0.0:
        raise NumericalInconsistencyError(
            f"limit matrix is not stabilizing (closed-loop abscissa {closed:.6g})")
    return AreSolution(P=P, residual=residual,
                       closed_loop_abscissa=closed, horizon_used=T)
