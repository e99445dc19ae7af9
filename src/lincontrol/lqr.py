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
Filtering, 1979); the triple kernels live in `kernels`, where
`reachability` takes the constant-coefficient Gramian from them too.
`are_solve` doubles the horizon. `riccati_finite` cuts its m grid steps
into blocks of s: a doubling scan takes the block starts (the starts
1..c blocks back from T, carried by the flow over c blocks, are the
starts c+1..2c), and the triple of one grid step then carries every
block forward one step per batched round, s rounds in all. That is
m + m / s batched solves, and the rounds' solves are the closed-loop
transitions `lqr_trajectory` runs. Each block's last one-step image
must land on the next start of the doubling: that miss certifies the
samples. Neither path integrates, so cfg.ode_step sets no error there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
        eigs = np.linalg.eigvalsh(P0)  # ||P0||_2 is the largest |eigenvalue|
        if eigs[0] < -1e-10 * (1.0 + max(-eigs[0], eigs[-1])):
            raise DimensionError("P0 must be positive semidefinite")
        object.__setattr__(self, "P0", 0.5 * (P0 + P0.T))
        if not self.horizon > 0.0:
            raise DomainError("horizon must be positive")


@dataclass(frozen=True)
class RiccatiSolution:
    """The samples of `riccati_finite`, their closed-loop transitions and
    certificate. The dense output `P_at` is formed on its first read, from
    the samples and the coefficients A, B B^T and C^T C kept for it, and
    kept: a caller that reads only the samples and transitions, as
    `lqr_trajectory` does, never pays for its slopes."""

    grid: np.ndarray          # increasing samples on [0, T]
    P_samples: np.ndarray     # (K, n, n), symmetric PSD
    transitions: np.ndarray   # (K - 1, n, n): x(t_{k+1}) = transitions[k] x(t_k)
    terminal_matches_P0: bool
    max_residual: float
    _coefficients: tuple = field(repr=False, compare=False)  # (A, B B^T, C^T C)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @functools.cached_property
    def P_at(self) -> kernels.SampledMatrixFunction:
        """Cubic-Hermite dense output of the samples at the spacing
        h = T / m, formed on the first read and kept: its slopes
        dP = -(P A + A^T P - P B B^T P + C^T C) add (m + 1) n^2 entries,
        formed PATH_CHUNK samples at a time so that no temporary is the
        size of P."""
        A, BBt, CtC = self._coefficients
        P = self.P_samples
        dP = np.empty_like(P)
        for lo in range(0, len(P), kernels.PATH_CHUNK):
            Pc, slopes = P[lo:lo + kernels.PATH_CHUNK], dP[lo:lo + kernels.PATH_CHUNK]
            np.matmul(Pc @ BBt, Pc, out=slopes)
            PA = Pc @ A
            slopes -= CtC
            slopes -= PA
            slopes -= np.swapaxes(PA, 1, 2)
        return kernels.SampledMatrixFunction(0.0, self.horizon / (len(P) - 1), P, dP)


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


def _check_escape(P: np.ndarray, where: str) -> None:
    if not np.abs(P).max() < BLOWUP_NORM:  # also catches nan
        raise EscapeTimeError(f"Riccati solution blew up {where}")


def _advance(triple, D: np.ndarray):
    """The flow map of `triple` applied to each deviation of a stack D:
    gamma + alpha^T D X with X = (I + beta D)^{-1} alpha, the gamma part of
    `kernels._compose` with D in place of gamma1, returned with X. Over one
    grid step, from D at t + h, X is the closed-loop transition
    x(t + h) = X x(t)."""
    alpha, beta, gamma = triple
    W = beta @ D
    W += np.eye(alpha.shape[0])
    try:
        X = np.linalg.solve(W, alpha[None])
    except np.linalg.LinAlgError as exc:
        raise EscapeTimeError("Riccati flow lost invertibility") from exc
    G = alpha.T @ (D @ X)
    G += gamma
    S = G + G.swapaxes(1, 2)
    S *= 0.5
    return S, X


def _check_psd(S: np.ndarray) -> None:
    """Refuse (`NumericalInconsistencyError`) a stack S of symmetric
    samples with an eigenvalue below -1e-9.

    One batched Cholesky of S + (1e-9 - delta) I accepts the stack when
    it succeeds. delta = n (n + 1) eps (1 + max |S|) covers the backward
    error of the factorization: the computed factor is exact for a
    matrix within gamma_{n+1} max_i m_ii of it entrywise (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, Thm 10.3),
    so within n (n + 1) u (1 + max |S|) = delta / 2 in the 2-norm, and
    an accepted S has no eigenvalue below -1e-9. When the factorization
    fails, the smallest eigenvalue of the stack decides; the two rules
    part only for an eigenvalue within about delta above -1e-9.
    """
    n = S.shape[-1]
    delta = n * (n + 1) * np.finfo(float).eps * (1.0 + float(np.abs(S).max()))
    try:
        np.linalg.cholesky(S + (1e-9 - delta) * np.eye(n))
        return
    except np.linalg.LinAlgError:
        pass
    min_eig = float(np.linalg.eigvalsh(S)[:, 0].min())
    if min_eig < -1e-9:
        raise NumericalInconsistencyError(
            f"Riccati sample lost positive semidefiniteness (min eig {min_eig:.3e})")


def _riccati_block(m: int, n: int) -> int:
    """Block length s of `riccati_finite`: the power of two nearest
    n sqrt(m) / 16, at most 32 and at most m.

    Blocks of s cost s + log2(m / s) batched steps and m + m / s solves.
    With c0 the interpreted cost of a step and c1 that of one n x n solve
    within it, the total is least at s = sqrt(m c1 / c0), and c1 / c0
    grows about like n^2 / 256 over the tested range. Timed against the
    scan over every sample and a one-step pass (best of 20, BLAS on one
    thread, 2-core Intel Xeon, numpy 2.4) at m = 2000 and 2500, the rule
    took 0.56-0.83 of its time for n in {1, 2, 4, 8, 16, 24}, within 0.03
    of the best power of two each time; a fixed s = 32 took 1.2-1.3 of
    it at n = 1, and s = 4 took 1.2 times the rule's time at n = 24.
    The cap of 32 bounds what rounding adds to the certificate: the s
    one-step images of a block drift from the doubled start about
    linearly in s (on the n = 24 draw of the tests at m = 5000, a miss of
    1.6e-14 of 1 + max |P| at s = 1, 3.4e-13 at 32 and 1.2e-12 at 128),
    and no larger s gained more than 0.03.
    """
    e = round(math.log2(n) + 0.5 * math.log2(m)) - 4
    return 1 << min(max(e, 0), 5, m.bit_length() - 1)


def riccati_finite(prob: LqrProblem, cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                   step: Optional[float] = None) -> RiccatiSolution:
    """Samples of the Riccati solution on a uniform grid, with dense output.

    The deviation from P0 at T vanishes, so the sample k grid steps back
    from T is P0 + gamma of the flow triple over k steps (anchored at P0,
    see `kernels._flow_triple`). The m steps are cut into blocks of s
    (`_riccati_block`), a power of two, and no sample carries a
    time-discretization error:
    - the block starts, s, 2s, ... steps back, come from a doubling scan
      with the triple of s steps (one step's, doubled log2 s times): the
      flow over c blocks maps the starts 1..c to the starts c+1..2c in
      one batched step, and the triple then doubles, about m / s solves;
    - the triple of one step then carries every block forward one step
      at a time, one batched round per step, s rounds in all. A round's
      solves (I + beta D)^{-1} alpha are the closed-loop transitions, so
      the m solves of the rounds are all the rest.
    That is m + m / s solves; at s = 1 (short grids at small n) it is a
    doubling scan over every sample and a one-step pass, 2m - 1 solves.
    Every sample is checked for blow-up as it is formed, and the rounds
    go no further than the first sample found, so an EscapeTimeError
    names the first sample back from T whose size reaches BLOWUP_NORM.
    The spacing defaults to min(cfg.ode_step, T/2000) so the Hermite dense
    output resolves the layer near t = T when P0 = 0 and C is large.
    Within a block each sample is the one-step image of the one before
    by construction; the s-th round must land on the next block start of
    the doubling: max_residual is that miss relative to 1 + max |P|,
    refused above RDE_RESIDUAL_TOL. Samples are symmetric, and about 256
    of them, evenly spaced, are checked to be PSD by one batched Cholesky
    (`_check_psd`). What is stored is the (m + 1) n^2 samples, the m n^2
    transitions and the m + 1 grid times; a grid whose samples and
    transitions exceed MAX_PATH_ENTRIES is refused
    (`kernels.check_path_entries`) before anything is allocated. The
    slopes of the dense output are not formed here: `P_at` adds their
    (m + 1) n^2 entries on its first read.
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
    kernels.check_path_entries((2 * m + 1) * n * n, "riccati_finite's samples and transitions "
                               f"of m = {kernels.count_text(m)} steps at n = {n}")
    P, transitions = np.empty((K, n, n)), np.empty((m, n, n))
    D = P[::-1]  # D[k]: deviation from P0 k steps back from T
    X = transitions[::-1]  # X[k]: the transition from the time of D[k + 1] to that of D[k]
    D[0] = 0.0
    s = _riccati_block(m, n)
    E = D[::s]  # E[b] = D[b s]: the block starts
    first = m + 1  # the first sample back from T found blown up, if at most m

    # deviations within `limit` give samples below BLOWUP_NORM even with the
    # rounding of P0 + G; only a stack that leaves it is checked sample by sample
    limit = BLOWUP_NORM * (1.0 - 1e-15) - np.abs(prob.P0).max()

    def blown(G):  # the first deviation of G whose sample reaches BLOWUP_NORM or is nan, or -1
        if G.max() < limit and -G.min() < limit:
            return -1
        ok = np.abs(prob.P0 + G).max(axis=(-2, -1)) < BLOWUP_NORM
        return -1 if ok.all() else int(np.argmin(ok))

    # an overflow shows as an inf or nan sample and is reported as blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        BBt = B @ B.T
        CtC = C.T @ C
        triple = one_step = kernels._flow_triple(A, BBt, CtC, h, prob.P0)
        c = 1  # triple is the flow over c steps, its gamma the deviation D[c]
        while c < s and blown(triple[2]) < 0:
            triple = kernels._compose(triple, triple)
            c *= 2
        if blown(triple[2]) >= 0:
            first = c  # the rounds look for an earlier one
        else:
            E[1] = triple[2]
            c = 1  # E[1..c] is known and checked
            while c < len(E) - 1:
                if c > 1:
                    triple = kernels._compose(triple, triple)  # the flow over c blocks
                k = min(c, len(E) - 1 - c)
                E[c + 1:c + k + 1] = _advance(triple, E[1:k + 1])[0]
                b = blown(E[c + 1:c + k + 1])
                if b >= 0:
                    first = (c + 1 + b) * s
                    break
                c += k
        for j in range(1, s + 1):  # round j: D[b s + j - 1] to D[b s + j] in every block b
            last = min(m, first - 1)  # the last sample still wanted
            if last < j:
                break
            count = (last - j) // s + 1
            G, X[j - 1::s][:count] = _advance(one_step, D[j - 1::s][:count])
            if j < s:
                D[j::s][:count] = G
                b = blown(G)
                if b >= 0:
                    first = b * s + j
            else:
                miss = np.abs(G - E[1:count + 1]).max()
    if first <= m:
        raise EscapeTimeError(f"Riccati solution blew up near t = {(m - first) * h:.6g}")
    P += prob.P0
    grid = np.linspace(0.0, T, K)

    _check_psd(P[:: max(1, K // 256)])
    max_residual = float(miss / (1.0 + max(P.max(), -P.min())))  # no |P| temporary
    if not max_residual <= RDE_RESIDUAL_TOL:
        raise NumericalInconsistencyError(
            f"Riccati samples miss the one-step flow by {max_residual:.3e} of 1 + max |P|")
    return RiccatiSolution(
        grid=grid,
        P_samples=P,
        transitions=transitions,
        terminal_matches_P0=bool(np.array_equal(P[-1], prob.P0)),
        max_residual=max_residual,
        _coefficients=(A, BBt, CtC),
    )


def lqr_trajectory(prob: LqrProblem, ric: RiccatiSolution, xi, grid=None) -> LqrRun:
    """Closed-loop run x' = (A - B B^T P(t)) x from xi at t0 = grid[0], with
    the sampled optimal control, the adjoint y = P x, and the cost.

    The transitions of `ric` carry xi through every sample to T, so each
    grid point must be a sample time; the rows returned are the grid's.
    They are applied one by one, in order, and never composed: a run from
    a later sample is then the tail of the full run bit for bit.
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
        for M, x, y in zip(ric.transitions[first:], states[:-1], states[1:]):
            np.dot(M, x, y)
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
    T (anchored at I, see `kernels._flow_triple`) doubles in closed form, so
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
        triple = kernels._flow_triple(A, BBt, CtC, T, eye)
        P_prev = eye + triple[2]
        _check_escape(P_prev, f"within horizon {T:.6g}")
        converged = False
        diff = math.inf
        for _ in range(max_doublings):
            triple = kernels._compose(triple, triple)
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
