"""Dense numerical kernels: matrix exponential, eigenvalues, rank with
tolerance, real Schur forms and the Sylvester/Lyapunov solves on them
(Bartels-Stewart on LAPACK gees and trsyl), the doubling of Riccati flow
triples, fixed-step RK4, the fourth-order Magnus steps of every linear
path (exact for constant A) and the blocked scan that applies them,
composite Simpson quadrature, and Hermite dense output.

A `Schur` form carries its eigenvalues, so a caller that factors a
matrix once has its spectrum verdict and its Lyapunov solve
(`solve_lyapunov`) from the one factorization.

`_flow_triple` and `_compose` are the one doubling kernel: `lqr` runs its
Riccati flows on them, and `reachability` the constant-coefficient
Gramian, the flow with no quadratic term.

Everything here is a pure function of its inputs. Matrices are plain
float64 numpy arrays; eigenvalue lists are complex numpy arrays that come
in conjugate pairs when produced from a real matrix.

Importing this module loads numpy only. scipy.linalg, which costs more
to import than the rest of lincontrol, is loaded by the first call that
needs one of its routines: `expm` and the LAPACK gees, gesv and trsyl.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, fields
from typing import Callable, TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    EscapeTimeError,
    NumericalError,
    SingularEquationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .systems import LtvSystem


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical knobs shared across the library.

    rank_rtol        relative singular-value cutoff factor for rank decisions
    residual_tol     acceptance bound for linear matrix-equation residuals
    ode_step         largest substep of the linear paths and the Simpson gap,
                     in time units; the nonlinear flow's output grid, not its
                     accuracy
    fixed_point_tol  terminal-error target of the nonlinear steering iteration;
                     the nonlinear flow runs at rtol = atol = 1e-3 of it
    max_iter         cap on fixed-point iterations, an integer; no field is a bool
    """

    rank_rtol: float = 1e-10
    residual_tol: float = 1e-10
    ode_step: float = 1e-3
    fixed_point_tol: float = 1e-9
    max_iter: int = 50

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{f.name} must be a number, not a bool")
            if not (value > 0 and value < math.inf):  # a JSON 1e999 parses as inf
                raise ValueError(f"{f.name} must be strictly positive and finite")
        if not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-ordered 2-D float64 array and reject non-finite entries,
    so results depend on the values alone: a transposed view and its copy agree."""
    A = np.atleast_2d(np.ascontiguousarray(M, dtype=float))
    if A.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return A


def as_vector(v, name: str = "vector") -> np.ndarray:
    x = np.asarray(v, dtype=float).reshape(-1)
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return x


def as_state(v, n: int, name: str) -> np.ndarray:
    x = as_vector(v, name)
    if x.size != n:
        raise DimensionError(f"{name} must have length {n}, got {x.size}")
    return x


def require_interval(t0, t1) -> None:
    """Refuse (`DomainError`) an interval [t0, t1] unless t0 < t1; a nan end too."""
    if not t0 < t1:
        raise DomainError(f"need t0 < t1, got [{t0}, {t1}]")


def require_square(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    A = as_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


def is_symmetric(M: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.all(np.abs(M - M.T) <= tol * (1.0 + np.abs(M).max(initial=0.0))))


def require_symmetric_psd(M: np.ndarray, name: str, error: type) -> None:
    """Refuse (`error`) an M that is not symmetric, or not PSD to 1e-10 (1 + ||M||_2)."""
    if not is_symmetric(M, 1e-10):
        raise error(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] < -1e-10 * (1.0 + max(-eigs[0], eigs[-1])):
        raise error(f"{name} must be positive semidefinite")


def _fetched_on_first_call(name: str, module: str, routine: str):
    """A stand-in for the module global `name` that imports `routine` from
    `module` on its first call and puts it in its own place, so later
    calls reach the routine directly. A stand-in that no longer holds that
    place (a monkeypatched global) leaves it alone and forwards."""
    def fetch(*args, **kwargs):
        found = getattr(importlib.import_module(module), routine)
        if globals()[name] is fetch:
            globals()[name] = found
        return found(*args, **kwargs)
    return fetch


_gees = _fetched_on_first_call("_gees", "scipy.linalg.lapack", "dgees")
_gesv = _fetched_on_first_call("_gesv", "scipy.linalg.lapack", "dgesv")
_trsyl = _fetched_on_first_call("_trsyl", "scipy.linalg.lapack", "dtrsyl")
_scipy_expm = _fetched_on_first_call("_scipy_expm", "scipy.linalg", "expm")


def expm(A) -> np.ndarray:
    """Matrix exponential e@A by scaling-and-squaring with a Pade approximant.

    Delegates to the vetted scipy implementation (order-13 rational
    approximant), which meets the 1e-12 relative-accuracy contract for
    norms up to ~10. scipy.linalg is imported on the first call.
    """
    A = require_square(A, "A")
    return _scipy_expm(A)


def eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a real square matrix, with multiplicity.

    Hessenberg reduction plus shifted QR via LAPACK. Conjugate pairs are
    exact for real input.
    """
    A = require_square(A, "A")
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def _separation(la: np.ndarray, lb: np.ndarray) -> float:
    """min |la_i + lb_j| over two eigenvalue lists; a sum that overflows is
    an infinite margin, spectra far apart."""
    with np.errstate(over="ignore"):
        return float(np.abs(la[:, None] + lb[None, :]).min())


def spectra_separation(A: np.ndarray, B: np.ndarray) -> float:
    """min |lambda_i(A) + mu_j(B)|, the singularity margin of AX + XB = R."""
    return _separation(eigenvalues(A), eigenvalues(B))


def _no_sort(wr, wi):  # gees needs a selector even when it does not sort
    return 0


@dataclass(frozen=True)
class Schur:
    """Real Schur form matrix = U T U^T: U orthogonal, T quasi upper
    triangular with 1 x 1 and 2 x 2 (complex pair) diagonal blocks, and
    the eigenvalues in the order of T's diagonal."""

    matrix: np.ndarray
    T: np.ndarray
    U: np.ndarray
    eigenvalues: np.ndarray

    def shifted(self, lam: float) -> "Schur":
        """The Schur form of matrix + lam I, with no new factorization:
        U is shared and lam is added to T's diagonal and to the spectrum.
        An entry that overflows is refused later as a residual that is
        not finite."""
        shift = lam * np.eye(self.T.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            return Schur(self.matrix + shift, self.T + shift, self.U, self.eigenvalues + lam)


def real_schur(M) -> Schur:
    """One real Schur factorization of a square matrix (LAPACK gees, no
    sorting). The input is checked for finiteness first, which LAPACK
    does not do; a QR iteration that fails raises NumericalError."""
    M = require_square(M, "M")
    T, _, wr, wi, U, _, info = _gees(_no_sort, M)
    if info != 0:
        raise NumericalError(f"Schur factorization failed (LAPACK gees info {info})")
    return Schur(M, T, U, wr + 1j * wi)


def rank_of_singular_values(s: np.ndarray, shape: tuple,
                            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Count the descending singular values s of a matrix of the given
    shape above rank_rtol * max(rows, cols) * sigma_max."""
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > cfg.rank_rtol * max(shape) * s[0]))


def numerical_rank(A, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Rank by the singular-value cutoff of `rank_of_singular_values`."""
    A = as_matrix(A, "A")
    if A.size == 0:
        return 0
    return rank_of_singular_values(np.linalg.svd(A, compute_uv=False), A.shape, cfg)


def solve_sylvester(A, Bm, R, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve A X + X Bm = R for A (n, n), Bm (k, k) and R (n, k) by
    Bartels-Stewart on one real Schur form of A and one of Bm^T.

    A unique solution exists iff the spectra of A and -Bm are disjoint;
    the checks of `_bartels_stewart` hold for every return. A Lyapunov
    equation is cheaper through `solve_lyapunov`, which factors once.
    """
    A = require_square(A, "A")
    Bm = require_square(Bm, "Bm")
    return _bartels_stewart(real_schur(A), real_schur(Bm.T), R, cfg)


def solve_lyapunov(schur: Schur, R, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve M X + X M^T = R from the real Schur form `schur` of M, which
    serves both sides of the equation, so a solve costs no factorization.

    The equation A^T Q + Q A = -R of a Lyapunov certificate is M = A^T;
    the weighted Gramian's (A + lam I) Q + Q (A + lam I)^T = B B^T is
    `real_schur(A).shifted(lam)`. The checks are those of
    `_bartels_stewart`.
    """
    return _bartels_stewart(schur, schur, R, cfg)


def _bartels_stewart(first: Schur, second: Schur, R, cfg: ToleranceConfig) -> np.ndarray:
    """Solve M1 X + X M2^T = R, with first = M1 = U1 T1 U1^T and
    second = M2 = U2 T2 U2^T: LAPACK trsyl back-substitutes
    T1 Y + Y T2^T = U1^T R U2 and X = U1 Y U2^T.

    trsyl returns the solution of the equation with right-hand side
    scale * C (scale <= 1 keeps Y finite); the scale is divided out here.
    The separation min |lambda_i(M1) + mu_j(M2)| is read off the two
    spectra and refused at or below residual_tol (SingularEquationError)
    before solving. After it, every return satisfies
    ||M1 X + X M2^T - R||_F <= residual_tol * (1 + ||R||_F), both norms
    scaled by the largest entry so that neither overflows; a residual
    that is not finite is refused with NumericalError.
    """
    R = as_matrix(R, "R")
    shape = (first.T.shape[0], second.T.shape[0])
    if R.shape != shape:
        raise DimensionError(f"R must have shape {shape}, got {R.shape}")
    sep = _separation(first.eigenvalues, second.eigenvalues)
    if sep <= cfg.residual_tol:
        raise SingularEquationError(
            f"spectra of the two coefficients are not disjoint (separation {sep:.3e}); "
            "the equation has no unique solution"
        )
    # an overflow shows as a residual that is not finite and is refused
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Y, scale, info = _trsyl(first.T, second.T, first.U.T @ R @ second.U, tranb="T")
        if info < 0:
            raise NumericalError(f"triangular Sylvester solve failed (LAPACK trsyl info {info})")
        X = first.U @ (Y / scale) @ second.U.T
        residual = _scaled_norm(first.matrix @ X + X @ second.matrix.T - R)
    if not np.isfinite(residual):
        raise NumericalError(f"Sylvester residual is not finite ({residual})")
    bound = cfg.residual_tol * (1.0 + _scaled_norm(R))
    if residual > bound:
        raise NumericalError(
            f"Sylvester residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return X


def _scaled_norm(M: np.ndarray) -> float:
    """Frobenius norm of M, taken as ||M / s|| s with s = max |M_ij| so
    that the sum of squares cannot overflow; inf or nan if M holds one."""
    s = float(np.abs(M).max(initial=0.0))
    if s == 0.0 or not math.isfinite(s):
        return s
    return float(np.linalg.norm(M / s)) * s


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _flow_triple(A, BBt, CtC, duration, P0):
    """Triple (alpha, beta, gamma) of the backward Riccati flow over
    `duration`, acting on the deviation D = P - P0 from the terminal weight:

        D  |->  gamma + alpha^T D (I + beta D)^{-1} alpha.

    The shear [[I, 0], [P0, I]] moves the Hamiltonian to the graph of P0,
    where it reads [[-Ac, B B^T], [R(P0), Ac^T]] with Ac = A - B B^T P0 and
    R(P0) the Riccati residual at P0. Anchored at 0 instead, alpha and
    beta grow like e^{lambda tau} and e^{2 lambda tau} along an unstable
    mode that C does not see, and the doubling turns singular. The
    exponential Phi is taken on a step with unit 1-norm and doubled back
    up. That step bounds the condition of alpha = Phi11^{-1} by about e^2;
    a step at the Pade limit of expm (1-norm about 5.4) would allow e^11,
    so the step is not traded for fewer doublings. One gesv against
    [I, Phi12] gives alpha and beta = alpha Phi12 together.

    The flow runs on D / d, whose Hamiltonian has off-diagonal blocks
    B B^T d and R(P0) / d, and returns (alpha, beta / d, gamma d): d is the
    power of two near sqrt(max|R(P0)| / max|B B^T|), or the one that brings
    the only nonzero block to unit size, so a step of unit 1-norm is not
    shrunk by one large weight until A is lost to rounding in alpha. A
    power of two makes the scaling exact.
    A Hamiltonian that overflows is refused (`EscapeTimeError`).
    """
    n = A.shape[0]
    P0A = P0 @ A
    R = CtC + P0A + P0A.T - P0 @ BBt @ P0
    r, b = np.abs(R).max(initial=0.0), np.abs(BBt).max(initial=0.0)
    er, eb = math.frexp(r)[1], math.frexp(b)[1]
    d = math.ldexp(1.0, er if b == 0.0 else -eb if r == 0.0 else (er - eb) // 2)
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = BBt @ P0 - A  # -Ac
    H[:n, n:] = BBt * d
    H[n:, :n] = R / d
    H[n:, n:] = -H[:n, :n].T
    if not np.isfinite(H).all():
        raise EscapeTimeError("Riccati Hamiltonian overflows: its entries are not finite")
    scale = np.abs(H).sum(axis=0).max()
    s = max(0, math.ceil(math.log2(duration) + math.log2(scale))) if scale > 0 else 0
    Phi = expm(math.ldexp(duration, -s) * H)  # duration / 2^s, exact, with no 2^s to overflow
    rhs = np.zeros((n, 2 * n))
    rhs.reshape(-1)[::2 * n + 1] = 1.0  # the identity in the left half
    rhs[:, n:] = Phi[:n, n:]
    X = _solve(Phi[:n, :n], rhs)
    alpha = X[:, :n]
    triple = (alpha, _sym(X[:, n:]), _sym(Phi[n:, :n] @ alpha))
    for _ in range(s):
        triple = _compose(triple, triple)
    alpha, beta, gamma = triple
    return alpha, beta / d, gamma * d


def _solve(W: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """W^{-1} rhs by one LAPACK gesv; a singular W is a lost flow."""
    _, _, X, info = _gesv(W, rhs)
    if info > 0:
        raise EscapeTimeError("Riccati flow lost invertibility")
    return X


def _compose(first, second):
    """The triple of the flow of `first` followed by that of `second`.

    With W = I + beta2 gamma1 the composite is

        alpha = alpha1 W^{-1} alpha2,
        beta  = beta1 + alpha1 W^{-1} beta2 alpha1^T,
        gamma = gamma2 + alpha2^T gamma1 W^{-1} alpha2,

    from one gesv over the stacked right-hand sides [alpha2, beta2 alpha1^T].
    `_compose(t, t)` is the doubling step of Anderson & Moore.
    """
    a1, b1, g1 = first
    a2, b2, g2 = second
    n = a1.shape[0]
    W = b2 @ g1
    W.reshape(-1)[::n + 1] += 1.0
    X = _solve(W, np.concatenate((a2, b2 @ a1.T), axis=1))
    Wa = X[:, :n]
    return (a1 @ Wa, _sym(b1 + a1 @ X[:, n:]), _sym(g2 + a2.T @ g1 @ Wa))


def rk4_step(f: Callable, t: float, x: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step for x' = f(t, x); x may be any array."""
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, x + (0.5 * h) * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Samples per block of the per-step arrays of a long path: the Riccati
# slopes of `lqr`, the time-varying Gramian's backward pass, and the fewest
# substeps of a `linear_path` chunk. A block holds a few hundred (n, n)
# matrices, not the whole path.
PATH_CHUNK = 256

# Entries per `linear_path` chunk, counted as n max(n, k) a substep for an
# (n, k) state: a short path at small n is one chunk, so one scan.
PATH_CHUNK_ENTRIES = 2 ** 16

# Cap on the float64 entries of the per-substep or per-node arrays of one
# path, and of the Riccati samples and transitions of `lqr.riccati_finite`:
# 512 MiB. The Riccati slopes add half of that again.
MAX_PATH_ENTRIES = 2 ** 26


def count_text(count) -> str:
    """A count for a message: exact below 2^53, where a float still holds
    every integer, and in e-notation above, so that a horizon near the
    float range does not print a count of 300 digits."""
    return f"{count:.0f}" if count < 2 ** 53 else f"{count:.3e}"


def check_path_entries(entries: float, what: str) -> None:
    """Refuse (`DomainError`) a path whose `what` would hold more than
    MAX_PATH_ENTRIES entries, before anything is allocated."""
    if not entries <= MAX_PATH_ENTRIES:
        raise DomainError(
            f"{what}: {count_text(entries)} entries, over MAX_PATH_ENTRIES = "
            f"{MAX_PATH_ENTRIES}; shorten the horizon, widen ode_step or take fewer points")


def check_within(a, b, lo, hi, what: str, interval: str = "system") -> None:
    """Refuse (`DomainError`) times [a, b] that leave [lo, hi] by more than
    1e-9 (1 + |hi - lo|); a nan bound is refused too."""
    slack = 1e-9 * (1.0 + abs(hi - lo))
    if not (a >= lo - slack and b <= hi + slack):
        raise DomainError(f"{what} [{a}, {b}] leaves the {interval} interval [{lo}, {hi}]")


# The two Gauss points of [0, 1], where the Magnus steps sample A(t), b(t).
GAUSS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class Rk4Stages:
    """The substeps of the fixed-step paths through a grid.

    Each grid gap is split uniformly into ceil(|gap| / max_step) substeps
    (at least one), with the quotient shrunk by a relative 1e-12 first: a
    gap that exceeds max_step only by rounding, as most gaps of a
    `linspace` grid spaced max_step do, takes one substep, not two.
    Substep s starts at t[s] and has length h[s] (negative
    on a decreasing grid); stop[i] is the number of substeps taken on
    reaching grid[i + 1]. `gauss[s]` holds the two Gauss times
    t + h (1/2 -+ sqrt(3)/6) of substep s.
    """

    t: np.ndarray
    h: np.ndarray
    stop: np.ndarray

    @property
    def gauss(self) -> np.ndarray:
        return self.t[:, None] + self.h[:, None] * GAUSS


def rk4_stages(grid, max_step: float) -> Rk4Stages:
    """The substep split of `rk4_path` and `linear_path` on the grid.

    A split whose stage times exceed MAX_PATH_ENTRIES is refused first.
    """
    grid = np.asarray(grid, dtype=float)
    gaps = np.diff(grid)
    with np.errstate(over="ignore"):  # an infinite count is refused below
        m = np.maximum(1, np.ceil(np.abs(gaps) / max_step * (1.0 - 1e-12)))
        substeps = m.sum()
    check_path_entries(3 * substeps, f"the stage times of {count_text(substeps)} substeps")
    m = m.astype(int)
    stop = np.cumsum(m)
    h = np.repeat(gaps / m, m)
    j = np.arange(h.size) - np.repeat(stop - m, m)
    return Rk4Stages(t=np.repeat(grid[:-1], m) + j * h, h=h, stop=stop)


def rk4_path(f: Callable, x0: np.ndarray, grid: np.ndarray, max_step: float) -> np.ndarray:
    """Integrate x' = f(t, x) through every grid point with RK4 substeps.

    The substeps are those of `rk4_stages`. Returns the states stacked
    along axis 0, one per grid point, with the initial state stored
    exactly.
    """
    grid = np.asarray(grid, dtype=float)
    stages = rk4_stages(grid, max_step)
    out = np.empty((grid.size,) + np.shape(x0), dtype=float)
    x = np.array(x0, dtype=float)
    out[0] = x
    s = 0
    for i, stop in enumerate(stages.stop.tolist()):
        for t, h in zip(stages.t[s:stop].tolist(), stages.h[s:stop].tolist()):
            x = rk4_step(f, t, x, h)
        s = stop
        out[i + 1] = x
    return out


def _exp_phi(Omega: np.ndarray, phi: bool):
    """e^Omega for a stack of Omega, and phi1(Omega) = int_0^1 e^{s Omega} ds
    if `phi`, as blocks of one expm([[Omega, I], [0, 0]])."""
    if not phi:
        return _scipy_expm(Omega), None
    n, zero = Omega.shape[-1], np.zeros_like(Omega)
    E = _scipy_expm(np.block([[Omega, zero + np.eye(n)], [zero, zero]]))
    return E[..., :n, :n], E[..., :n, n:]


def _magnus_step_maps(A: np.ndarray, b, h: np.ndarray, exps=None):
    """Fourth-order Magnus steps of x' = A(t) x + b(t) as affine maps x -> M x + c.

    A is A(t) at the two Gauss times of each substep, (c, 2, n, n), or one
    (n, n) matrix whose (e^{hA}, phi1(hA)) per substep come in `exps`; b is
    (c, 2, n, k) or None. M = e^Omega, Omega = h/2 (A1 + A2) + s [A2, A1] and
    c = phi1(Omega) (h/2 (b1 + b2) + s (A2 b1 - A1 b2)), s = sqrt(3)/12 h^2.
    """
    hh = h[:, None, None]
    A1, A2 = (A, A) if A.ndim == 2 else (A[:, 0], A[:, 1])
    s = math.sqrt(3.0) / 12.0 * hh * hh
    M, phi = exps or _exp_phi((0.5 * hh) * (A1 + A2) + s * (A2 @ A1 - A1 @ A2), b is not None)
    if b is None:
        return M, None
    return M, phi @ ((0.5 * hh) * (b[:, 0] + b[:, 1]) + s * (A2 @ b[:, 0] - A1 @ b[:, 1]))


def _scan_block(count: int, n: int, k: int, offset: bool) -> int:
    """Block length of `affine_states`: sqrt(count), or 1 (no composing)
    when composing a map costs more than the interpreted step it saves.

    Applying one map costs n^2 k flops and one interpreted step; composing
    it costs n^3 for M, n^2 k to apply the composite and, with an offset,
    n^2 k more for it, all batched across blocks. Timed on 256 orthogonal
    (n, n) maps (best of 3 x 21, BLAS on one thread, 2-core Intel Xeon,
    numpy 2.4), composing took 0.32-0.53 of the one-by-one time at n <= 8
    (k = 1 and k = n, with and without an offset) and at most 0.96 wherever
    n^2 (n + k), plus n^2 k with an offset, was at most 8192; 0.67-0.98 just
    above that (k = 1 at n = 20 and 24; k = n at n = 14 with an offset and
    at n = 17 and 20 without) and 1.1-4.7 past it (k = 1 from n = 32; k = n
    from n = 24, or from 17 with an offset). So the rule composes
    while that count is at most 8192 = 2^13, where every timed case gained.
    """
    if n * n * (n + (2 if offset else 1) * k) > 8192:
        return 1
    return math.isqrt(count)


def affine_states(M: np.ndarray, c, x0) -> np.ndarray:
    """Every state of x_{s+1} = M_s x_s + c_s from x0, stacked with x0 first.

    M is (count, n, n); c is (count,) + x0.shape, or None for c = 0; x0 is
    a vector or an (n, k) matrix. The maps compose associatively,
    x_{s+2} = (M_{s+1} M_s) x_s + (M_{s+1} c_s + c_{s+1}), so they are cut
    into blocks of L (`_scan_block`) and the in-block prefix
    compositions are formed with one batched matmul per in-block position
    across all blocks (a blocked prefix scan: Blelloch, CMU-CS-90-190,
    1990). The block starts are stepped in sequence and every state comes
    from one batched product, about 2 sqrt(count) interpreted steps in
    place of count. The last count mod L maps are applied one by one, and
    so are all of them when L = 1 or when a composed state is not finite:
    a composite can overflow where the single steps do not (the entry
    e^{1e5 t} of diag(e^{1e5 t}, e^{-t}) reaches inf, and inf times the
    zero entry of x = (0, 1) is nan), so an overflow is only reported as
    the one-by-one order meets it. The composed states differ from the
    one-by-one ones by rounding only.
    """
    x0 = np.asarray(x0, dtype=float)
    count, n = M.shape[0], M.shape[-1]
    col = x0.reshape(n, -1)
    k = col.shape[1]
    out = np.empty((count + 1, n, k))
    out[0] = col
    if c is not None:
        c = np.reshape(c, (count, n, k))
    L = _scan_block(count, n, k, c is not None)
    q = count // L if L > 1 else 0
    done = 0
    if q:
        # P[j, b] = M_{bL+j} ... M_{bL}, d[j, b] the offset it adds, y[b] the
        # state at the start of block b
        Mb = M[:q * L].reshape(q, L, n, n)
        P, d, y = np.empty((L, q, n, n)), None, np.empty((q, n, k))
        P[0], y[0] = Mb[:, 0], col
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, L):
                np.matmul(Mb[:, j], P[j - 1], out=P[j])
            if c is not None:
                cb = c[:q * L].reshape(q, L, n, k)
                d = np.empty((L, q, n, k))
                d[0] = cb[:, 0]
                for j in range(1, L):
                    np.matmul(Mb[:, j], d[j - 1], out=d[j])
                    d[j] += cb[:, j]
            for b in range(q - 1):
                P[-1, b].dot(y[b], y[b + 1])
                if d is not None:
                    y[b + 1] += d[-1, b]
            S = P @ y
            if d is not None:
                S += d
        if np.isfinite(S).all():
            out[1:q * L + 1].reshape(q, L, n, k)[:] = S.swapaxes(0, 1)
            done = q * L
    # the bound ndarray.dot is np.dot's C routine without its dispatch
    steps = zip(M[done:], out[done:-1], out[done + 1:])
    if c is None:
        for Ms, x, y in steps:
            Ms.dot(x, y)
    else:
        for (Ms, x, y), cs in zip(steps, c[done:]):
            Ms.dot(x, y)
            y += cs
    return out.reshape((count + 1,) + x0.shape)


def linear_path(coefficients: Callable, x0, stages: Rk4Stages) -> np.ndarray:
    """Magnus steps for the linear system x' = A(t) x + b(t), x a vector or a matrix.

    Takes the substeps of `stages` (see `rk4_stages`) in chunks of
    max(PATH_CHUNK, PATH_CHUNK_ENTRIES // (n max(n, k))) for a state of
    shape (n,) or (n, k): each chunk's arrays hold a bounded number of
    entries, and a 1,000-substep path at n <= 8 is one chunk. For each
    chunk, `coefficients(sl)` returns (A, b) sampled at `stages.gauss[sl]`:
    A of shape (c, 2, n, n), or one (n, n) matrix when it is constant, and
    b of shape (c, 2) + x0.shape, or None for b = 0. The chunk's step maps
    are batched (`_magnus_step_maps`) and applied by `affine_states`, which
    composes them where that is cheaper; the grid points' states are
    picked out of its states. Returns the states at the grid points that
    `stages` was built on, the first one x0 exactly.
    """
    x = np.array(x0, dtype=float)
    col = x.reshape(x.shape[0], -1)
    out = np.empty((stages.stop.size + 1,) + col.shape)
    out[0] = col
    lengths, which = np.unique(stages.h, return_inverse=True)
    table = None
    count = stages.h.size
    chunk = max(PATH_CHUNK, PATH_CHUNK_ENTRIES // (col.shape[0] * max(col.shape)))
    for lo in range(0, count, chunk):
        sl = slice(lo, min(lo + chunk, count))
        A, b = coefficients(sl)
        if b is not None:
            b = np.reshape(b, b.shape[:2] + col.shape)
        if A.ndim == 2:  # e^{hA} and phi1(hA) once per path and distinct substep length
            table = table or _exp_phi(lengths[:, None, None] * A, b is not None)
        exps = table and tuple(None if e is None else e[which[sl]] for e in table)
        M, c = _magnus_step_maps(A, b, stages.h[sl], exps)
        states = affine_states(M, c, col)
        col = states[-1]
        # grid point i + 1 is reached after stop[i] substeps
        i, j = np.searchsorted(stages.stop, [lo, sl.stop], side="right")
        out[i + 1:j + 1] = states[stages.stop[i:j] - lo]
    return out.reshape((out.shape[0],) + x.shape)


def sample_at(fn: Callable, times) -> np.ndarray:
    """fn(t) at every entry of an array of times, calling fn once per
    distinct time; the result has shape times.shape + the value's shape."""
    times = np.asarray(times, dtype=float)
    distinct, where = np.unique(times, return_inverse=True)
    ts = distinct.tolist()
    first = np.asarray(fn(ts[0]), dtype=float)
    values = np.empty((len(ts),) + first.shape)  # filled row by row, no list of arrays
    values[0] = first
    for i in range(1, len(ts)):
        values[i] = fn(ts[i])
    return values[where.reshape(times.shape)]


def resolvent(sys: "LtvSystem", s: float, t: float,
              cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """State-transition matrix R(t, s) of x' = A(tau) x.

    Solves the matrix ODE d/dt R(t, s) = A(t) R(t, s), R(s, s) = I by
    fourth-order Magnus steps (`linear_path`, step <= cfg.ode_step), A
    sampled once at each Gauss time. Works in both time directions.
    """
    # sorting two times keeps a nan in the pair, where it is refused
    check_within(*sorted((s, t)), sys.t0, sys.t1, "resolvent times")
    n = sys.n
    if t == s:
        return np.eye(n)
    stages = rk4_stages([s, t], cfg.ode_step)
    times = stages.gauss
    return linear_path(lambda sl: (sample_at(sys.A_of, times[sl]), None), np.eye(n), stages)[-1]


def step_count(span: float, max_step: float) -> int:
    """ceil(span / max_step), the count of steps at most max_step long; a
    step of 0 and a span of no finite count are refused (`DomainError`)."""
    if not (max_step > 0.0 and math.isfinite(span / max_step)):
        raise DomainError(f"a span of {span} has no finite count of steps of {max_step}")
    return math.ceil(span / max_step)


def simpson_intervals(span: float, max_step: float) -> int:
    """Even interval count with spacing at most max_step (`step_count`)."""
    m = max(2, step_count(span, max_step))
    return m + (m % 2)


def simpson_weights(count: int) -> np.ndarray:
    """Composite Simpson weights for count+1 nodes (count even), without h/3."""
    if count % 2 != 0 or count < 2:
        raise ValueError("Simpson rule needs an even, positive interval count")
    w = np.ones(count + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def composite_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson quadrature of uniformly sampled values.

    values has the node axis first. An odd interval count is handled by
    Simpson on the leading even part plus the 3/8 rule on the last three
    intervals, so any uniform grid with >= 3 nodes integrates at fourth
    order.
    """
    values = np.asarray(values, dtype=float)
    K = values.shape[0]
    if K < 2:
        return np.zeros(values.shape[1:])
    if K == 2:
        return 0.5 * h * (values[0] + values[1])
    m = K - 1
    if m % 2 == 0:
        w = simpson_weights(m) * (h / 3.0)
    else:
        w = np.zeros(K)
        if m >= 5:
            w[: m - 3 + 1] += simpson_weights(m - 3) * (h / 3.0)
        else:  # m == 3: pure 3/8 rule
            pass
        w[m - 3:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return np.tensordot(w, values, axes=(0, 0))


@dataclass(frozen=True)
class SampledMatrixFunction:
    """Cubic-Hermite dense output over uniform samples of a smooth function.

    values[k] and derivs[k] are the function and its time derivative at
    t0 + k h; the interpolation error is O(h^4), matching the paths
    the samples come from. Values may have any trailing shape.
    """

    t0: float
    h: float
    values: np.ndarray
    derivs: np.ndarray

    def __call__(self, t) -> np.ndarray:
        """The value at time t, or at every entry of an array of times
        (shape t.shape + the trailing shape of the values)."""
        K = self.values.shape[0] - 1
        u = (np.asarray(t, dtype=float) - self.t0) / self.h
        # the ufuncs and ndarray.take, not np.clip and np.take, whose Python
        # wrappers cost more than the arithmetic on a 16-row call
        k = np.minimum(np.maximum(np.floor(u), 0), K - 1).astype(int)
        th = (u - k)[(...,) + (None,) * (self.values.ndim - 1)]
        th2 = th * th
        th3 = th2 * th
        h00 = 2.0 * th3 - 3.0 * th2 + 1.0
        h10 = th3 - 2.0 * th2 + th
        h01 = -2.0 * th3 + 3.0 * th2
        h11 = th3 - th2
        # take copies, so the four terms accumulate in place in three
        # arrays the size of the result
        out = self.values.take(k, axis=0)
        out *= h00
        term = self.values.take(k + 1, axis=0)
        term *= h01
        out += term
        slope = self.derivs.take(k, axis=0)
        slope *= h10
        self.derivs.take(k + 1, axis=0, out=term, mode="clip")  # unbuffered
        term *= h11
        slope += term
        slope *= self.h
        out += slope
        return out


def sign_normalize_columns(U: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each is positive."""
    U = U.copy()
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
    return U
