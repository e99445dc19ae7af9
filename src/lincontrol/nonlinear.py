"""Local steering of nonlinear systems through the linear test.

A C^1 system x' = f(x, u) linearized along a reference trajectory gives
A(t) = f_x(xbar, ubar), B(t) = f_u(xbar, ubar). When that linear
time-varying system is controllable, nearby endpoints are reached by the
fixed-point iteration

    phi  <-  phi - H(phi) + x1,

where H(phi) is the terminal state of the nonlinear flow driven by
ubar + du(phi) and du is the Gramian-inverse steering control of the
linearization. The map contracts on a small ball around x1.

At an equilibrium reference (`equilibrium_reference`) the linearization
is the one constant pair A = f_x(x_e, u_e), B = f_u(x_e, u_e): its
Jacobians are evaluated once and its Gramian is read off the flow
triple, as for any LtiSystem; each pass's control u_e + B^T w(s) is one
sampled signal, the Hermite dense output of its node values. Any other
reference is linearized as a time-varying system, sampled at the Gauss
times and nodes of the Gramian's Magnus steps. The nonlinear flow is the
adaptive DOP853 pair (`integrate_field`): its steps (`_flow_steps`) do not
depend on the output grid, which its dense output fills in afterwards
(`_fill`). A steer fills the grid for the pass it returns only, and a
converged steer carries the gap to a flow at 1/100 of its tolerance as
its `flow_error`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import dop853, kernels, reachability
from .errors import (
    DimensionError,
    DivergenceError,
    DomainError,
    FlowAccuracyError,
    LinearTestInapplicableError,
    NumericalError,
    TrustRegionError,
)
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig
from .systems import ControlSignal, LtiSystem, LtvSystem, Trajectory

FD_STEP = 1e-6  # relative central-difference step for absent partials


@dataclass(frozen=True)
class VectorField:
    """f: R^n x R^p -> R^n with optional analytic partials.

    Missing f_x or f_u fall back to central finite differences with a
    relative step, accurate enough for every tolerance used here.
    """

    state_dim: int
    control_dim: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fx: Optional[Callable] = None
    fu: Optional[Callable] = None

    def __call__(self, x, u) -> np.ndarray:
        return _derivative(self.f, np.asarray(x, float), np.asarray(u, float),
                           self.state_dim)

    def jacobian_x(self, x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if self.fx is not None:
            return np.asarray(self.fx(x, u), dtype=float)
        return _central_jacobian(lambda xv: self(xv, u), x, self.state_dim)

    def jacobian_u(self, x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if self.fu is not None:
            return np.asarray(self.fu(x, u), dtype=float)
        return _central_jacobian(lambda uv: self(x, uv), u, self.state_dim)


def _central_jacobian(g: Callable, z: np.ndarray, rows: int) -> np.ndarray:
    J = np.empty((rows, z.size))
    for i in range(z.size):
        h = FD_STEP * (1.0 + abs(z[i]))
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        J[:, i] = (g(zp) - g(zm)) / (2.0 * h)
    return J


@dataclass(frozen=True)
class ReferenceTrajectory:
    """A C^1 trajectory (xbar, ubar) of a vector field on [t0, t1].

    Construction checks the lengths of xbar(t0) and ubar(t0)
    (`DimensionError`) and verifies xbar' = f(xbar, ubar) on an interior
    grid, the derivative taken by central differences of the callable. A
    reference built by `equilibrium_reference` also keeps its (x_e, u_e),
    which that function has checked, and skips both checks.
    """

    vf: VectorField
    t0: float
    t1: float
    xbar: Callable[[float], np.ndarray]
    ubar: Callable[[float], np.ndarray]
    _equilibrium: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        kernels.require_interval(self.t0, self.t1)
        if self._equilibrium is not None:  # checked by equilibrium_reference
            return
        _check_lengths(self.vf, self.xbar(self.t0), self.ubar(self.t0),
                       "xbar(t0) and ubar(t0)")
        span = self.t1 - self.t0
        hd = 1e-5 * span
        residuals = []
        # an hd that underflows gives a nan residual, which np.max keeps
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for t in np.linspace(self.t0 + 2 * hd, self.t1 - 2 * hd, 17):
                xdot = (np.asarray(self.xbar(t + hd), float)
                        - np.asarray(self.xbar(t - hd), float)) / (2.0 * hd)
                residuals.append(np.linalg.norm(xdot - self.vf(self.xbar(t), self.ubar(t))))
        worst = float(np.max(residuals))
        if not worst <= 1e-6:
            raise ValueError(
                f"reference does not solve the dynamics (residual {worst:.3e})")


def _check_lengths(vf: VectorField, x, u, names: str) -> None:
    """Refuse (`DimensionError`) an x or u whose length is not the field's."""
    if (np.size(x), np.size(u)) != (vf.state_dim, vf.control_dim):
        raise DimensionError(
            f"{names} must have lengths {vf.state_dim} and {vf.control_dim}, "
            f"got {np.size(x)} and {np.size(u)}")


def equilibrium_reference(vf: VectorField, x_eq, u_eq, t0: float, t1: float,
                          tol: float = 1e-9) -> ReferenceTrajectory:
    """Constant reference at an equilibrium, after checking the lengths of
    x_e and u_e (`DimensionError`) and f(x_e, u_e) = 0."""
    x_eq = kernels.as_vector(x_eq, "x_eq")
    u_eq = kernels.as_vector(u_eq, "u_eq")
    _check_lengths(vf, x_eq, u_eq, "x_eq and u_eq")
    drift = float(np.linalg.norm(vf(x_eq, u_eq)))
    if drift > tol:
        raise ValueError(f"(x_eq, u_eq) is not an equilibrium: |f| = {drift:.3e}")
    return ReferenceTrajectory(vf, t0, t1, lambda t: x_eq, lambda t: u_eq,
                               _equilibrium=(x_eq, u_eq))


@dataclass(frozen=True)
class SteeringResult:
    trajectory: Trajectory
    control: ControlSignal
    iterations: int
    terminal_error: float
    converged: bool
    error_history: tuple
    flow_error: Optional[float] = None  # certified gap; None unless converged


def linearize_along(vf: VectorField, ref: ReferenceTrajectory) -> LtvSystem:
    """Time-varying linearization A(t), B(t) along the reference."""
    return LtvSystem(
        ref.t0, ref.t1,
        lambda t: vf.jacobian_x(ref.xbar(t), ref.ubar(t)),
        lambda t: vf.jacobian_u(ref.xbar(t), ref.ubar(t)),
    )


def _derivative(f: Callable, x: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """f(x, u) as a float vector, refused unless it has length n."""
    out = np.asarray(f(x, u), dtype=float)
    if out.shape != (n,):
        raise DimensionError(f"f must return a vector of length {n}")
    return out


# Attempted steps allowed to one flow (about 1.2 million field evaluations);
# a flow that needs more is refused.
MAX_FLOW_STEPS = 100_000
# The least rtol = atol of a steering pass's flow, about 5 ulp of 1; its
# certificate runs at 1/100 of the pass's tolerance.
FLOW_TOL_FLOOR = 1e-15
# Hairer's step-size controller: h <- h * SAFETY * err^(-1/8), the factor
# kept within [MIN_FACTOR, MAX_FACTOR] and at most 1 after a rejection.
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 1.0 / 3.0, 6.0

_ROWS = [dop853.A[s, :s].copy() for s in range(16)]  # stage s from stages 0..s-1
_ESTIMATES = np.stack([dop853.E5, dop853.E3, dop853.B])


def _norm(v: np.ndarray) -> float:
    """The 2-norm of v, rescaled where its sum of squares overflows."""
    square = float(v.dot(v))
    return math.sqrt(square) if square < math.inf else kernels._scaled_norm(v)


def _rms(v: np.ndarray) -> float:
    return _norm(v) / math.sqrt(max(v.size, 1))


def integrate_field(vf: VectorField, x0, u: ControlSignal, grid,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Trajectory:
    """Flow of x' = f(x, u(t)) from grid[0] through the grid points.

    DOP853 (`dop853`) with Hairer's step-size control and initial step
    (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4-II.6), at
    rtol = atol = 1e-3 cfg.fixed_point_tol: the steps are the method's own,
    not the grid's (`_flow_steps`, which sees only grid[0] and grid[-1]),
    and the states at the grid points come from the seventh-order dense
    output of the step that holds them (`_fill`; the last one is the
    step's end). cfg.ode_step plays no part. u is sampled at grid[0],
    once per attempted step, in one array at its 16 stage times, and once
    at the grid points; the stages call vf.f directly and check what it
    returns as `VectorField.__call__` does.

    The flow is refused (`NumericalError`, naming the time t it reached)
    when its step falls below 10 ulp of t, where a trial state or
    derivative that is not finite reports the flow as not finite, and when
    it attempts more than MAX_FLOW_STEPS steps.
    """
    x0 = kernels.as_state(x0, vf.state_dim, "x0")
    grid = np.asarray(grid, float)
    steps, _ = _flow_steps(vf, x0, u, grid[0], grid[-1], cfg)
    return _fill(vf, x0, u, grid, steps)


def _flow_steps(vf: VectorField, x0: np.ndarray, u: ControlSignal, t: float,
                t_end: float, cfg: ToleranceConfig) -> tuple:
    """The accepted DOP853 steps of the flow from x0 at t to t_end, and its
    state at t_end.

    Each step is kept as (t, t_new, h, x, x_new, K, U): K holds its 13
    stage slopes (rows 13-15 are left for `_fill`), U the control at its
    16 stage times. Nothing here depends on an output grid.
    """
    f, n = vf.f, vf.state_dim
    tol = 1e-3 * cfg.fixed_point_tol
    t, t_end, x = float(t), float(t_end), x0
    K = np.empty((16, n))
    steps, attempts = [], 0
    # a state or derivative that is not finite is rejected below, never warned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        K[0] = _derivative(f, x, u.at(np.array([t]))[0], n)
        finite = bool(np.isfinite(K[0]).all())
        h = _initial_step(f, n, x, K[0], u, t, t_end - t, tol)
        while t < t_end:
            rejected = False
            while True:
                if not h >= 10.0 * (math.nextafter(t, math.inf) - t):
                    what = "state is not finite" if not finite else "step fell below 10 ulp"
                    raise NumericalError(f"flow {what} at t = {t:.6g}")
                attempts += 1
                if attempts > MAX_FLOW_STEPS:
                    raise NumericalError(
                        f"flow took over MAX_FLOW_STEPS = {MAX_FLOW_STEPS} steps "
                        f"by t = {t:.6g}")
                last = t + 1.01 * h >= t_end
                if last:
                    h = t_end - t
                U = u.at(t + dop853.C * h)
                for s in range(1, 12):
                    K[s] = _derivative(f, x + h * (_ROWS[s] @ K[:s]), U[s], n)
                err5, err3, slope = _ESTIMATES @ K[:12]
                x_new = x + h * slope
                scale = tol * (1.0 + np.maximum(np.abs(x), np.abs(x_new)))
                e5, e3 = _norm(err5 / scale), _norm(err3 / scale)
                # h |e5|^2 / sqrt(n (|e5|^2 + |e3|^2 / 100)), which cannot overflow
                err = h * e5 * (e5 / math.hypot(e5, 0.1 * e3)) / math.sqrt(n) if e5 else 0.0
                finite = math.isfinite(err) and bool(np.isfinite(x_new).all())
                if finite and err < 1.0:
                    break
                factor = SAFETY * err ** -0.125 if finite else MIN_FACTOR
                h *= max(MIN_FACTOR, factor)
                rejected = True
            t_new = t_end if last else t + h
            K[12] = _derivative(f, x_new, U[12], n)
            steps.append((t, t_new, h, x, x_new, K, U))
            factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err ** -0.125)
            h *= min(1.0, factor) if rejected else factor
            t, x = t_new, x_new
            K_next = np.empty((16, n))
            K_next[0] = K[12]
            K = K_next
    return steps, x


def _fill(vf: VectorField, x0: np.ndarray, u: ControlSignal, grid: np.ndarray,
          steps: list) -> Trajectory:
    """The trajectory of the flow `steps` (from `_flow_steps`, started at
    x0 at grid[0]) at the grid points: a step that holds grid points forms
    its stages 13-15 and their seventh-order dense output (`_dense`), and
    a grid point at a step's end takes that step's state."""
    f, n = vf.f, vf.state_dim
    states = np.empty((grid.size, n))
    states[0] = x0
    row = 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t, t_new, h, x, x_new, K, U in steps:
            stop = int(grid.searchsorted(t_new))
            if stop > row:  # grid points inside the step
                for s in range(13, 16):
                    K[s] = _derivative(f, x + h * (_ROWS[s] @ K[:s]), U[s], n)
                states[row:stop] = _dense(x, x_new, K, h, (grid[row:stop] - t) / h)
            if stop < grid.size and grid[stop] == t_new:
                states[stop] = x_new
                stop += 1
            row = stop
    return Trajectory(grid=grid, states=states, controls=np.asarray(u.at(grid), dtype=float))


def _initial_step(f, n, x, f0, u, t, span, tol) -> float:
    """Hairer's starting step (Solving ODEs I, Sec. II.4): one Euler probe
    of length h0 = d0/(100 d1) gauges the second derivative, and the step
    is min(100 h0, (0.01 / max(d1, d2))^(1/8), span)."""
    scale = tol * (1.0 + np.abs(x))
    d0, d1 = _rms(x / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not h0 > 0.0:  # f0 too large to scale: the first step is refused
        return 0.0
    f1 = _derivative(f, x + h0 * f0, u.at(np.array([t + h0]))[0], n)
    d2 = _rms((f1 - f0) / scale) / h0
    d12 = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d12 <= 1e-15 else (0.01 / d12) ** 0.125
    return min(100.0 * h0, h1, span)


def _dense(x, x_new, K, h, theta) -> np.ndarray:
    """The seventh-order dense output of one step at the fractions theta
    of it (Hairer, Norsett & Wanner, Sec. II.6). Hairer's CONTD8 nests it
    as x + th (F0 + (1 - th)(F1 + th (F2 + ... + th F6))); row k of W is
    the product of the first k + 1 factors th, 1 - th, th, ..., the weight
    of Fk."""
    delta = x_new - x
    F = np.empty((7, x.size))
    F[0] = delta
    F[1] = h * K[0] - delta
    F[2] = 2.0 * delta - h * (K[12] + K[0])
    F[3:] = h * (dop853.D @ K)
    W = np.empty((theta.size, 7))
    W[:, 0::2] = theta[:, None]
    W[:, 1::2] = 1.0 - theta[:, None]
    np.cumprod(W, axis=1, out=W)
    return x + W @ F


def steer_nonlinear(vf: VectorField, ref: ReferenceTrajectory, x0, x1,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                    delta: float = 0.1) -> SteeringResult:
    """Steer x0 at t0 to x1 at t1 along the reference.

    Both endpoints must lie within `delta` of the reference endpoints.
    Each pass recomputes the linear steering control for the current
    target iterate phi, flows the nonlinear system, and updates
    phi <- phi - H(phi) + x1. Divergence is declared when the iterate
    leaves the ball of radius 10 delta around x1 or is not finite.

    A pass's control is ubar(s) + B(s)^T w(s), the reference control plus
    the minimum-energy control of the linearization toward phi - xbar(t1),
    built by `reachability._steering`. An equilibrium reference is steered
    through its constant linearization: f_x and f_u are evaluated once at
    (x_e, u_e), the Gramian is read off the flow triple (see
    `reachability._gramian`), and the control is the Hermite dense output
    of its samples u_e + w B. Any other reference goes through
    `linearize_along`, its control evaluating f_u and ubar at each time
    it is sampled.

    Each pass flows by the steps of `integrate_field` (`_flow_steps`) at
    rtol = atol = 1e-3 fixed_point_tol, floored at FLOW_TOL_FLOOR, and
    reads only their endpoint. On the converged pass the same control is
    flowed again at 1/100 of that tolerance, and the gap between the two
    endpoints is returned as `flow_error`; a gap that is not below
    fixed_point_tol is refused (`FlowAccuracyError`), since the terminal
    error would then be measured against a flow less accurate than the
    claim. The steps do not depend on the grid, so neither the passes nor
    the certificate form the dense output (stages 13-15 and `_dense`) that
    only fills in the grid: `_fill` forms it once, for the pass returned
    (the converged one, or the last when max_iter runs out), whose
    trajectory is then `integrate_field` of its control bit for bit.
    A trust radius that is not positive is refused (`DomainError`).
    """
    if not delta > 0.0:
        raise DomainError(f"trust radius must be positive, got {delta}")
    x0 = kernels.as_state(x0, vf.state_dim, "x0")
    x1 = kernels.as_state(x1, vf.state_dim, "x1")
    t0, t1 = ref.t0, ref.t1
    xbar0 = np.asarray(ref.xbar(t0), dtype=float)
    xbar1 = np.asarray(ref.xbar(t1), dtype=float)
    dx0 = x0 - xbar0
    if np.linalg.norm(dx0) > delta:
        raise TrustRegionError(
            f"x0 is {np.linalg.norm(dx0):.3g} from the reference start, "
            f"beyond the trust radius {delta}")
    if np.linalg.norm(x1 - xbar1) > delta:
        raise TrustRegionError(
            f"x1 is {np.linalg.norm(x1 - xbar1):.3g} from the reference end, "
            f"beyond the trust radius {delta}")

    equilibrium = ref._equilibrium
    if equilibrium is None:
        lin = linearize_along(vf, ref)

        def ubar(s):
            return kernels.sample_at(lambda t: np.atleast_1d(ref.ubar(t)), s)
    else:
        lin = LtiSystem(vf.jacobian_x(*equilibrium), vf.jacobian_u(*equilibrium))
        ubar = equilibrium[1]
    report, R10, adjoint = reachability._gramian(lin, t0, t1, cfg)
    if not report.invertible:
        raise LinearTestInapplicableError(
            "the linearized system is not controllable on the interval "
            f"(Gramian min eigenvalue {report.min_eigenvalue:.3e})",
            min_eigenvalue=report.min_eigenvalue)
    G = report.gramian
    # simulate on the Simpson nodes of the adjoint; spacing <= ode_step
    m = kernels.simpson_intervals(t1 - t0, cfg.ode_step)
    kernels.check_path_entries(m + 1, "the steering grid")
    grid = np.linspace(t0, t1, m + 1)

    def control_for(phi: np.ndarray) -> ControlSignal:
        z = np.linalg.solve(G, (phi - xbar1) - R10 @ dx0)
        return reachability._steering(lin, adjoint(z), t1, ubar)

    # the passes' flows at rtol = atol = 1e-3 fixed_point_tol, floored;
    # the certificate's at 1/100 of that
    flow_cfg = replace(cfg, fixed_point_tol=max(cfg.fixed_point_tol, 1e3 * FLOW_TOL_FLOOR))
    fine_cfg = replace(cfg, fixed_point_tol=flow_cfg.fixed_point_tol / 100.0)
    phi = x1.copy()
    errors = []
    for iteration in range(1, cfg.max_iter + 1):
        control = control_for(phi)
        steps, endpoint = _flow_steps(vf, x0, control, grid[0], grid[-1], flow_cfg)
        err = float(np.linalg.norm(endpoint - x1))
        errors.append(err)
        if err <= cfg.fixed_point_tol:
            fine = _flow_steps(vf, x0, control, grid[0], grid[-1], fine_cfg)[1]
            flow_error = float(np.linalg.norm(endpoint - fine))
            if not flow_error < cfg.fixed_point_tol:
                raise FlowAccuracyError(
                    f"flow error {flow_error:.3e} is not below fixed_point_tol = "
                    f"{cfg.fixed_point_tol:.1e}: the terminal error "
                    f"{err:.3e} is not resolved", flow_error=flow_error)
            return SteeringResult(
                trajectory=_fill(vf, x0, control, grid, steps), control=control,
                iterations=iteration, terminal_error=err, converged=True,
                error_history=tuple(errors), flow_error=flow_error)
        phi = phi - endpoint + x1
        if not np.linalg.norm(phi - x1) <= 10.0 * delta:  # a nan iterate diverged too
            raise DivergenceError(
                f"iterate left the trust ball after {iteration} passes",
                history=tuple(errors))
    return SteeringResult(
        trajectory=_fill(vf, x0, control, grid, steps), control=control,
        iterations=cfg.max_iter, terminal_error=errors[-1], converged=False,
        error_history=tuple(errors))
