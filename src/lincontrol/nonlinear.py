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
triple, as for any LtiSystem. Any other reference is
linearized as a time-varying system, sampled at the Gauss times and nodes
of the Gramian's Magnus steps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import kernels, reachability
from .errors import (
    DimensionError,
    DivergenceError,
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
    reference built by `equilibrium_reference` also keeps its (x_e, u_e).
    """

    vf: VectorField
    t0: float
    t1: float
    xbar: Callable[[float], np.ndarray]
    ubar: Callable[[float], np.ndarray]
    _equilibrium: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.t0 < self.t1:
            raise ValueError("need t0 < t1")
        _check_lengths(self.vf, self.xbar(self.t0), self.ubar(self.t0),
                       "xbar(t0) and ubar(t0)")
        span = self.t1 - self.t0
        hd = 1e-5 * span
        worst = 0.0
        for t in np.linspace(self.t0 + 2 * hd, self.t1 - 2 * hd, 17):
            xdot = (np.asarray(self.xbar(t + hd), float)
                    - np.asarray(self.xbar(t - hd), float)) / (2.0 * hd)
            worst = max(worst, float(np.linalg.norm(
                xdot - self.vf(self.xbar(t), self.ubar(t)))))
        if worst > 1e-6:
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


def integrate_field(vf: VectorField, x0, u: ControlSignal, grid,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Trajectory:
    """RK4 flow of x' = f(x, u(t)) through the grid points.

    The substeps are those of `kernels.rk4_stages`, each taken with the
    arithmetic of `kernels.rk4_step`; the stages call vf.f directly and
    check what it returns as `VectorField.__call__` does. u is sampled
    once, in one array, at the stage times of the flow and at the grid
    points: stage times t, t + h/2 and t + h of substep s are rows 3s,
    3s + 1 and 3s + 2. A flow whose state overflows raises NumericalError
    naming the first grid time where it is not finite.
    """
    x0 = kernels.as_vector(x0, "x0")
    grid = np.asarray(grid, float)
    stages = kernels.rk4_stages(grid, cfg.ode_step)
    U = np.asarray(u.at(np.concatenate([stages.times.ravel(), grid])), dtype=float)
    f, n = vf.f, vf.state_dim
    states = np.empty((grid.size, x0.size))
    states[0] = x = x0
    hs = stages.h.tolist()
    start = 0
    # an overflow shows as a non-finite state and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for i, stop in enumerate(stages.stop.tolist(), 1):
            for s in range(start, stop):
                h, r = hs[s], 3 * s
                half = 0.5 * h
                k1 = _derivative(f, x, U[r], n)
                k2 = _derivative(f, x + half * k1, U[r + 1], n)
                k3 = _derivative(f, x + half * k2, U[r + 1], n)
                k4 = _derivative(f, x + h * k3, U[r + 2], n)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states[i] = x
            start = stop
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise NumericalError(f"flow state is not finite at t = {grid[np.argmin(finite)]:.6g}")
    return Trajectory(grid=grid, states=states, controls=U[-grid.size:])


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
    built as `reachability.min_energy_control` builds it. An equilibrium
    reference is steered through its constant linearization: f_x and f_u
    are evaluated once at (x_e, u_e), the Gramian is read off the flow
    triple (see `reachability._gramian`), and ubar = u_e. Any other
    reference goes through `linearize_along`, with f_u and ubar evaluated
    once a time per steer.
    """
    x0 = kernels.as_vector(x0, "x0")
    x1 = kernels.as_vector(x1, "x1")
    if x0.size != vf.state_dim or x1.size != vf.state_dim:
        raise DimensionError(
            f"x0 and x1 must have length {vf.state_dim}, got {x0.size} and {x1.size}")
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
        # the passes sample the same times: f_u and ubar once a time per steer
        cache = functools.lru_cache(maxsize=None)
        lin = linearize_along(vf, ref)
        lin = replace(lin, B_of=cache(lin.B_of))
        ubar_of = cache(lambda t: np.atleast_1d(ref.ubar(t)))

        def ubar(s):
            return kernels.sample_at(ubar_of, s)
    else:
        lin = LtiSystem(vf.jacobian_x(*equilibrium), vf.jacobian_u(*equilibrium))

        def ubar(s):
            return equilibrium[1]
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
        u = reachability._steering(lin, adjoint(z))
        return ControlSignal.vectorized(t0, t1, vf.control_dim, lambda s: ubar(s) + u(s))

    phi = x1.copy()
    errors = []
    traj = None
    control = None
    for iteration in range(1, cfg.max_iter + 1):
        control = control_for(phi)
        traj = integrate_field(vf, x0, control, grid, cfg)
        endpoint = traj.final_state()
        err = float(np.linalg.norm(endpoint - x1))
        errors.append(err)
        if err <= cfg.fixed_point_tol:
            return SteeringResult(
                trajectory=traj, control=control, iterations=iteration,
                terminal_error=err, converged=True, error_history=tuple(errors))
        phi = phi - endpoint + x1
        if not np.linalg.norm(phi - x1) <= 10.0 * delta:  # a nan iterate diverged too
            raise DivergenceError(
                f"iterate left the trust ball after {iteration} passes",
                history=errors)
    return SteeringResult(
        trajectory=traj, control=control, iterations=cfg.max_iter,
        terminal_error=errors[-1], converged=False, error_history=tuple(errors))
