"""System models and trajectory simulation.

The solution of x' = A(t) x + B(t) u is integrated with fixed-step
fourth-order Magnus steps (`kernels.linear_path`): for constant A a step
is the variation-of-constants (Duhamel) formula x(t) = e^{(t-t0)A} x0 +
int e^{(t-s)A} B u(s) ds, exact in A and fourth order in the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import DimensionError, DomainError, NumericalError
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix


@dataclass(frozen=True)
class LtiSystem:
    """Constant-coefficient system x' = A x + B u with observation y = C x.

    C defaults to the identity, which matches the convention used when a
    full-state cost or observation is intended.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray = None

    def __post_init__(self):
        A = kernels.require_square(self.A, "A")
        B = as_matrix(self.B, "B")
        if B.shape[0] != A.shape[0]:
            raise DimensionError(
                f"B must have {A.shape[0]} rows, got shape {B.shape}")
        C = np.eye(A.shape[0]) if self.C is None else as_matrix(self.C, "C")
        if C.shape[1] != A.shape[0]:
            raise DimensionError(
                f"C must have {A.shape[0]} columns, got shape {C.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def m(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class LtvSystem:
    """Time-varying pair (A(t), B(t)) on a closed interval [t0, t1]."""

    t0: float
    t1: float
    A_of: Callable[[float], np.ndarray]
    B_of: Callable[[float], np.ndarray]

    def __post_init__(self):
        kernels.require_interval(self.t0, self.t1)
        A0 = kernels.require_square(self.A_of(self.t0), "A(t0)")
        B0 = as_matrix(self.B_of(self.t0), "B(t0)")
        if B0.shape[0] != A0.shape[0]:
            raise DimensionError(
                f"B(t) must have {A0.shape[0]} rows, got shape {B0.shape}")
        object.__setattr__(self, "_n", A0.shape[0])
        object.__setattr__(self, "_p", B0.shape[1])

    @property
    def n(self) -> int:
        return self._n

    @property
    def p(self) -> int:
        return self._p

    @property
    def interval(self) -> tuple:
        return (self.t0, self.t1)


@dataclass(frozen=True)
class ControlSignal:
    """A control u: [t0, t1] -> R^p given by a reentrant callable.

    `u_of(t)` is the public view, one time at a time. `at(times)` returns
    the samples at an array of times in one array: a control built by
    `vectorized` answers it in one call, any other calls u_of once per
    distinct time.
    """

    t0: float
    t1: float
    dim: int
    u_of: Callable[[float], np.ndarray]
    _u_at: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False, compare=False)

    @property
    def interval(self) -> tuple:
        return (self.t0, self.t1)

    def at(self, times) -> np.ndarray:
        """u at every entry of an array of times, shape times.shape + (dim,)."""
        times = np.asarray(times, dtype=float)
        if not times.size:   # sample_at learns the value's shape from a first call
            return np.empty(times.shape + (self.dim,))
        if self._u_at is not None:
            return self._u_at(times)
        return kernels.sample_at(self.u_of, times).reshape(times.shape + (self.dim,))

    @classmethod
    def vectorized(cls, t0: float, t1: float, dim: int,
                   u_at: Callable[[np.ndarray], np.ndarray]) -> "ControlSignal":
        """A control from u_at(times), which maps an array of times to
        samples of shape times.shape + (dim,) and serves as u_of too."""
        return cls(t0, t1, dim, u_at, u_at)

    @classmethod
    def zero(cls, dim: int, t0: float, t1: float) -> "ControlSignal":
        return cls.vectorized(t0, t1, dim, lambda t: np.zeros(np.shape(t) + (dim,)))


@dataclass(frozen=True)
class Trajectory:
    """Time grid with state samples and, optionally, control samples."""

    grid: np.ndarray
    states: np.ndarray
    controls: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if np.any(np.diff(grid) <= 0):
            raise DomainError("trajectory grid must be strictly increasing")
        if states.shape[0] != grid.size:
            raise DimensionError("states must have one row per grid point")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "states", states)
        if self.controls is not None:
            controls = np.asarray(self.controls, dtype=float)
            if controls.shape[0] != grid.size:
                raise DimensionError("controls must have one row per grid point")
            object.__setattr__(self, "controls", controls)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def subsample(self, points: int) -> "Trajectory":
        """Every k-th sample from the first, k = max(1, (K - 1) // (points - 1))
        for K samples, and the last, so about `points` (at least two) of
        them remain and the subsample ends where the trajectory does."""
        if points < 2:
            raise DomainError("a subsample needs at least two points")
        K = self.grid.size
        idx = np.arange(0, K, max(1, (K - 1) // (points - 1)))
        if idx[-1] != K - 1:
            idx = np.append(idx, K - 1)
        return Trajectory(grid=self.grid[idx], states=self.states[idx],
                          controls=None if self.controls is None else self.controls[idx])

    def to_csv(self, path) -> None:
        """Write `t,x1,...,xn[,u1,...,up]` rows through `write_csv`."""
        header = ["t"] + [f"x{i + 1}" for i in range(self.n)]
        blocks = [self.grid[:, None], self.states]
        if self.controls is not None:
            header += [f"u{i + 1}" for i in range(self.controls.shape[1])]
            blocks.append(self.controls)
        write_csv(path, header, np.hstack(blocks))


def write_csv(path, header, rows) -> None:
    """Write a header line and numeric rows at 17 significant digits, a
    negative zero as 0."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(rows, dtype=float) + 0.0:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def uniform_grid(t0: float, t1: float, points: int) -> np.ndarray:
    if points < 2:
        raise DomainError("a grid needs at least two points")
    kernels.check_path_entries(points, "a uniform grid")
    return np.linspace(t0, t1, points)


def time_grid(grid) -> np.ndarray:
    """The grid as a float array, refused unless it is a strictly
    increasing 1-D sequence of at least two times."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be a strictly increasing 1-D sequence")
    return grid


def simulate(sys, x0, u: Optional[ControlSignal], grid,
             cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Trajectory:
    """Integrate the system from x0 along the grid, driven by u (or zero).

    States are produced at every grid point by Magnus steps no longer
    than cfg.ode_step (`kernels.linear_path`); the coefficients and the
    control are sampled once at each of the two Gauss times of a substep,
    and the initial state is stored exactly. Superposition holds to
    integration accuracy since everything is linear in (x0, u). A run
    whose state overflows raises NumericalError naming the first grid
    time where it is not finite.
    """
    grid = time_grid(grid)
    if not isinstance(sys, (LtiSystem, LtvSystem)):
        raise TypeError(f"cannot simulate object of type {type(sys).__name__}")
    x0 = kernels.as_state(x0, sys.n, "x0")
    if isinstance(sys, LtvSystem):
        kernels.check_within(grid[0], grid[-1], sys.t0, sys.t1, "grid")
    p = sys.p

    stages = kernels.rk4_stages(grid, cfg.ode_step)
    times = stages.gauss
    U = controls = None
    if u is not None:
        if u.dim != p:
            raise DimensionError(f"control dimension {u.dim} does not match p={p}")
        kernels.check_within(grid[0], grid[-1], u.t0, u.t1, "grid", "control")
        samples = u.at(np.concatenate([times.ravel(), grid]))
        U = samples[:times.size].reshape(times.shape + (p,))
        controls = samples[times.size:]

    def coefficients(sl):
        if isinstance(sys, LtiSystem):
            A = sys.A
            b = None if U is None else U[sl] @ sys.B.T
        else:
            A = kernels.sample_at(sys.A_of, times[sl])
            b = None if U is None else np.einsum(
                "sjnp,sjp->sjn", kernels.sample_at(sys.B_of, times[sl]), U[sl])
        return A, b

    # an overflow shows as a non-finite state and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        states = kernels.linear_path(coefficients, x0, stages)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise NumericalError(
            f"simulated state is not finite at t = {grid[np.argmin(finite)]:.6g}")
    return Trajectory(grid=grid, states=states, controls=controls)
