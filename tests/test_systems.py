import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lincontrol import (
    ControlSignal,
    DimensionError,
    DomainError,
    LtiSystem,
    LtvSystem,
    NumericalError,
    ToleranceConfig,
    Trajectory,
    expm,
    simulate,
    uniform_grid,
)

from lincontrol import kernels
from lincontrol.kernels import rk4_path, rk4_stages

import helpers
from helpers import control_from_samples


class TestModels:
    def test_default_observation_is_identity(self):
        sys = LtiSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
        assert_allclose(sys.C, np.eye(2))
        assert (sys.n, sys.p, sys.m) == (2, 1, 2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            LtiSystem(np.eye(2), np.ones((3, 1)))
        with pytest.raises(DimensionError):
            LtiSystem(np.eye(2), np.ones((2, 1)), np.ones((1, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LtiSystem([[np.nan, 0.0], [0.0, 0.0]], np.ones((2, 1)))

    def test_ltv_probes_dimensions(self):
        sys = LtvSystem(0.0, 1.0, lambda t: np.eye(3), lambda t: np.ones((3, 2)))
        assert (sys.n, sys.p) == (3, 2)
        with pytest.raises(DomainError):
            LtvSystem(1.0, 0.0, lambda t: np.eye(2), lambda t: np.ones((2, 1)))


class TestSimulate:
    def test_frozen_dynamics(self):
        sys = LtiSystem(np.zeros((2, 2)), np.zeros((2, 1)))
        u = ControlSignal(0.0, 1.0, 1, lambda t: np.array([math.sin(7 * t)]))
        traj = simulate(sys, [1.0, 0.0], u, uniform_grid(0, 1, 21))
        assert_allclose(traj.states, np.tile([1.0, 0.0], (21, 1)))

    def test_scalar_decay_closed_form(self):
        traj = simulate(LtiSystem([[-1.0]], [[0.0]]), [1.0], None,
                        uniform_grid(0, 1, 101))
        exact = np.exp(-traj.grid)
        assert np.abs(traj.states[:, 0] - exact).max() <= 1e-8

    def test_pure_integrator(self):
        sys = LtiSystem([[0.0]], [[1.0]])
        u = ControlSignal(0.0, 1.0, 1, lambda t: np.array([1.0]))
        traj = simulate(sys, [0.0], u, uniform_grid(0, 1, 51))
        assert np.abs(traj.states[:, 0] - traj.grid).max() < 1e-12

    def test_matches_matrix_exponential(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        sys = LtiSystem(A, np.zeros((3, 1)))
        x0 = rng.uniform(-1, 1, 3)
        grid = uniform_grid(0.0, 2.0, 9)
        traj = simulate(sys, x0, None, grid)
        for t, x in zip(grid, traj.states):
            assert np.abs(x - expm(t * A) @ x0).max() < 1e-8

    def test_superposition(self, rng):
        sys = helpers.random_system(rng, 3, 2)
        grid = uniform_grid(0.0, 1.0, 41)
        x1, x2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        u1 = ControlSignal(0, 1, 2, lambda t: np.array([math.sin(t), math.cos(2 * t)]))
        u2 = ControlSignal(0, 1, 2, lambda t: np.array([t, -t ** 2]))
        usum = ControlSignal(0, 1, 2, lambda t: u1.u_of(t) + u2.u_of(t))
        a = simulate(sys, x1, u1, grid).states
        b = simulate(sys, x2, u2, grid).states
        c = simulate(sys, x1 + x2, usum, grid).states
        assert np.abs(c - (a + b)).max() < 1e-9

    def test_restart_reproduces_tail(self, rng):
        sys = helpers.random_system(rng, 3, 1)
        u = ControlSignal(0, 2, 1, lambda t: np.array([math.sin(3 * t)]))
        grid = uniform_grid(0.0, 2.0, 81)
        full = simulate(sys, [1.0, -0.5, 0.25], u, grid)
        mid = 40
        tail = simulate(sys, full.states[mid], u, grid[mid:])
        assert np.abs(tail.states - full.states[mid:]).max() < 1e-8

    def test_fourth_order_convergence(self):
        # x' = -x is exact: the step is e^{-h}
        free = LtiSystem([[-1.0]], [[0.0]])
        traj = simulate(free, [1.0], None, np.array([0.0, 1.0]), ToleranceConfig(ode_step=0.1))
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-15
        # the order shows on the input: x' = -x + cos 3t, x(0) = 1 has
        # x = 0.9 e^{-t} + (cos 3t + 3 sin 3t) / 10
        sys = LtiSystem([[-1.0]], [[1.0]])
        u = ControlSignal(0.0, 1.0, 1, lambda t: np.array([math.cos(3.0 * t)]))
        exact = 0.9 * math.exp(-1.0) + (math.cos(3.0) + 3.0 * math.sin(3.0)) / 10.0
        errs = []
        for h in (0.1, 0.05):
            traj = simulate(sys, [1.0], u, np.array([0.0, 1.0]), ToleranceConfig(ode_step=h))
            errs.append(abs(traj.states[-1, 0] - exact))
        assert errs[0] / errs[1] >= 8.0

    def test_grid_outside_ltv_interval(self):
        sys = LtvSystem(0.0, 1.0, lambda t: np.eye(1), lambda t: np.ones((1, 1)))
        with pytest.raises(DomainError):
            simulate(sys, [1.0], None, uniform_grid(0.0, 2.0, 11))

    def test_control_dimension_mismatch(self, double_integrator):
        u = ControlSignal(0, 1, 2, lambda t: np.zeros(2))
        with pytest.raises(DimensionError):
            simulate(double_integrator, [0, 0], u, uniform_grid(0, 1, 11))

    def test_overflow_names_the_first_nonfinite_time(self):
        # x = 1e308 e^t passes the largest double at t = ln 1.797 = 0.586
        sys = LtiSystem([[1.0]], [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=r"not finite at t = 0\.6$"):
                simulate(sys, [1e308], None, uniform_grid(0.0, 1.0, 11))

    def test_a_composite_that_overflows_is_not_refused(self):
        # 14 Magnus steps e^{1e5 h} compose to inf, and inf times the zero
        # entry of x0 is nan: such a chunk is applied one step at a time,
        # where x stays (0, e^{-t})
        sys = LtiSystem(np.diag([1e5, -1.0]), np.zeros((2, 1)))
        grid = uniform_grid(0.0, 0.2, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = simulate(sys, [0.0, 1.0], None, grid).states
        assert not states[:, 0].any()
        assert_allclose(states[:, 1], np.exp(-grid), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("lam, refused", [
        (-3000.0, True), (-2786.0, True), (-2700.0, False), (-2000.0, False)])
    def test_a_step_that_grows_a_decaying_mode_is_refused(self, lam, refused):
        # `refused` marks the rates past RK4's stability interval (h lam below
        # -2.785). The Magnus step is e^{h lam}: no decaying mode grows, so
        # nothing is refused and every rate meets the closed form
        sys = LtiSystem([[lam]], [[1.0]])
        grid = uniform_grid(0.0, 0.01, 11)
        exact = np.exp(lam * grid)
        states = simulate(sys, [1.0], None, grid).states[:, 0]
        assert np.all(np.abs(states - exact) <= 1e-12 * exact)

    @pytest.mark.parametrize("lam", [-2000.0, -3000.0])
    def test_stiff_input_meets_the_closed_form(self, lam):
        # x' = lam x + 1 from 1 is x = e^{lam t} + (e^{lam t} - 1) / lam: the
        # Magnus step integrates a constant input exactly, and the block expm
        # rounds by about 5e-14 a step at h lam = -3
        sys = LtiSystem([[lam]], [[1.0]])
        grid = uniform_grid(0.0, 0.01, 11)
        u = ControlSignal.vectorized(0.0, 0.01, 1, lambda t: np.ones(np.shape(t) + (1,)))
        exact = np.exp(lam * grid) + np.expm1(lam * grid) / lam
        states = simulate(sys, [1.0], u, grid).states[:, 0]
        assert np.all(np.abs(states - exact) <= 1e-12 * np.abs(exact))

    def test_substeps_past_the_budget_are_refused(self, monkeypatch):
        # 10^4 substeps on [0, 10]: 3 10^4 stage times
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 10 ** 4)
        with pytest.raises(DomainError, match="10000 substeps: 30000 entries"):
            simulate(LtiSystem([[-1.0]], [[1.0]]), [1.0], None, uniform_grid(0, 10, 11))


class TestLinearPath:
    # gaps needing 1, 3, 590 and 7 substeps of at most 1e-3
    GRID = np.array([0.0, 0.001, 0.0035, 0.0035 + 0.59, 0.6])

    def test_lti_matches_rk4_path(self, rng):
        sys = helpers.random_system(rng, 3, 2)
        u = ControlSignal(0.0, 0.6, 2, lambda t: np.array([math.sin(9.0 * t), t * t]))
        x0 = rng.uniform(-1, 1, 3)
        got = simulate(sys, x0, u, self.GRID).states
        ref = rk4_path(lambda t, x: sys.A @ x + sys.B @ u.u_of(t), x0, self.GRID, 1e-3)
        assert np.abs(got - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
        free = simulate(sys, x0, None, self.GRID).states
        ref = rk4_path(lambda t, x: sys.A @ x, x0, self.GRID, 1e-3)
        assert np.abs(free - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())

    def test_ltv_time_varying_input_matches_rk4_path(self, rng):
        A_of = lambda t: np.array([[0.0, 1.0 + t], [-2.0, -0.5 * math.cos(4.0 * t)]])
        B_of = lambda t: np.array([[math.sin(3.0 * t), 0.0], [1.0 + t, -t]])
        sys = LtvSystem(0.0, 0.6, A_of, B_of)
        u = ControlSignal(0.0, 0.6, 2, lambda t: np.array([math.cos(5.0 * t), 1.0]))
        x0 = rng.uniform(-1, 1, 2)
        traj = simulate(sys, x0, u, self.GRID)
        ref = rk4_path(lambda t, x: A_of(t) @ x + B_of(t) @ u.u_of(t), x0, self.GRID, 1e-3)
        assert np.abs(traj.states - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
        assert_allclose(traj.controls, [u.u_of(t) for t in self.GRID], rtol=0, atol=0)

    @pytest.mark.parametrize("n, scans", [(2, 1), (8, 1), (16, 4)])
    @pytest.mark.parametrize("driven", [False, True], ids=["free", "driven"])
    def test_a_short_path_is_one_scan(self, rng, monkeypatch, n, scans, driven):
        # 1,000 substeps in chunks of max(PATH_CHUNK, PATH_CHUNK_ENTRIES // n^2):
        # one up to n = 8, four of 256 at n = 16
        sys = helpers.random_system(rng, n, 1)
        u = ControlSignal.vectorized(0.0, 1.0, 1, lambda t: np.sin(3.0 * t)[..., None])
        x0 = rng.uniform(-1.0, 1.0, n)
        maps, step_maps = [], kernels._magnus_step_maps

        def recorded(*args):
            maps.append(step_maps(*args))
            return maps[-1]

        monkeypatch.setattr(kernels, "_magnus_step_maps", recorded)
        counts = helpers.count_calls(monkeypatch, scan=(kernels, "affine_states"))
        got = simulate(sys, x0, u if driven else None, np.linspace(0.0, 1.0, 1001)).states
        assert counts["scan"] == len(maps) == scans
        M = np.concatenate([m for m, _ in maps])
        c = np.concatenate([d for _, d in maps])[..., 0] if driven else None
        want = helpers.affine_states_by_loop(M, c, x0)
        assert got.shape == want.shape == (1001, n)
        assert np.array_equal(got[0], x0)
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * np.abs(want).max(axis=1))

    @pytest.mark.parametrize("n", [2, 16])
    def test_a_long_path_keeps_the_peak_of_short_chunks(self, rng, monkeypatch, n):
        # 2^18 substeps: chunks of 16,384 at n = 2 against the 256 of PATH_CHUNK;
        # the per-substep stage arrays dominate both peaks
        sys = helpers.random_system(rng, n, 1)
        cfg = ToleranceConfig(ode_step=2.0 ** -18)
        simulate(sys, np.ones(n), None, [0.0, 1.0])  # loads scipy.linalg outside the trace

        def peak():
            tracemalloc.start()
            try:
                simulate(sys, np.ones(n), None, [0.0, 1.0], cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunked = peak()
        monkeypatch.setattr(kernels, "PATH_CHUNK_ENTRIES", 0)
        assert chunked <= 1.1 * peak()

    def test_user_control_called_once_per_stage_time(self, double_integrator):
        calls = []
        u = ControlSignal(0.0, 1.0, 1, lambda t: calls.append(t) or np.array([math.sin(t)]))
        grid = uniform_grid(0.0, 1.0, 11)
        simulate(double_integrator, [0.0, 0.0], u, grid, ToleranceConfig(ode_step=0.03))
        stage_times = np.concatenate([rk4_stages(grid, 0.03).gauss.ravel(), grid])
        assert len(calls) == len(set(calls)) == np.unique(stage_times).size


class TestControlSignal:
    def test_from_samples_piecewise_linear(self):
        grid = np.array([0.0, 1.0, 2.0])
        vals = np.array([[0.0, 1.0], [2.0, 1.0], [2.0, 3.0]])
        u = control_from_samples(grid, vals)
        assert_allclose(u.u_of(0.5), [1.0, 1.0])
        assert_allclose(u.u_of(1.5), [2.0, 2.0])
        assert u.dim == 2

    def test_zero(self):
        u = ControlSignal.zero(3, 0.0, 1.0)
        assert_allclose(u.u_of(0.5), np.zeros(3))
        assert np.array_equal(u.at(np.linspace(0, 1, 4)), np.zeros((4, 3)))

    def test_array_samples_match_u_of(self):
        times = np.array([[0.0, 0.25], [0.25, 1.0]])
        u = ControlSignal(0.0, 1.0, 2, lambda t: np.array([math.sin(t), t]))
        assert np.array_equal(u.at(times), [[u.u_of(t) for t in row] for row in times])
        v = ControlSignal.vectorized(0.0, 1.0, 2,
                                     lambda t: np.stack([np.sin(t), np.asarray(t)], axis=-1))
        assert np.array_equal(v.at(times), [[v.u_of(t) for t in row] for row in times])
        assert v.u_of(0.25).shape == (2,)

    def test_no_times_give_no_samples(self):
        u = ControlSignal(0.0, 1.0, 2, lambda t: np.array([math.sin(t), t]))
        v = ControlSignal.vectorized(0.0, 1.0, 2,
                                     lambda t: np.stack([np.sin(t), np.asarray(t)], axis=-1))
        for control in (u, v):
            assert control.at(np.array([])).shape == (0, 2)


class TestTrajectory:
    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            Trajectory(grid=[0.0, 0.0, 1.0], states=np.zeros((3, 1)))

    def test_states_length_checked(self):
        with pytest.raises(DimensionError):
            Trajectory(grid=[0.0, 1.0], states=np.zeros((3, 1)))

    def test_subsample_keeps_every_kth_sample(self):
        grid = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(grid=grid, states=grid[:, None] ** 2, controls=-grid[:, None])
        sub = traj.subsample(6)
        assert_allclose(sub.grid, grid[::2])
        assert_allclose(sub.states[:, 0], grid[::2] ** 2)
        assert_allclose(sub.controls[:, 0], -grid[::2])
        assert Trajectory(grid=grid, states=grid[:, None]).subsample(50).grid.size == 11

    def test_subsample_keeps_the_last_sample(self):
        # every 3rd of 11 samples stops at t = 0.9; the last is kept too
        grid = np.linspace(0.0, 1.0, 11)
        sub = Trajectory(grid=grid, states=grid[:, None] ** 2).subsample(4)
        assert np.array_equal(sub.grid, grid[[0, 3, 6, 9, 10]])
        assert np.array_equal(sub.states[:, 0], grid[[0, 3, 6, 9, 10]] ** 2)

    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_subsample_to_fewer_than_two_points_is_refused(self, points):
        # 1 divided by zero and 0 or fewer kept every sample
        traj = Trajectory(grid=np.linspace(0.0, 1.0, 11), states=np.zeros((11, 1)))
        with pytest.raises(DomainError, match="at least two points"):
            traj.subsample(points)

    def test_csv_format(self, tmp_path):
        traj = Trajectory(grid=[0.0, 0.5],
                          states=np.array([[1.0, 2.0], [3.0, 1.0 / 3.0]]),
                          controls=np.array([[0.25], [-1.5]]))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "t,x1,x2,u1"
        assert lines[2].split(",")[2] == format(1.0 / 3.0, ".17g")
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert_allclose(parsed[:, 1:3], traj.states)
        assert_allclose(parsed[:, 3:], traj.controls)
