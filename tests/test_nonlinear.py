import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from lincontrol import (
    ControlSignal,
    DimensionError,
    DivergenceError,
    DomainError,
    FlowAccuracyError,
    LinearTestInapplicableError,
    LtiSystem,
    NumericalError,
    ToleranceConfig,
    Trajectory,
    TrustRegionError,
    VectorField,
    equilibrium_reference,
    linearize_along,
    min_energy_control,
    steer_nonlinear,
)
from lincontrol import kernels, nonlinear, reachability
from lincontrol.fields import double_integrator, pendulum, polynomial_field
from lincontrol.nonlinear import ReferenceTrajectory, integrate_field

import helpers

PI = math.pi


@pytest.fixture
def pend_field():
    return pendulum()


@pytest.fixture
def upright_ref(pend_field):
    return equilibrium_reference(pend_field, [PI, 0.0], [0.0], 0.0, 1.0)


class TestVectorField:
    def test_finite_differences_match_analytic(self, pend_field, rng):
        bare = VectorField(2, 1, pend_field.f)  # drops the analytic partials
        for _ in range(5):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-1, 1, 1)
            assert np.abs(bare.jacobian_x(x, u) - pend_field.fx(x, u)).max() < 1e-8
            assert np.abs(bare.jacobian_u(x, u) - pend_field.fu(x, u)).max() < 1e-8

    def test_polynomial_field_jacobians(self, rng):
        decl = {
            "state_dim": 2, "control_dim": 1,
            "rhs": [
                [{"coeff": 1.0, "x": [0, 1], "u": [0]}],
                [{"coeff": -2.0, "x": [3, 0], "u": [0]},
                 {"coeff": 1.0, "x": [0, 0], "u": [1]}],
            ],
        }
        vf = polynomial_field(decl)
        x, u = np.array([0.7, -0.3]), np.array([0.4])
        assert_allclose(vf(x, u), [x[1], -2.0 * x[0] ** 3 + u[0]])
        assert_allclose(vf.fx(x, u), [[0.0, 1.0], [-6.0 * x[0] ** 2, 0.0]])
        assert_allclose(vf.fu(x, u), [[0.0], [1.0]])
        bare = VectorField(2, 1, vf.f)
        assert np.abs(bare.jacobian_x(x, u) - vf.fx(x, u)).max() < 1e-8

    def test_polynomial_field_matches_per_term_formula(self, rng):
        for n, p, terms in [(3, 2, None), (8, 2, 32), (16, 3, 64)]:
            self._check_per_term_formula(rng, n, p, terms)

    @staticmethod
    def _check_per_term_formula(rng, n, p, terms):
        def draw():
            return {"coeff": float(rng.uniform(-2, 2)),
                    "x": [int(k) for k in rng.integers(0, 4, n) * (rng.random(n) < 3 / n)],
                    "u": [int(k) for k in rng.integers(0, 3, p)]}

        if terms is None:  # a few terms per component, some with none
            rhs = [[draw() for _ in range(int(rng.integers(0, 4)))] for _ in range(n)]
        else:
            rhs = [[] for _ in range(n)]
            for t in range(terms):
                rhs[int(rng.integers(0, n)) if t >= n else t].append(draw())
        # one power costs one pow call however large: 0 for |x_k| < 1
        rhs[0].append({"coeff": 3.0, "x": [10**6] + [0] * (n - 1), "u": [0] * p})
        vf = polynomial_field({"state_dim": n, "control_dim": p, "rhs": rhs})
        bare = VectorField(n, p, vf.f)

        def per_term(x, u):
            return np.array([
                sum(t["coeff"] * math.prod(x[k] ** t["x"][k] for k in range(n))
                    * math.prod(u[k] ** t["u"][k] for k in range(p)) for t in comp)
                for comp in rhs])

        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, n)
            u = rng.uniform(-1.0, 1.0, p)
            assert_allclose(vf(x, u), per_term(x, u), rtol=1e-13, atol=1e-13)
            assert np.abs(bare.jacobian_x(x, u) - vf.fx(x, u)).max() < 1e-6
            assert np.abs(bare.jacobian_u(x, u) - vf.fu(x, u)).max() < 1e-6
        zero = vf.fx(np.zeros(n), np.zeros(p))  # 0 ** 0 = 1, no 0 ** -1
        assert np.all(np.isfinite(zero))

    def test_polynomial_overflow_is_ieee_inf(self):
        # Python's float ** int raises OverflowError where IEEE pow gives inf
        vf = polynomial_field({"state_dim": 1, "control_dim": 1, "rhs": [[
            {"coeff": 2.0, "x": [10**6 + 1], "u": [0]},
            {"coeff": 1.0, "x": [0], "u": [1]}]]})
        u = np.array([0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vf(np.array([1.05]), u)[0] == math.inf
            assert vf(np.array([-1.05]), u)[0] == -math.inf
            assert vf(np.array([0.95]), u)[0] == 0.5
            assert vf.fx(np.array([-1.05]), u)[0, 0] == math.inf
            assert vf.fu(np.array([-1.05]), u)[0, 0] == 1.0


class TestLinearization:
    def test_pendulum_upright(self, pend_field, upright_ref):
        ltv = linearize_along(pend_field, upright_ref)
        assert_allclose(ltv.A_of(0.5), [[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(ltv.B_of(0.5), [[0.0], [1.0]])

    def test_pendulum_hanging(self, pend_field):
        ref = equilibrium_reference(pend_field, [0.0, 0.0], [0.0], 0.0, 1.0)
        ltv = linearize_along(pend_field, ref)
        assert_allclose(ltv.A_of(0.2), [[0.0, 1.0], [-1.0, 0.0]])
        assert_allclose(ltv.B_of(0.2), [[0.0], [1.0]])

    def test_linear_field_recovers_matrices(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 2))
        vf = VectorField(3, 2, lambda x, u: A @ x + B @ u)
        ref = ReferenceTrajectory(vf, 0.0, 1.0,
                                  lambda t: np.zeros(3), lambda t: np.zeros(2))
        ltv = linearize_along(vf, ref)
        assert np.abs(ltv.A_of(0.3) - A).max() <= 1e-8
        assert np.abs(ltv.B_of(0.3) - B).max() <= 1e-8


class TestReferences:
    @pytest.mark.parametrize("x_eq, u_eq, lengths", [
        ([PI, 0.0], [0.0, 0.0], "got 2 and 2"),
        ([0.0, 0.0, 0.0], [0.0], "got 3 and 1"),
        ([PI, 0.0], [1.0, 2.0], "got 2 and 2")])
    def test_wrong_length_equilibrium_rejected(self, pend_field, x_eq, u_eq, lengths):
        # [0, 0] is an equilibrium control of the one-input pendulum if its
        # second entry goes unread
        with pytest.raises(DimensionError, match=f"must have lengths 2 and 1, {lengths}"):
            equilibrium_reference(pend_field, x_eq, u_eq, 0.0, 1.0)

    def test_wrong_length_reference_rejected(self, pend_field):
        with pytest.raises(DimensionError, match=r"xbar\(t0\) and ubar\(t0\) must have "
                                                 "lengths 2 and 1, got 2 and 2"):
            ReferenceTrajectory(pend_field, 0.0, 1.0, lambda t: np.array([PI, 0.0]),
                                lambda t: np.zeros(2))

    def test_non_equilibrium_rejected(self, pend_field):
        with pytest.raises(ValueError):
            equilibrium_reference(pend_field, [1.0, 0.0], [0.0], 0.0, 1.0)

    def test_torque_shifts_equilibrium(self, pend_field):
        # sin(x1) = u holds at x1 = pi/6, u = 0.5
        ref = equilibrium_reference(pend_field, [PI / 6.0, 0.0], [0.5], 0.0, 1.0)
        assert ref.xbar(0.7)[0] == pytest.approx(PI / 6.0)

    def test_non_solution_curve_rejected(self, pend_field):
        with pytest.raises(ValueError):
            ReferenceTrajectory(pend_field, 0.0, 1.0,
                                lambda t: np.array([t, 0.0]),
                                lambda t: np.array([0.0]))

    def test_swing_reference_accepted(self, pend_field):
        # x(t) = (t, 1) with u = sin(t) + 0 solves the dynamics... check:
        # x1' = 1 = x2, x2' = 0 = -sin(t) + u  =>  u = sin(t)
        ref = ReferenceTrajectory(pend_field, 0.0, 1.0,
                                  lambda t: np.array([t, 1.0]),
                                  lambda t: np.array([math.sin(t)]))
        ltv = linearize_along(pend_field, ref)
        assert_allclose(ltv.A_of(0.5), [[0.0, 1.0], [-math.cos(0.5), 0.0]])


def _reference_flow(vf, x0, u, grid):
    """The flow by scipy's DOP853 at rtol = atol = 2.3e-14, just above its
    floor, with u sampled one time at a time."""
    sol = solve_ivp(lambda t, x: vf(x, u.u_of(t)), (grid[0], grid[-1]),
                    np.asarray(x0, float), method="DOP853", t_eval=grid,
                    rtol=2.3e-14, atol=2.3e-14)
    assert sol.success
    return sol.y.T


def _wavy(p):
    """A smooth control of p components, answered in one vectorized call."""
    w = np.arange(1.0, p + 1.0)
    return ControlSignal.vectorized(
        0.0, 1.0, p, lambda t: np.sin(3.0 * np.asarray(t)[..., None] * w) / w)


def _linear_field(n=24, p=3):
    rng = np.random.default_rng(24)
    A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, n))
    B = rng.normal(0.0, 1.0, (n, p))
    return VectorField(n, p, lambda x, u: A @ x + B @ u)


FLOW_GRIDS = {
    "one substep a gap": np.linspace(0.0, 1.0, 1001),
    "many substeps a gap": np.linspace(0.0, 1.0, 7),
    "non-uniform": np.concatenate([[0.0], np.sort(
        np.random.default_rng(3).uniform(0.0, 1.0, 40)), [1.0]]),
}


class TestFlow:
    @pytest.mark.parametrize("grid", sorted(FLOW_GRIDS))
    @pytest.mark.parametrize("case", ["pendulum", "double integrator", "linear n=24"])
    def test_matches_dop853_reference(self, case, grid):
        vf = {"pendulum": pendulum, "double integrator": double_integrator,
              "linear n=24": _linear_field}[case]()
        x0 = np.linspace(0.5, -0.3, vf.state_dim)
        u = _wavy(vf.control_dim)
        grid = FLOW_GRIDS[grid]
        traj = integrate_field(vf, x0, u, grid)
        expected = _reference_flow(vf, x0, u, grid)
        assert np.array_equal(traj.states[0], x0)
        assert np.abs(traj.final_state() - expected[-1]).max() <= 1e-11
        assert np.abs(traj.states - expected).max() <= 1e-10
        assert np.array_equal(traj.controls, u.at(grid))

    def test_wrong_shape_on_third_call_is_refused(self):
        calls = itertools.count(1)

        def f(x, u):
            return np.zeros(3) if next(calls) == 3 else np.array([x[1], u[0]])

        with pytest.raises(DimensionError, match="length 2"):
            integrate_field(VectorField(2, 1, f), [0.1, 0.0], _wavy(1),
                            np.linspace(0.0, 1.0, 11))
        assert next(calls) == 4  # no stage ran past the refused one

    def test_list_returning_field(self):
        listed = VectorField(2, 1, lambda x, u: [x[1], -math.sin(x[0]) + u[0]])
        grid = FLOW_GRIDS["non-uniform"]
        traj = integrate_field(listed, [0.3, 0.0], _wavy(1), grid)
        assert np.array_equal(traj.states,
                              integrate_field(pendulum(), [0.3, 0.0], _wavy(1), grid).states)

    def test_accuracy_follows_fixed_point_tol_not_ode_step(self):
        vf, x0, u = pendulum(), [0.3, 0.0], _wavy(1)
        grid = FLOW_GRIDS["one substep a gap"]
        expected = _reference_flow(vf, x0, u, grid)[-1]
        base = integrate_field(vf, x0, u, grid).final_state()
        coarse = ToleranceConfig(ode_step=0.5)
        assert np.array_equal(integrate_field(vf, x0, u, grid, coarse).final_state(), base)
        # rtol = atol = 1e-3 fixed_point_tol bounds the endpoint miss here
        misses = [np.abs(integrate_field(vf, x0, u, grid, ToleranceConfig(
            fixed_point_tol=tol)).final_state() - expected).max() for tol in (1e-3, 1e-6)]
        assert misses[0] <= 1e-6 and misses[1] <= 1e-9
        assert misses[1] < misses[0] / 100.0

    def test_step_budget_ends_a_runaway_flow(self, monkeypatch):
        # x' = -1e6 x + u needs some 10^5 explicit steps to stay stable on [0, 1]
        monkeypatch.setattr(nonlinear, "MAX_FLOW_STEPS", 500)
        stiff = VectorField(1, 1, lambda x, u: np.array([-1e6 * x[0] + u[0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match=r"over MAX_FLOW_STEPS = 500 steps by t = 0\.00"):
                integrate_field(stiff, [1.0], _wavy(1), np.linspace(0.0, 1.0, 11))

    def test_field_with_no_state(self):
        empty = VectorField(0, 1, lambda x, u: np.zeros(0))
        traj = integrate_field(empty, [], _wavy(1), FLOW_GRIDS["non-uniform"])
        assert traj.states.shape == (FLOW_GRIDS["non-uniform"].size, 0)

    def test_wrong_length_initial_state_is_refused(self):
        with pytest.raises(DimensionError, match="x0 must have length 2, got 3"):
            integrate_field(pendulum(), [0.1, 0.0, 0.0], _wavy(1), np.linspace(0.0, 1.0, 11))

    def test_control_keeps_no_memory_per_evaluated_time(self):
        # the hand-built swing reference samples f_u and ubar when the control
        # is evaluated, and keeps none of them
        vf, ref, x0, x1 = _varying_gain_swing()
        res = steer_nonlinear(vf, ref, x0, x1)
        assert res.converged
        res.control.at(np.linspace(0.0, 1.0, 101))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(10):
                res.control.at((np.arange(10**4) + (k + 1) / 11.0) / 10**4)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20


def _varying_gain_swing():
    """The field, reference and endpoints (x0, x1) of
    `test_control_samples_match_u_of`: a pendulum whose input gain grows
    with the angle, swung along x(t) = (t, 1)."""
    vf = VectorField(2, 1,
                     lambda x, u: np.array([x[1], -math.sin(x[0]) + (1.0 + 0.5 * x[0]) * u[0]]),
                     fu=lambda x, u: np.array([[0.0], [1.0 + 0.5 * x[0]]]))
    ref = ReferenceTrajectory(vf, 0.0, 1.0, lambda t: np.array([t, 1.0]),
                              lambda t: np.array([math.sin(t) / (1.0 + 0.5 * t)]))
    return vf, ref, [0.03, 1.0], [1.0, 0.98]


class TestSteering:
    def test_wrong_length_endpoint_rejected(self, pend_field, upright_ref):
        with pytest.raises(DimensionError):
            steer_nonlinear(pend_field, upright_ref, [PI], [PI, 0.0])

    def test_reference_endpoints_one_pass(self, pend_field, upright_ref):
        res = steer_nonlinear(pend_field, upright_ref, [PI, 0.0], [PI, 0.0])
        assert res.converged and res.iterations == 1
        for t in np.linspace(0, 1, 9):
            assert abs(res.control.u_of(t)[0]) < 1e-9

    def test_linear_field_exact_in_one_pass(self):
        vf = double_integrator()
        ref = equilibrium_reference(vf, [0.0, 0.0], [0.0], 0.0, 1.0)
        res = steer_nonlinear(vf, ref, [0.05, 0.0], [-0.03, 0.02])
        assert res.converged and res.iterations == 1

    def test_pendulum_swing_across_upright(self, pend_field, upright_ref):
        res = steer_nonlinear(pend_field, upright_ref,
                              [PI + 0.05, 0.0], [PI - 0.05, 0.0])
        assert res.converged
        assert res.iterations <= 20
        assert res.terminal_error <= 1e-8
        assert res.flow_error < ToleranceConfig().fixed_point_tol
        # independent replay of the returned control
        replay = _reference_flow(pend_field, [PI + 0.05, 0.0], res.control,
                                 np.linspace(0.0, 1.0, 501))
        assert np.linalg.norm(replay[-1] - [PI - 0.05, 0.0]) <= 1e-8

    def test_control_samples_match_u_of(self):
        # a pendulum whose input gain grows with the angle, swung along
        # x(t) = (t, 1): ubar = sin(t) / (1 + t/2) and f_u vary along it
        vf = VectorField(2, 1,
                         lambda x, u: np.array([x[1], -math.sin(x[0]) + (1.0 + 0.5 * x[0]) * u[0]]),
                         fu=lambda x, u: np.array([[0.0], [1.0 + 0.5 * x[0]]]))
        ref = ReferenceTrajectory(vf, 0.0, 1.0, lambda t: np.array([t, 1.0]),
                                  lambda t: np.array([math.sin(t) / (1.0 + 0.5 * t)]))
        res = steer_nonlinear(vf, ref, [0.03, 1.0], [1.0, 0.98])
        assert res.converged
        traj = res.trajectory
        expected = np.array([res.control.u_of(t) for t in traj.grid])
        assert_allclose(traj.controls, expected, rtol=1e-13, atol=1e-14)
        times = np.linspace(0.0, 1.0, 37)
        assert_allclose(res.control.at(times), [res.control.u_of(t) for t in times],
                        rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("case", ["equilibrium", "hand-built", "swing"])
    def test_one_pass_is_the_linear_minimum_energy_control(self, case):
        # the first pass targets phi = x1: its control is ubar plus the
        # minimum-energy control of the linearization between the deviations
        if case == "swing":
            vf, ref, x0, x1 = _varying_gain_swing()
            lin = linearize_along(vf, ref)
        else:
            build, (xe, ue), (x0, x1) = EQUILIBRIUM_CASES["pendulum"]
            vf = build()
            ref = _both_references(vf, xe, ue)[case == "hand-built"]
            lin = (LtiSystem(vf.jacobian_x(xe, ue), vf.jacobian_u(xe, ue))
                   if case == "equilibrium" else linearize_along(vf, ref))
        res = steer_nonlinear(vf, ref, x0, x1, ToleranceConfig(max_iter=1))
        du, _ = min_energy_control(lin, ref.t0, ref.t1, np.subtract(x0, ref.xbar(ref.t0)),
                                   np.subtract(x1, ref.xbar(ref.t1)))
        times = (np.arange(37) + 0.5) / 37.0   # no stage time k/2000
        ubar = np.array([np.atleast_1d(ref.ubar(t)) for t in times])
        assert_allclose(res.control.at(times), ubar + du.at(times), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("theta", [PI, 1.0])
    def test_equilibrium_control_is_the_hermite_output_of_its_samples(self, pend_field, rng,
                                                                      theta):
        # at theta = 1 the pendulum rests under u_e = sin(1), a nonzero ubar
        xe, ue = np.array([theta, 0.0]), np.array([math.sin(theta)])
        ref = equilibrium_reference(pend_field, xe, ue, 0.0, 1.0)
        x0, x1 = xe + [0.05, 0.0], xe - [0.05, 0.0]
        res = steer_nonlinear(pend_field, ref, x0, x1, ToleranceConfig(max_iter=1))
        lin = LtiSystem(pend_field.jacobian_x(xe, ue), pend_field.jacobian_u(xe, ue))
        quad = reachability._gramian(lin, 0.0, 1.0, ToleranceConfig())
        z = np.linalg.solve(quad.report.gramian, (x1 - xe) - quad.transition @ (x0 - xe))
        helpers.assert_steering_is_sampled(res.control, quad.adjoint(z), lin.B, ue, rng)

    def test_leaves_no_cyclic_garbage(self, pend_field, upright_ref):
        steer = lambda: steer_nonlinear(pend_field, upright_ref,
                                        [PI + 0.05, 0.0], [PI - 0.05, 0.0])
        steer()
        gc.collect()
        gc.disable()
        try:
            res = steer()
            res.control.at(np.linspace(0.0, 1.0, 5))
            del res
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_contraction_ratios(self, pend_field, upright_ref):
        cfg = ToleranceConfig(fixed_point_tol=1e-12)
        res = steer_nonlinear(pend_field, upright_ref,
                              [PI + 0.08, 0.0], [PI - 0.08, 0.0], cfg)
        errs = res.error_history
        assert len(errs) >= 2
        for a, b in zip(errs, errs[1:]):
            assert b <= 0.5 * a

    def test_control_smallness(self, pend_field, upright_ref):
        for d in (0.05, 0.02):
            res = steer_nonlinear(pend_field, upright_ref,
                                  [PI + d, 0.0], [PI - d, 0.0])
            du = max(abs(res.control.u_of(t)[0])
                     for t in np.linspace(0, 1, 101))
            assert du <= 50.0 * (2.0 * d)

    def test_quadratic_remainder_dominance(self, pend_field, upright_ref):
        errs = {}
        for d in (0.05, 0.005):
            cfg = ToleranceConfig(max_iter=1, fixed_point_tol=1e-16)
            res = steer_nonlinear(pend_field, upright_ref,
                                  [PI + d, 0.0], [PI - d, 0.0], cfg, delta=0.2)
            errs[d] = res.error_history[0]
        assert errs[0.05] / errs[0.005] >= 50.0

    def test_grid_past_the_budget_is_refused_first(self, pend_field, upright_ref, monkeypatch):
        # 1001 Simpson nodes on [0, 1]
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 1000)
        with pytest.raises(DomainError, match="the steering grid: 1001 entries"):
            steer_nonlinear(pend_field, upright_ref, [PI + 0.05, 0.0], [PI - 0.05, 0.0])

    def test_trust_region_enforced(self, pend_field, upright_ref):
        with pytest.raises(TrustRegionError):
            steer_nonlinear(pend_field, upright_ref, [PI + 0.5, 0.0], [PI, 0.0],
                            delta=0.1)

    def test_divergence_reports_history(self):
        vq = VectorField(2, 1,
                         lambda x, u: np.array([x[1], 10.0 * x[0] ** 2 + x[0] + u[0]]))
        ref = equilibrium_reference(vq, [0.0, 0.0], [0.0], 0.0, 1.0)
        with pytest.raises(DivergenceError) as exc:
            steer_nonlinear(vq, ref, [0.3, 0.0], [0.3, 0.0], delta=0.35)
        assert len(exc.value.history) >= 1

    def test_overflowing_flow_is_refused(self):
        # x2' = 1e300 x1^3 + u from x1 = 0.05 blows up near t = 3.7e-149,
        # where the steps shrink to nothing on stages that overflow
        vf = polynomial_field({
            "state_dim": 2, "control_dim": 1,
            "rhs": [[{"coeff": 1.0, "x": [0, 1], "u": [0]}],
                    [{"coeff": 1e300, "x": [3, 0], "u": [0]},
                     {"coeff": 1.0, "x": [0, 0], "u": [1]}]],
        })
        ref = equilibrium_reference(vf, [0.0, 0.0], [0.0], 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"not finite at t = 3\.7\d*e-149"):
                steer_nonlinear(vf, ref, [0.05, 0.0], [0.0, 0.05])

    def test_flow_certificate_refuses_an_unresolved_flow(self):
        # x' = 20 x + u amplifies the flow's rounding by e^20 over [0, 1]:
        # the fixed point converges on its own flow, which a run at 1/100 of
        # the tolerance does not reproduce
        vf = VectorField(1, 1, lambda x, u: np.array([20.0 * x[0] + u[0]]))
        ref = equilibrium_reference(vf, [0.0], [0.0], 0.0, 1.0)
        with pytest.raises(FlowAccuracyError, match="not below fixed_point_tol") as exc:
            steer_nonlinear(vf, ref, [0.01], [0.02])
        assert exc.value.flow_error >= ToleranceConfig().fixed_point_tol
        assert isinstance(exc.value, NumericalError)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_flow_error_is_the_gap_to_a_finer_flow(self, pend_field, upright_ref, tol):
        cfg = ToleranceConfig(fixed_point_tol=tol)
        x0 = [PI + 0.05, 0.0]
        res = steer_nonlinear(pend_field, upright_ref, x0, [PI - 0.05, 0.0], cfg)
        assert res.converged and res.flow_error < tol
        grid = res.trajectory.grid
        fine = integrate_field(pend_field, x0, res.control, grid,
                               ToleranceConfig(fixed_point_tol=tol / 100.0))
        assert res.flow_error == np.linalg.norm(res.trajectory.final_state()
                                                - fine.final_state())

    def test_unconverged_steer_has_no_flow_error(self, pend_field, upright_ref):
        res = steer_nonlinear(pend_field, upright_ref, [PI + 0.05, 0.0], [PI - 0.05, 0.0],
                              ToleranceConfig(max_iter=1))
        assert not res.converged and res.flow_error is None

    def test_nan_iterate_is_divergence(self, pend_field, upright_ref, monkeypatch):
        def nan_flow(vf, x0, u, grid, cfg):
            return Trajectory(grid=grid, states=np.full((grid.size, 2), np.nan))

        monkeypatch.setattr(nonlinear, "integrate_field", nan_flow)
        with pytest.raises(DivergenceError) as exc:
            steer_nonlinear(pend_field, upright_ref, [PI + 0.05, 0.0], [PI - 0.05, 0.0])
        assert len(exc.value.history) == 1

    def test_uncontrollable_linearization_rejected(self):
        vf = VectorField(2, 1,
                         lambda x, u: np.array([-x[0] + u[0], -x[1]]))
        ref = equilibrium_reference(vf, [0.0, 0.0], [0.0], 0.0, 1.0)
        with pytest.raises(LinearTestInapplicableError) as exc:
            steer_nonlinear(vf, ref, [0.01, 0.0], [0.0, 0.01])
        assert exc.value.min_eigenvalue <= 1e-12


DUFFING = {
    "state_dim": 2, "control_dim": 1,
    "rhs": [
        [{"coeff": 1.0, "x": [0, 1], "u": [0]}],
        [{"coeff": -1.0, "x": [1, 0], "u": [0]},
         {"coeff": -0.5, "x": [3, 0], "u": [0]},
         {"coeff": 1.0, "x": [0, 0], "u": [1]}],
    ],
}

# field, equilibrium (x_e, u_e), endpoints (x0, x1)
EQUILIBRIUM_CASES = {
    "pendulum": (pendulum, ([PI, 0.0], [0.0]), ([PI + 0.05, 0.0], [PI - 0.05, 0.0])),
    "duffing": (lambda: polynomial_field(DUFFING), ([0.0, 0.0], [0.0]),
                ([0.02, 0.0], [-0.02, 0.01])),
}


def _counting(vf):
    """The field with its partials wrapped to count their calls."""
    calls = {"fx": 0, "fu": 0}

    def fx(x, u):
        calls["fx"] += 1
        return vf.fx(x, u)

    def fu(x, u):
        calls["fu"] += 1
        return vf.fu(x, u)

    return VectorField(vf.state_dim, vf.control_dim, vf.f, fx, fu), calls


def _both_references(vf, xe, ue):
    """The equilibrium reference and a hand-built one with the same
    constant callables, which takes the time-varying path."""
    xe, ue = np.array(xe), np.array(ue)
    return (equilibrium_reference(vf, xe, ue, 0.0, 1.0),
            ReferenceTrajectory(vf, 0.0, 1.0, lambda t: xe, lambda t: ue))


ENDPOINT_FIELDS = {
    "pendulum": (pendulum, [PI + 0.05, 0.0]),
    "duffing": (lambda: polynomial_field(DUFFING), [0.02, 0.0]),
    "x' = 20 x + u": (lambda: VectorField(1, 1, lambda x, u: np.array([20.0 * x[0] + u[0]])),
                      [0.01]),
}


class TestEndpointFlow:
    @pytest.mark.parametrize("tol", [1e-9, 1e-11])  # a pass's flow and its certificate's
    @pytest.mark.parametrize("case", sorted(ENDPOINT_FIELDS))
    def test_endpoint_grid_gives_the_full_grid_endpoint_bit_for_bit(self, case, tol):
        # the steps do not depend on the grid; dense output only fills it in
        build, x0 = ENDPOINT_FIELDS[case]
        vf, u = build(), _wavy(1)
        grid = np.linspace(0.0, 1.0, 1001)
        cfg = ToleranceConfig(fixed_point_tol=tol)
        full = integrate_field(vf, x0, u, grid, cfg)
        ends = integrate_field(vf, x0, u, grid[[0, -1]], cfg)
        assert np.array_equal(ends.states, full.states[[0, -1]])
        assert np.array_equal(ends.controls, full.controls[[0, -1]])

    @pytest.mark.parametrize("case", sorted(ENDPOINT_FIELDS))
    def test_the_certificate_flow_forms_no_dense_output(self, case, monkeypatch):
        build, x0 = ENDPOINT_FIELDS[case]
        vf = build()
        x0 = np.array(x0)
        x_e = np.array([PI, 0.0]) if case == "pendulum" else np.zeros(x0.size)
        ref = equilibrium_reference(vf, x_e, [0.0], 0.0, 1.0)
        dense, flow = nonlinear._dense, nonlinear.integrate_field
        dense_calls, flows = [0], []

        def counted_dense(*args):
            dense_calls[0] += 1
            return dense(*args)

        def recorded(vf, x0, u, grid, cfg):
            before = dense_calls[0]
            traj = flow(vf, x0, u, grid, cfg)
            flows.append((grid.size, dense_calls[0] - before))
            return traj

        monkeypatch.setattr(nonlinear, "_dense", counted_dense)
        monkeypatch.setattr(nonlinear, "integrate_field", recorded)
        x1 = x_e + 0.5 * (x_e - x0)
        if case == "x' = 20 x + u":  # converges, and its certificate refuses the flow
            with pytest.raises(FlowAccuracyError):
                steer_nonlinear(vf, ref, x0, x1)
        else:
            assert steer_nonlinear(vf, ref, x0, x1).converged
        *passes, certificate = flows
        assert passes and all(size == 1001 and calls > 0 for size, calls in passes)
        assert certificate == (2, 0)


class TestEquilibriumPath:
    @pytest.mark.parametrize("case", sorted(EQUILIBRIUM_CASES))
    def test_constant_and_time_varying_paths_agree(self, case):
        build, (xe, ue), (x0, x1) = EQUILIBRIUM_CASES[case]
        vf = build()
        eq, hand = _both_references(vf, xe, ue)
        lti = steer_nonlinear(vf, eq, x0, x1)
        ltv = steer_nonlinear(vf, hand, x0, x1)
        assert lti.converged and ltv.converged
        assert lti.iterations == ltv.iterations
        times = np.linspace(0.0, 1.0, 101)
        assert np.abs(lti.control.at(times) - ltv.control.at(times)).max() <= 1e-9
        tol = ToleranceConfig().fixed_point_tol
        assert lti.terminal_error <= tol and ltv.terminal_error <= tol

    @pytest.mark.parametrize("case", sorted(EQUILIBRIUM_CASES))
    def test_equilibrium_jacobians_evaluated_once(self, case):
        build, (xe, ue), (x0, x1) = EQUILIBRIUM_CASES[case]
        vf, calls = _counting(build())
        eq, hand = _both_references(vf, xe, ue)
        res = steer_nonlinear(vf, eq, x0, x1)
        res.control.at(np.linspace(0.0, 1.0, 11))
        assert calls == {"fx": 1, "fu": 1}
        steer_nonlinear(vf, hand, x0, x1)
        assert calls["fx"] > 1000 and calls["fu"] > 1000

    def test_finite_difference_jacobians(self, pend_field, upright_ref):
        bare = VectorField(2, 1, pend_field.f)  # no fx, no fu
        ref = equilibrium_reference(bare, [PI, 0.0], [0.0], 0.0, 1.0)
        res = steer_nonlinear(bare, ref, [PI + 0.05, 0.0], [PI - 0.05, 0.0])
        assert res.converged
        assert res.terminal_error <= ToleranceConfig().fixed_point_tol
        exact = steer_nonlinear(pend_field, upright_ref, [PI + 0.05, 0.0], [PI - 0.05, 0.0])
        assert res.iterations == exact.iterations
        times = np.linspace(0.0, 1.0, 101)
        assert np.abs(res.control.at(times) - exact.control.at(times)).max() <= 1e-9

    @pytest.mark.parametrize("path", ["equilibrium", "hand-built"])
    def test_uncontrollable_linearization_on_both_paths(self, path):
        # x2 is driven only through x1^2, which the linearization drops
        vf = VectorField(2, 1, lambda x, u: np.array([-x[0] + u[0], -x[1] + x[0] ** 2]))
        ref = _both_references(vf, [0.0, 0.0], [0.0])[path == "hand-built"]
        with pytest.raises(LinearTestInapplicableError) as exc:
            steer_nonlinear(vf, ref, [0.01, 0.0], [0.0, 0.01])
        assert exc.value.min_eigenvalue is not None
        assert abs(exc.value.min_eigenvalue) <= 1e-12
