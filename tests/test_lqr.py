import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from lincontrol import (
    ControlSignal,
    ConvergenceError,
    DimensionError,
    DomainError,
    EscapeTimeError,
    FiniteCostViolationError,
    LqrProblem,
    NumericalInconsistencyError,
    LtiSystem,
    ToleranceConfig,
    are_solve,
    evaluate_cost,
    lqr_trajectory,
    riccati_finite,
    simulate,
    uniform_grid,
)
from lincontrol.kernels import rk4_path
from lincontrol.lqr import _compose, _flow_triple

from helpers import control_from_samples, riccati_sweep


@pytest.fixture
def scalar_sys():
    return LtiSystem([[0.0]], [[1.0]], [[1.0]])


class TestRiccatiFinite:
    def test_scalar_tanh_closed_form(self, scalar_sys):
        # P' = P^2 - 1 with P(T) = 0 has P(t) = tanh(T - t)
        prob = LqrProblem(scalar_sys, None, 1.0)
        ric = riccati_finite(prob)
        exact = np.tanh(1.0 - ric.grid)
        assert np.abs(ric.P_samples[:, 0, 0] - exact).max() <= 1e-8
        assert ric.terminal_matches_P0
        assert ric.max_residual <= 1e-6

    def test_substitution_oracle_on_dense_output(self, scalar_sys):
        # dense output satisfies P' = P^2 - 1 pointwise (finite differences)
        prob = LqrProblem(scalar_sys, None, 1.0)
        ric = riccati_finite(prob)
        h = 1e-5
        for t in np.linspace(0.1, 0.9, 9):
            dP = (ric.P_at(t + h) - ric.P_at(t - h))[0, 0] / (2.0 * h)
            P = ric.P_at(t)[0, 0]
            assert abs(dP - (P ** 2 - 1.0)) < 1e-6

    def test_zero_cost_stays_zero(self):
        sys = LtiSystem([[0.3]], [[1.0]], [[0.0]])
        ric = riccati_finite(LqrProblem(sys, None, 2.0))
        assert np.abs(ric.P_samples).max() == 0.0

    def test_no_input_linear_growth(self):
        # B = 0, C = I, A = 0: P' = -I backward from 0 gives P(t) = (T - t) I
        sys = LtiSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2))
        ric = riccati_finite(LqrProblem(sys, None, 1.5))
        for k in (0, len(ric.grid) // 2, -1):
            t = ric.grid[k]
            assert_allclose(ric.P_samples[k], (1.5 - t) * np.eye(2), atol=1e-10)

    def test_samples_symmetric_psd_terminal_exact(self, rng):
        sys = LtiSystem(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 2)),
                        rng.uniform(-1, 1, (2, 3)))
        P0 = rng.uniform(-1, 1, (3, 3))
        P0 = P0 @ P0.T
        ric = riccati_finite(LqrProblem(sys, P0, 1.0))
        assert np.array_equal(ric.P_samples[-1], 0.5 * (P0 + P0.T))
        sym_err = np.abs(ric.P_samples - np.transpose(ric.P_samples, (0, 2, 1))).max()
        assert sym_err <= 1e-9
        for k in range(0, len(ric.grid), 400):
            assert np.linalg.eigvalsh(ric.P_samples[k])[0] >= -1e-9

    def test_dynamic_programming_restart(self, rng):
        sys = LtiSystem(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 1)))
        full = riccati_finite(LqrProblem(sys, None, 2.0))
        mid_value = full.P_at(1.0)
        half = riccati_finite(LqrProblem(sys, mid_value, 1.0))
        for t in np.linspace(0.0, 1.0, 11):
            assert np.abs(half.P_at(t) - full.P_at(t)).max() <= 1e-8

    def test_monotone_value_in_horizon(self, rng):
        sys = LtiSystem(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 1)))
        values = []
        for T in (1.0, 2.0, 4.0, 8.0):
            ric = riccati_finite(LqrProblem(sys, None, T), step=1e-3)
            values.append(ric.P_samples[0])
        for xi in rng.uniform(-1, 1, (10, 2)):
            quad = [float(xi @ V @ xi) for V in values]
            assert all(b >= a - 1e-9 for a, b in zip(quad, quad[1:]))

    def test_indefinite_terminal_weight_rejected(self, scalar_sys):
        with pytest.raises(DimensionError):
            LqrProblem(scalar_sys, np.array([[-1.0]]), 1.0)


class TestLqrTrajectory:
    def test_zero_start_stays_zero(self, scalar_sys):
        prob = LqrProblem(scalar_sys, None, 1.0)
        ric = riccati_finite(prob)
        run = lqr_trajectory(prob, ric, [0.0])
        assert np.abs(run.trajectory.states).max() == 0.0
        assert run.cost == 0.0

    def test_value_identity_scalar(self, scalar_sys):
        prob = LqrProblem(scalar_sys, None, 1.0)
        ric = riccati_finite(prob)
        run = lqr_trajectory(prob, ric, [1.0])
        assert abs(run.cost - math.tanh(1.0)) <= 1e-6

    def test_value_identity_multivariate(self, rng):
        sys = LtiSystem(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 2)),
                        rng.uniform(-1, 1, (2, 3)))
        P0 = np.eye(3) * 0.5
        prob = LqrProblem(sys, P0, 2.0)
        ric = riccati_finite(prob)
        xi = rng.uniform(-1, 1, 3)
        run = lqr_trajectory(prob, ric, xi)
        assert abs(run.cost - xi @ ric.P_samples[0] @ xi) <= 1e-6 * (1 + run.cost)

    def test_adjoint_coupled_system_oracle(self, rng):
        # integrate (x, y) with x' = Ax - B B^T y, y' = -A^T y - C^T C x
        # from y(0) = P(0) xi; along the way y must equal P(t) x(t)
        sys = LtiSystem(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 1)),
                        rng.uniform(-1, 1, (1, 2)))
        prob = LqrProblem(sys, np.diag([0.3, 0.1]), 1.0)
        ric = riccati_finite(prob)
        xi = np.array([0.8, -0.4])
        A, B, C = sys.A, sys.B, sys.C
        BBt, CtC = B @ B.T, C.T @ C

        def rhs(t, z):
            x, y = z[:2], z[2:]
            return np.concatenate([A @ x - BBt @ y, -A.T @ y - CtC @ x])

        grid = np.linspace(0.0, 1.0, 201)
        z = rk4_path(rhs, np.concatenate([xi, ric.P_samples[0] @ xi]), grid, 1e-3)
        for k in range(0, 201, 20):
            x, y = z[k, :2], z[k, 2:]
            assert np.abs(y - ric.P_at(grid[k]) @ x).max() <= 1e-6
        xT, yT = z[-1, :2], z[-1, 2:]
        assert np.abs(yT - prob.P0 @ xT).max() <= 1e-6

    def test_coarse_user_grid_takes_substeps(self, rng):
        sys = LtiSystem(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 2)),
                        rng.uniform(-1, 1, (2, 3)))
        prob = LqrProblem(sys, np.eye(3) * 0.5, 1.0)
        ric = riccati_finite(prob)
        xi = rng.uniform(-1, 1, 3)
        coarse = np.linspace(0.0, 1.0, 11)  # 100 RK4 substeps per gap
        run = lqr_trajectory(prob, ric, xi, coarse)
        A, B = sys.A, sys.B
        ref = rk4_path(lambda t, x: (A - B @ (B.T @ ric.P_at(t))) @ x, xi, coarse, 1e-3)
        states = run.trajectory.states
        assert np.abs(states - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
        fine = lqr_trajectory(prob, ric, xi)  # on the Riccati grid, spacing 5e-4
        assert np.allclose(fine.trajectory.grid[::200], coarse, rtol=0, atol=1e-15)
        assert np.abs(states - fine.trajectory.states[::200]).max() <= 1e-9
        assert_allclose(run.adjoint, [ric.P_at(t) @ x for t, x in zip(coarse, states)],
                        rtol=1e-13, atol=1e-15)

    def test_optimal_beats_perturbed_controls(self, rng, scalar_sys):
        prob = LqrProblem(scalar_sys, None, 1.0)
        ric = riccati_finite(prob)
        xi = np.array([1.0])
        run = lqr_trajectory(prob, ric, xi)
        grid = run.trajectory.grid
        base = control_from_samples(grid, run.trajectory.controls)
        for _ in range(20):
            a, f = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 8.0)
            u = ControlSignal(0, 1, 1,
                              lambda t, a=a, f=f: base.u_of(t) + np.array([a * math.sin(f * t)]))
            traj = simulate(scalar_sys, xi, u, grid)
            assert evaluate_cost(prob, traj) >= run.cost - 1e-9

    def test_parallelogram_identity(self, rng):
        sys = LtiSystem(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 1)))
        prob = LqrProblem(sys, np.eye(2) * 0.2, 1.0)
        ric = riccati_finite(prob)
        xi1, xi2 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        runs = {}
        for key, xi in (("1", xi1), ("2", xi2), ("+", xi1 + xi2), ("-", xi1 - xi2)):
            runs[key] = lqr_trajectory(prob, ric, xi)
        lhs = runs["+"].cost + runs["-"].cost
        rhs = 2.0 * runs["1"].cost + 2.0 * runs["2"].cost
        assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(rhs))


class TestEvaluateCost:
    def test_zero(self, scalar_sys):
        prob = LqrProblem(scalar_sys, None, 1.0)
        grid = uniform_grid(0, 1, 11)
        from lincontrol import Trajectory

        traj = Trajectory(grid=grid, states=np.zeros((11, 1)),
                          controls=np.zeros((11, 1)))
        assert evaluate_cost(prob, traj) == 0.0

    def test_constant_state_unit_cost(self):
        sys = LtiSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2))
        prob = LqrProblem(sys, None, 1.0)
        from lincontrol import Trajectory

        grid = uniform_grid(0, 1, 21)
        states = np.tile([1.0, 0.0], (21, 1))
        traj = Trajectory(grid=grid, states=states, controls=np.zeros((21, 1)))
        assert evaluate_cost(prob, traj) == pytest.approx(1.0, abs=1e-12)

    def test_missing_controls_rejected(self, scalar_sys):
        from lincontrol import Trajectory

        prob = LqrProblem(scalar_sys, None, 1.0)
        traj = Trajectory(grid=[0.0, 1.0], states=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            evaluate_cost(prob, traj)


class TestAreSolve:
    def test_scalar_unit_fixture(self, scalar_sys):
        sol = are_solve(scalar_sys)
        assert abs(sol.P[0, 0] - 1.0) <= 1e-8
        assert sol.closed_loop_abscissa == pytest.approx(-1.0, abs=1e-6)

    def test_scalar_stabilizing_root_selected(self):
        # 2P - P^2 = 0 has roots 0 and 2; only P = 2 stabilizes
        sol = are_solve(LtiSystem([[1.0]], [[1.0]], [[0.0]]))
        assert abs(sol.P[0, 0] - 2.0) <= 1e-8
        assert sol.closed_loop_abscissa == pytest.approx(-1.0, abs=1e-6)

    def test_pendulum(self, pendulum):
        sys = LtiSystem(pendulum.A, pendulum.B)  # C defaults to identity
        sol = are_solve(sys)
        assert sol.residual <= 1e-6
        assert sol.closed_loop_abscissa < 0

    def test_random_stabilizable_draws(self, rng):
        cfg = ToleranceConfig(ode_step=4e-3)
        for _ in range(8):
            n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            m = int(rng.integers(1, n + 1))
            sys = LtiSystem(rng.uniform(-1, 1, (n, n)) - 0.2 * np.eye(n),
                            rng.uniform(-1, 1, (n, p)),
                            rng.uniform(-1, 1, (m, n)))
            sol = are_solve(sys, cfg, convergence_tol=1e-8)
            assert sol.residual <= 1e-6
            assert sol.closed_loop_abscissa < 0

    def test_finite_cost_violation(self):
        # unstable mode unreachable from the input
        sys = LtiSystem(np.diag([1.0, -1.0]), [[0.0], [1.0]], np.eye(2))
        with pytest.raises(FiniteCostViolationError) as exc:
            are_solve(sys)
        assert exc.value.bad_eigenvalue == pytest.approx(1.0)

    def test_convergence_cap(self, scalar_sys):
        slow = LtiSystem([[0.01]], [[1.0]], [[1.0]])
        with pytest.raises(ConvergenceError):
            are_solve(slow, initial_horizon=0.25, max_doublings=1)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    def test_degenerate_initial_horizon_rejected(self, scalar_sys, horizon):
        with pytest.raises(DomainError):
            are_solve(scalar_sys, initial_horizon=horizon)

    def test_tiny_initial_horizon_refused_by_residual(self):
        # A = 0, B = 1, C = 2 has P = 2. From T = 1e-12 both P_T(0) and
        # P_2T(0) stay at the terminal weight I and pass the stopping
        # rule; the ARE residual 3 is half the size of the terms.
        sys = LtiSystem([[0.0]], [[1.0]], [[2.0]])
        with pytest.raises(NumericalInconsistencyError):
            are_solve(sys, initial_horizon=1e-12)
        assert are_solve(sys).P[0, 0] == pytest.approx(2.0, abs=1e-8)

    def test_negative_doubling_budget_rejected(self, scalar_sys):
        with pytest.raises(DomainError):
            are_solve(scalar_sys, max_doublings=-3)

    def test_zero_doubling_budget_does_not_converge(self, scalar_sys):
        with pytest.raises(ConvergenceError):
            are_solve(scalar_sys, max_doublings=0)


def _oracle_draw(rng, n, blind):
    """Stabilizable pair with two inputs; with `blind`, A gets the real
    unstable eigenvalue 0.5 on a direction that C annihilates."""
    A = rng.standard_normal((n, n)) / np.sqrt(n) - 0.5 * np.eye(n)
    B = rng.standard_normal((n, 2))
    C = rng.standard_normal((n // 2, n))
    if blind:
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        A = A - np.outer(A @ v, v) + 0.5 * np.outer(v, v)
        C = C - np.outer(C @ v, v)
    return A, B, C


def _admitted_by_scipy(A, B, C):
    """SciPy's CARE solution when the problem is well posed: a moderate
    solution and Hamiltonian eigenvalues clear of the imaginary axis."""
    X = scipy.linalg.solve_continuous_are(A, B, C.T @ C, np.eye(B.shape[1]))
    H = np.block([[A, -B @ B.T], [-C.T @ C, -A.T]])
    gap = np.abs(np.linalg.eigvals(H).real).min()
    return X if np.linalg.norm(X) <= 1e4 and gap >= 0.05 else None


class TestAreScipyOracle:
    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("blind", [False, True])
    def test_matches_scipy_care(self, n, blind):
        rng = np.random.default_rng([n, int(blind)])
        admitted = 0
        for _ in range(40):
            A, B, C = _oracle_draw(rng, n, blind)
            X = _admitted_by_scipy(A, B, C)
            if X is None:
                continue
            if blind:  # the planted mode is unstable and unobserved
                assert np.linalg.matrix_rank(np.vstack([A - 0.5 * np.eye(n), C])) < n
            sol = are_solve(LtiSystem(A, B, C))
            assert np.linalg.norm(sol.P - X) <= 1e-8 * np.linalg.norm(X)
            assert np.linalg.eigvals(A - B @ B.T @ sol.P).real.max() < 0
            assert sol.closed_loop_abscissa < 0
            admitted += 1
            if admitted == 3:
                break
        assert admitted == 3


class TestRiccatiPropagator:
    @staticmethod
    def _apply(triple, D):
        alpha, beta, gamma = triple
        return gamma + alpha.T @ D @ np.linalg.solve(np.eye(len(D)) + beta @ D, alpha)

    def test_composed_triple_is_the_flow_over_the_sum(self, rng):
        n = 4
        A = rng.uniform(-1, 1, (n, n))
        B = rng.uniform(-1, 1, (n, 2))
        C = rng.uniform(-1, 1, (3, n))
        P0 = rng.uniform(-1, 1, (n, n))
        P0 = P0 @ P0.T
        BBt, CtC = B @ B.T, C.T @ C
        first = _flow_triple(A, BBt, CtC, 0.3, P0)
        second = _flow_triple(A, BBt, CtC, 0.55, P0)
        both = _compose(first, second)
        for D in (np.zeros((n, n)), 0.1 * P0, np.eye(n)):
            in_turn = self._apply(second, self._apply(first, D))
            assert_allclose(self._apply(both, D), in_turn, rtol=1e-12, atol=1e-12)
        for got, want in zip(both, _flow_triple(A, BBt, CtC, 0.85, P0)):
            assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        for got, want in zip(_compose(first, first), _flow_triple(A, BBt, CtC, 0.6, P0)):
            assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_triple_matches_integrated_flow(self, rng):
        # gamma is the deviation from P0 reached by the backward equation
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 1))
        C = rng.uniform(-1, 1, (2, 3))
        P0 = np.eye(3)
        BBt, CtC = B @ B.T, C.T @ C

        def rhs(t, y):
            P = y.reshape(3, 3)
            return (P @ A + A.T @ P - P @ BBt @ P + CtC).ravel()

        integrated = rk4_path(rhs, P0.ravel(), [0.0, 2.0], 1e-3)[-1].reshape(3, 3)
        _, _, gamma = _flow_triple(A, BBt, CtC, 2.0, P0)
        assert_allclose(P0 + gamma, integrated, atol=1e-10)


def _scan_draw(rng, n, blind):
    """Pair with entries N(0, 1/n), two inputs and n/2 outputs; with
    `blind`, A gets the real unstable eigenvalue 0.5 on a direction that
    C annihilates, where the anchoring of the flow at P0 matters."""
    A = rng.standard_normal((n, n)) / np.sqrt(n) - 0.3 * np.eye(n)
    B = rng.standard_normal((n, 2)) / np.sqrt(n)
    C = rng.standard_normal((max(1, n // 2), n)) / np.sqrt(n)
    if blind:
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        A = A - np.outer(A @ v - 0.5 * v, v)
        C = C - np.outer(C @ v, v)
    return LtiSystem(A, B, C)


class TestRiccatiScan:
    @pytest.mark.parametrize("n", [2, 8, 16, 24])
    @pytest.mark.parametrize("T", [1.0, 5.0])
    @pytest.mark.parametrize("blind", [False, True])
    def test_matches_the_sequential_sweep(self, n, T, blind):
        rng = np.random.default_rng([n, int(T), int(blind)])
        sys = _scan_draw(rng, n, blind)
        if blind:
            assert np.linalg.matrix_rank(np.vstack([sys.A - 0.5 * np.eye(n), sys.C])) < n
        P0 = np.eye(n) if T == 5.0 else None
        prob = LqrProblem(sys, P0, T)
        ric = riccati_finite(prob)
        m = ric.grid.size - 1
        assert m in (2000, 5000)  # not a power of two
        ref = riccati_sweep(prob, ric.grid[1])
        assert np.abs(ric.P_samples - ref).max() <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [2, 3, 5, 17, 100])
    def test_short_grids_match_the_sweep(self, rng, m):
        # the first and last levels of the scan coincide or hold one sample;
        # a horizon of fewer than four steps is split into four intervals
        prob = LqrProblem(_scan_draw(rng, 3, False), 0.5 * np.eye(3), 1e-4 * m)
        ric = riccati_finite(prob, step=1e-4)
        assert ric.grid.size == max(m, 4) + 1
        ref = riccati_sweep(prob, ric.grid[1])
        assert np.abs(ric.P_samples - ref).max() <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("lam, when", [(20.0, "0.217"), (400.0, "0.957")])
    def test_escape_names_the_first_blown_up_sample(self, lam, when):
        # B = 0: P grows like exp(2 lam (T - t)) / (2 lam) and passes
        # BLOWUP_NORM at the stated time; at lam = 400 the later levels
        # of the scan would overflow
        prob = LqrProblem(LtiSystem([[lam]], [[0.0]], [[1.0]]), None, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EscapeTimeError, match=rf"blew up near t = {when}$"):
                riccati_finite(prob)
        assert riccati_sweep(prob, 1.0 / 2000) == pytest.approx(float(when), abs=1e-12)

    @pytest.mark.parametrize("T", [2e-3, 3e-3])
    def test_horizon_of_two_or_three_steps_is_not_refused(self, T):
        # with 2 or 3 intervals of 1e-3 the three-point stencil's O(h^2)
        # error alone read 2.0e-6 and the exact samples were refused
        prob = LqrProblem(_scan_draw(np.random.default_rng([3, 0]), 3, False),
                          0.5 * np.eye(3), T)
        ric = riccati_finite(prob, step=1e-3)
        assert ric.grid.size == 5
        assert ric.max_residual <= 1e-10
        ref = riccati_sweep(prob, ric.grid[1])
        assert np.abs(ric.P_samples - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_residual_bound_scales_with_the_terms(self):
        # |P| reaches 3.2e3 here: the five-point stencil reads 3.0e-6, about
        # 1e-9 of the size of the terms, on samples exact to 1e-11
        n = 24
        rng = np.random.default_rng([24, 5, 0])
        A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, n)) - 0.3 * np.eye(n)
        B = rng.normal(size=(n, 2))
        C = rng.normal(size=(n, n))
        prob = LqrProblem(LtiSystem(A, B, C), None, 5.0)
        ric = riccati_finite(prob)
        P = ric.P_samples
        scale = max(np.abs(P @ A).max(), np.abs(P @ B @ B.T @ P).max(),
                    np.abs(C.T @ C).max())
        assert 1e-6 < ric.max_residual <= 1e-8 * scale
        ref = riccati_sweep(prob, ric.grid[1])
        assert np.abs(P - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_one_step_overflow_is_an_escape(self):
        # the triple of a single step overflows: reported, not warned
        prob = LqrProblem(LtiSystem([[1e6]], [[0.0]], [[1.0]]), None, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EscapeTimeError, match=r"near t = 0.9995$"):
                riccati_finite(prob)

    @pytest.mark.parametrize("solve", [
        lambda sys: riccati_finite(LqrProblem(sys, None, 1.0)),
        are_solve,
    ], ids=["finite", "are"])
    def test_overflowing_hamiltonian_is_an_escape(self, solve):
        # B B^T overflows; the pair is stabilizable, so are_solve gets there
        sys = LtiSystem([[1e200, 0.0], [0.0, -1.0]], [[1e200], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EscapeTimeError, match="Hamiltonian overflows"):
                solve(sys)

    def test_peak_memory_at_n8(self):
        # the one-step-at-a-time sweep peaked at 4.9 MiB here
        rng = np.random.default_rng([8, 3])
        sys = LtiSystem(rng.standard_normal((8, 8)) / np.sqrt(8),
                        rng.standard_normal((8, 2)) / np.sqrt(8),
                        rng.standard_normal((4, 8)) / np.sqrt(8))
        prob = LqrProblem(sys, None, 1.0)
        riccati_finite(prob)
        tracemalloc.start()
        try:
            riccati_finite(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.9 * 2 ** 20
