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
    NumericalError,
    ToleranceConfig,
    are_solve,
    evaluate_cost,
    lqr_trajectory,
    riccati_finite,
    simulate,
    uniform_grid,
)
from lincontrol import kernels
from lincontrol.kernels import _compose, _flow_triple, rk4_path
from lincontrol.kernels import MAX_PATH_ENTRIES
from lincontrol.lqr import _riccati_block

from helpers import (
    compose_by_blocks,
    control_from_samples,
    flow_triple_by_blocks,
    riccati_sweep,
    transition_loop,
)


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

    def test_dense_output_is_the_sampled_function_itself(self, scalar_sys):
        ric = riccati_finite(LqrProblem(scalar_sys, None, 1.0))
        assert isinstance(ric.P_at, kernels.SampledMatrixFunction)
        assert ric.P_at.values is ric.P_samples
        times = np.linspace(0.0, 1.0, 7)
        assert_allclose(ric.P_at(times)[:, 0, 0], np.tanh(1.0 - times), rtol=0, atol=1e-8)

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
        coarse = np.linspace(0.0, 1.0, 11)  # every 200th Riccati sample
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


class TestStiffClosedForm:
    # x' = u with running cost c^2 x^2 + u^2: P(t) = c tanh(c (T - t)) and
    # from x(0) = 1 the optimal state is cosh(c (T - t)) / cosh(c T)
    @staticmethod
    def _problem(c, T):
        return LqrProblem(LtiSystem([[0.0]], [[1.0]], [[c]]), None, T)

    @pytest.mark.parametrize("c", [100.0, 1e3, 3e3, 1e4])
    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_samples_match_tanh(self, c, T):
        ric = riccati_finite(self._problem(c, T))
        exact = c * np.tanh(c * (T - ric.grid))
        P = ric.P_samples[:, 0, 0]
        assert P[-1] == 0.0
        assert np.all(np.abs(P - exact)[:-1] <= 1e-12 * exact[:-1])
        assert ric.max_residual <= 1e-14

    def test_states_match_the_closed_form(self):
        c, T = 100.0, 1.0
        prob = self._problem(c, T)
        run = lqr_trajectory(prob, riccati_finite(prob), [1.0])
        t = run.trajectory.grid
        exact = np.exp(-c * t) * (1 + np.exp(-2 * c * (T - t))) / (1 + np.exp(-2 * c * T))
        assert np.abs(run.trajectory.states[:, 0] - exact).max() <= 1e-13
        assert run.value == pytest.approx(c * math.tanh(c * T), rel=1e-12)
        assert abs(run.cost - run.value) <= 1e-6 * (1.0 + run.value)

    def test_unresolved_closed_loop_is_refused_by_the_value_identity(self):
        # at c = 1e3 the states decay by e^{-1/2} per sample: they stay
        # exact, but Simpson's rule misses the cost by about 0.5 %
        prob = self._problem(1e3, 1.0)
        with pytest.raises(NumericalInconsistencyError, match="value identity"):
            lqr_trajectory(prob, riccati_finite(prob), [1.0])


class TestLqrGrid:
    @pytest.fixture
    def setup(self, rng):
        sys = LtiSystem(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 2)),
                        rng.uniform(-1, 1, (2, 3)))
        prob = LqrProblem(sys, 0.5 * np.eye(3), 1.0)
        return prob, riccati_finite(prob), rng.uniform(-1, 1, 3)

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 1.0, 7),      # 1/6 is not a multiple of the spacing
        [0.0, 0.5, 1.0 + 5e-4],        # past T
        [-5e-4, 0.5],                  # before 0
        [0.0, 0.5 + 1e-10],            # off by 2e-7 of the spacing
    ], ids=["spacing", "past-T", "before-0", "near-miss"])
    def test_off_sample_grid_is_refused(self, setup, grid):
        prob, ric, xi = setup
        with pytest.raises(DomainError, match="spacing 0.0005"):
            lqr_trajectory(prob, ric, xi, grid)

    def test_late_start_is_the_tail_of_the_full_run(self, setup):
        prob, ric, xi = setup
        full = lqr_trajectory(prob, ric, xi)
        k = 600
        assert ric.grid[k] == 0.3
        tail = lqr_trajectory(prob, ric, full.trajectory.states[k], np.linspace(0.3, 1.0, 1401))
        assert np.array_equal(tail.trajectory.grid, full.trajectory.grid[k:])
        assert np.array_equal(tail.trajectory.states, full.trajectory.states[k:])
        assert np.array_equal(tail.adjoint, full.adjoint[k:])
        assert np.array_equal(tail.control, full.control[k:])
        x = full.trajectory.states[k]
        assert tail.value == float(x @ ric.P_samples[k] @ x)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_states_are_the_plain_transition_loop_bit_for_bit(self, n):
        rng = np.random.default_rng([n, 19])
        A = rng.standard_normal((n, n)) / math.sqrt(n)
        B = rng.standard_normal((n, max(1, n // 2)))
        C = rng.standard_normal((n, n))
        prob = LqrProblem(LtiSystem(A, B, C), None, 1.0)
        ric = riccati_finite(prob)
        xi = rng.standard_normal(n)
        run = lqr_trajectory(prob, ric, xi)
        assert np.array_equal(run.trajectory.states, transition_loop(ric.transitions, xi))

    def test_grid_ending_before_T_keeps_the_cost_to_T(self, setup):
        prob, ric, xi = setup
        full = lqr_trajectory(prob, ric, xi)
        head = lqr_trajectory(prob, ric, xi, [0.0, 0.25, 0.5])
        assert np.array_equal(head.trajectory.states, full.trajectory.states[[0, 500, 1000]])
        assert head.cost == full.cost

    def test_non_finite_state_is_refused_with_its_time(self):
        # C = 0, so P = 0 and x = 1e300 e^{50 t}, which overflows once
        # 50 t > ln(1.8e8), at the sample t = 0.3805
        prob = LqrProblem(LtiSystem([[50.0]], [[1.0]], [[0.0]]), None, 1.0)
        ric = riccati_finite(prob)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=r"not finite at t = 0.3805$"):
                lqr_trajectory(prob, ric, [1e300])


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

    @pytest.mark.parametrize("A, C, P, horizon", [(0.0, 1.0, 1.0, 2.0), (1.0, 0.0, 2.0, 32.0)],
                             ids=["P=1", "P=2"])
    def test_closed_form_fixtures_and_their_horizons(self, A, C, P, horizon):
        # the closed forms and the doublings that reach them
        sol = are_solve(LtiSystem([[A]], [[1.0]], [[C]]))
        assert abs(sol.P[0, 0] - P) <= 1e-14
        assert sol.horizon_used == horizon

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


def _random_triple(rng, n):
    """alpha with entries N(0, 1/n) plus I, beta and gamma symmetric PSD:
    I + beta gamma then has its eigenvalues at or above 1."""
    alpha = np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    Mb, Mg = rng.standard_normal((2, n, n)) / np.sqrt(n)
    return alpha, Mb @ Mb.T, Mg @ Mg.T


def _rel_miss(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestLapackKernels:
    """`_compose` and `_flow_triple` against the stacked-block formulas."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 24])
    def test_compose_matches_the_block_formulas(self, n):
        rng = np.random.default_rng([13, n])
        for _ in range(5):
            first, second = _random_triple(rng, n), _random_triple(rng, n)
            for got, want in zip(_compose(first, second), compose_by_blocks(first, second)):
                assert got.shape == (n, n)
                assert _rel_miss(got, want) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 24])
    def test_flow_triple_matches_the_block_formulas(self, n):
        rng = np.random.default_rng([13, n, 1])
        for duration in (0.01, 0.7, 4.0):
            A = rng.standard_normal((n, n)) / np.sqrt(n)
            B = rng.standard_normal((n, 2)) / np.sqrt(n)
            C = rng.standard_normal((n, n)) / np.sqrt(n)
            M = rng.standard_normal((n, n)) / np.sqrt(n)
            args = (A, B @ B.T, C.T @ C, duration, M @ M.T)
            for got, want in zip(_flow_triple(*args), flow_triple_by_blocks(*args)):
                assert _rel_miss(got, want) <= 1e-13

    def test_singular_composition_is_an_escape(self):
        # W = I + beta2 gamma1 = I - I is exactly singular
        eye = np.eye(3)
        with pytest.raises(EscapeTimeError, match="^Riccati flow lost invertibility$"):
            _compose((eye, eye, -eye), (eye, eye, eye))

    def test_singular_phi11_is_an_escape(self, monkeypatch):
        # an exponential whose upper-left block is exactly singular
        def expm(M):
            Phi = scipy.linalg.expm(M)
            Phi[0, :len(M) // 2] = 0.0
            return Phi

        monkeypatch.setattr(kernels, "expm", expm)
        with pytest.raises(EscapeTimeError, match="^Riccati flow lost invertibility$"):
            _flow_triple(np.eye(2), np.eye(2), np.eye(2), 1.0, np.zeros((2, 2)))

    @pytest.mark.parametrize("c", [1e2, 1e3, 1e4, 1e6])
    def test_unbalanced_weights_scale_exactly(self, c):
        # B -> B / c and C -> c C map every value matrix to c^2 times its own;
        # the unit-norm step of an unbalanced Hamiltonian used to lose A to
        # rounding (misses 7e-13 ... 4e-5 at c = 1e2 ... 1e6)
        A = np.array([[-1.0, 0.3], [0.2, -2.0]])
        B, C = np.array([[1.0], [0.5]]), np.array([[1.0, 0.0]])
        base, scaled = LtiSystem(A, B, C), LtiSystem(A, B / c, c * C)
        for solve in (lambda s: are_solve(s).P,
                      lambda s: riccati_finite(LqrProblem(s, None, 1.0)).P_samples):
            want = solve(base)
            assert np.abs(solve(scaled) / c ** 2 - want).max() <= 1e-14 * np.abs(want).max()


class TestRiccatiSampleBudget:
    def test_unallocatable_grid_is_refused_first(self):
        # 10^14 steps: without the check np.empty fails with MemoryError
        prob = LqrProblem(LtiSystem([[-1.0]], [[1.0]]), None, 1e11)
        with pytest.raises(DomainError, match=r"m = \d+ steps at n = 1: .*MAX_PATH_ENTRIES"):
            riccati_finite(prob)

    def test_the_cap_bounds_samples_and_transitions(self, monkeypatch):
        # m = 10 steps at n = 2: 11 samples and 10 transitions of 4 entries
        prob = LqrProblem(_scan_draw(np.random.default_rng([2, 0]), 2, False), None, 1e-2)
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 84)
        assert riccati_finite(prob, step=1e-3).grid.size == 11
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 83)
        with pytest.raises(DomainError, match="84 entries, over MAX_PATH_ENTRIES = 83"):
            riccati_finite(prob, step=1e-3)

    @pytest.mark.parametrize("n, m", [(2, 10 ** 5), (8, 2 * 10 ** 4)])
    def test_no_temporary_is_the_size_of_the_samples(self, n, m):
        # the budget counts the (2m + 1) n^2 samples and transitions; the
        # slopes of P_at add (m + 1) n^2 and the grid m + 1 entries. Formed
        # all at once, P B B^T P took one more (m + 1) n^2 temporary and
        # the run peaked at 2.15 (n = 2) and 2.03 (n = 8) times the budget
        prob = LqrProblem(_scan_draw(np.random.default_rng([n, 3]), n, False), None, 1.0)
        riccati_finite(prob, step=1e-2)  # warm up lazily loaded LAPACK wrappers
        tracemalloc.start()
        try:
            riccati_finite(prob, step=1.0 / m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 8 * (2 * m + 1) * n * n + 8 * (m + 1)

    def test_largest_tested_grid_is_well_inside(self):
        # n = 24 at T = 5 on the default spacing of 1e-3
        assert 10 * (2 * 5000 + 1) * 24 ** 2 <= MAX_PATH_ENTRIES


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
        # the first and last levels of the scan coincide or hold one sample
        prob = LqrProblem(_scan_draw(rng, 3, False), 0.5 * np.eye(3), 1e-4 * m)
        ric = riccati_finite(prob, step=1e-4)
        assert ric.grid.size == m + 1
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
        # a finite-difference check of the equation needs more samples than
        # these horizons have; the one-step certificate needs two
        prob = LqrProblem(_scan_draw(np.random.default_rng([3, 0]), 3, False),
                          0.5 * np.eye(3), T)
        ric = riccati_finite(prob, step=1e-3)
        assert ric.grid.size == round(T / 1e-3) + 1
        assert ric.max_residual <= 1e-10
        ref = riccati_sweep(prob, ric.grid[1])
        assert np.abs(ric.P_samples - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_residual_bound_scales_with_the_terms(self):
        # |P| reaches 3.2e3 here: an absolute bound on the residual would
        # scale with P, the one-step miss relative to 1 + max |P| does not
        n = 24
        rng = np.random.default_rng([24, 5, 0])
        A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, n)) - 0.3 * np.eye(n)
        B = rng.normal(size=(n, 2))
        C = rng.normal(size=(n, n))
        prob = LqrProblem(LtiSystem(A, B, C), None, 5.0)
        ric = riccati_finite(prob)
        P = ric.P_samples
        assert ric.max_residual <= 1e-12
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


def _grid_problem(n, m, rng):
    """A draw of `_scan_draw` on m steps of the exact spacing 2^-10."""
    return LqrProblem(_scan_draw(rng, n, False), 0.5 * np.eye(n), m / 1024), 1 / 1024


class TestRiccatiBlocks:
    @pytest.mark.parametrize("m", [2000, 2003])
    def test_a_doubling_off_the_one_step_flow_is_refused(self, monkeypatch, m):
        # every composed gamma scaled by 1 + 1e-8: the block starts of the
        # doubling leave the one-step images of the rounds
        prob, h = _grid_problem(4, m, np.random.default_rng([4, m]))
        s = _riccati_block(m, 4)
        assert s > 1 and (m % s == 0) == (m == 2000)
        assert riccati_finite(prob, step=h).max_residual <= 1e-12
        compose = kernels._compose

        def off(first, second):
            alpha, beta, gamma = compose(first, second)
            return alpha, beta, gamma * (1.0 + 1e-8)

        monkeypatch.setattr(kernels, "_compose", off)
        with pytest.raises(NumericalInconsistencyError, match="miss the one-step flow"):
            riccati_finite(prob, step=h)

    @pytest.mark.parametrize("n", [1, 2, 8, 24])
    @pytest.mark.parametrize("m", [2, 3, 17, 2000, 5000])
    def test_transitions_are_the_one_step_solves_of_the_samples(self, n, m):
        prob, h = _grid_problem(n, m, np.random.default_rng([n, m, 1]))
        ric = riccati_finite(prob, step=h)
        assert ric.grid.size == m + 1
        sys = prob.sys
        alpha, beta, _ = _flow_triple(sys.A, sys.B @ sys.B.T, sys.C.T @ sys.C, h, prob.P0)
        D = ric.P_samples[1:] - prob.P0
        want = np.linalg.solve(np.eye(n) + beta @ D, np.broadcast_to(alpha, D.shape))
        assert np.abs(ric.transitions - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n, m", [(1, 2000), (1, 5000), (8, 17), (8, 2000), (8, 5000),
                                      (24, 5000)])
    def test_solves_one_matrix_per_step_and_one_per_block(self, monkeypatch, n, m):
        prob, h = _grid_problem(n, m, np.random.default_rng([n, m, 2]))
        s = _riccati_block(m, n)
        assert s > 1
        solved, solve = [], np.linalg.solve

        def counting(a, b):
            solved.append(math.prod(np.shape(a)[:-2]))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        riccati_finite(prob, step=h)
        # a scan over every sample and a one-step pass solved 2m - 1
        assert sum(solved) <= m + math.ceil(m / s) + 2 * math.ceil(math.log2(m))
