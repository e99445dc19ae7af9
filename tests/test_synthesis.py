import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from lincontrol import (
    ConditioningError,
    DecayRateTooSmallError,
    LtiSystem,
    MonicPolynomial,
    NumericalError,
    UncontrollableError,
    UnobservableError,
    characteristic_polynomial,
    closed_loop_observer_system,
    controller_form,
    design_observer,
    eigenvalues,
    gramian_stabilizer,
    kalman_decomposition,
    kalman_test,
    pole_place,
    simulate,
    spectral_abscissa,
    uniform_grid,
)
from lincontrol.synthesis import minimal_decay_rate

import helpers


def sorted_real(values):
    return np.sort(np.asarray(values).real)


class TestMonicPolynomial:
    def test_sign_convention(self):
        # s^2 + 2 s + 1 = s^2 - (-2) s - (-1)
        mp = MonicPolynomial.from_roots([-1.0, -1.0])
        assert_allclose(mp.alphas, [-1.0, -2.0])
        assert_allclose(mp.monic_coefficients(), [1.0, 2.0, 1.0])

    def test_conjugate_pairing_enforced(self):
        with pytest.raises(ValueError):
            MonicPolynomial.from_roots([1j, 2.0])
        mp = MonicPolynomial.from_roots([1j, -1j])
        assert_allclose(mp.monic_coefficients(), [1.0, 0.0, 1.0], atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=5,
                    unique=True))
    def test_roots_round_trip(self, roots):
        gaps = np.diff(np.sort(roots))
        assume(gaps.size == 0 or gaps.min() > 0.1)  # clustered roots are ill-posed
        mp = MonicPolynomial.from_roots(roots)
        back = sorted_real(mp.roots())
        scale = 1.0 + np.abs(np.asarray(roots)).max()
        assert np.abs(back - np.sort(roots)).max() < 1e-6 * scale


class TestCharacteristicPolynomial:
    def test_involution(self):
        mp = characteristic_polynomial([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(mp.alphas, [1.0, 0.0], atol=1e-12)

    def test_zero_matrix(self):
        mp = characteristic_polynomial(np.zeros((2, 2)))
        assert_allclose(mp.alphas, [0.0, 0.0], atol=1e-15)

    def test_companion_fixture(self):
        # det(sI - A) with A = [[0,1],[-1,-2]] expands to s^2 + 2 s + 1
        mp = characteristic_polynomial([[0.0, 1.0], [-1.0, -2.0]])
        assert_allclose(mp.alphas, [-1.0, -2.0], atol=1e-9)

    def test_overflowing_expansion_refused(self):
        # det(sI - A) = s^2 - 2e200 s + 1e400: the constant overflows
        with pytest.raises(ConditioningError):
            characteristic_polynomial(np.diag([1e200, 1e200]))


class TestControllerForm:
    def test_companion_is_fixed_point(self):
        A = np.array([[0.0, 1.0], [1.5, -0.5]])
        b = np.array([0.0, 1.0])
        form = controller_form(A, b)
        assert_allclose(form.A_sharp, A, atol=1e-12)
        assert_allclose(form.b_sharp, b, atol=1e-12)
        assert_allclose(form.T, np.eye(2), atol=1e-10)

    def test_pendulum_fixture(self, pendulum):
        form = controller_form(pendulum.A, pendulum.B[:, 0])
        assert_allclose(form.A_sharp, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        assert_allclose(form.b_sharp, [0.0, 1.0])
        Ti = np.linalg.inv(form.T)
        assert np.abs(Ti @ pendulum.A @ form.T - form.A_sharp).max() < 1e-10
        assert np.abs(Ti @ pendulum.B[:, 0] - form.b_sharp).max() < 1e-10

    def test_random_round_trip(self, rng):
        for _ in range(10):
            sys = helpers.random_controllable(rng, 4, 1)
            form = controller_form(sys.A, sys.B[:, 0])
            back = form.T @ form.A_sharp @ np.linalg.inv(form.T)
            assert np.abs(back - sys.A).max() < 1e-8 * (1.0 + np.abs(sys.A).max())

    def test_uncontrollable_rejected(self):
        with pytest.raises(UncontrollableError):
            controller_form(np.diag([1.0, 2.0]), np.array([1.0, 0.0]))

    def test_carries_the_inverse_it_verified(self, rng):
        sys = helpers.random_controllable(rng, 4, 1)
        form = controller_form(sys.A, sys.B[:, 0])
        assert np.abs(form.T_inv @ form.T - np.eye(4)).max() < 1e-10
        assert np.abs(form.T_inv @ sys.B[:, 0] - form.b_sharp).max() < 1e-8


class TestPolePlacement:
    def test_double_integrator_fixture(self, double_integrator):
        target = MonicPolynomial.from_roots([-1.0, -1.0])
        gain = pole_place(double_integrator.A, double_integrator.B, target)
        assert_allclose(gain.F, [[-1.0, -2.0]], atol=1e-10)
        assert gain.residual <= 1e-6

    def test_keeping_own_polynomial_needs_no_gain(self, rng):
        sys = helpers.random_controllable(rng, 3, 1)
        target = characteristic_polynomial(sys.A)
        gain = pole_place(sys.A, sys.B, target)
        assert np.abs(gain.F).max() < 1e-8 * (1.0 + np.abs(sys.A).max())

    def test_multi_input_random(self, rng):
        target = MonicPolynomial.from_roots([-1.0, -2.0, -3.0, -4.0])
        sys = helpers.random_controllable(rng, 4, 2)
        gain = pole_place(sys.A, sys.B, target)
        assert np.abs(sorted_real(gain.achieved_spectrum) - [-4, -3, -2, -1]).max() < 1e-6

    def test_random_batch_coefficients_match(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            p = int(rng.integers(1, 4))
            sys = helpers.random_controllable(rng, n, p)
            roots = -rng.uniform(0.5, 3.0, n)
            target = MonicPolynomial.from_roots(roots)
            gain = pole_place(sys.A, sys.B, target)
            achieved = characteristic_polynomial(sys.A + sys.B @ gain.F).alphas
            rel = np.abs(achieved - target.alphas) / (1.0 + np.abs(target.alphas))
            assert rel.max() <= 1e-6

    def test_uncontrollable_rejected_and_fixed_block_spectrum(self, rng):
        A = np.diag([1.0, 2.0, -1.0])
        B = np.array([[1.0], [0.0], [1.0]])
        sys = LtiSystem(A, B)
        target = MonicPolynomial.from_roots([-1.0, -2.0, -3.0])
        with pytest.raises(UncontrollableError):
            pole_place(A, B, target)
        dec = kalman_decomposition(sys)
        locked = sorted_real(eigenvalues(dec.A3))
        for _ in range(10):
            F = rng.uniform(-1, 1, (1, 3))
            spectrum = sorted_real(eigenvalues(A + B @ F))
            # the uncontrollable block's eigenvalues appear unchanged
            for lam in locked:
                assert np.min(np.abs(spectrum - lam)) < 1e-6


    @pytest.mark.parametrize("p", [1, 2])
    def test_uncontrollable_refusal_names_the_pair(self, p):
        # one input is refused by the controller form's gate, several by
        # pole_place's own; the place manifest carries the message either way
        A = np.diag([1.0, 2.0, -1.0])
        B = np.hstack([[[1.0], [0.0], [1.0]]] * p)
        with pytest.raises(UncontrollableError, match=r"^\(A, B\) is not controllable$"):
            pole_place(A, B, MonicPolynomial.from_roots([-1.0, -2.0, -3.0]))

    @pytest.mark.parametrize("p, gates", [(1, 1), (2, 2)])
    def test_one_gate_and_one_closed_loop_spectrum(self, rng, monkeypatch, p, gates):
        # several inputs gate the pair and then its single-input reduction;
        # the eigvals are chi_A of the companion form and the closed loop
        sys = helpers.random_controllable(rng, 4, p)
        counts = helpers.count_decisions(monkeypatch)
        pole_place(sys.A, sys.B, MonicPolynomial.from_roots([-1.0, -2.0, -3.0, -4.0]))
        assert (counts["is_controllable"], counts["eigvals"]) == (gates, 2)

    def test_a_reduction_lost_to_rounding_is_a_numerical_failure(self):
        # the pair passes its gate; the reduced pair (A + B F1, B v) built
        # here fails it, which is no fault of the input
        sys, roots = helpers.reduction_losing_draw(32, 0)
        assert kalman_test(sys).controllable
        target = MonicPolynomial.from_roots(roots)
        with pytest.raises(ConditioningError, match=r"^the single-input reduction \(A \+ B F1, B v\)"):
            pole_place(sys.A, sys.B, target)
        with pytest.raises(ConditioningError, match=r"^the single-input reduction \(A \+ B F1, B v\)"):
            design_observer(sys.A, sys.C, target)

    def test_overflowed_closed_loop_refused(self):
        # the gain row is -1.7e308 - 1e308 = -inf, so A + B F overflows
        A = np.array([[0.0, 1.0], [1e308, 0.0]])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(ConditioningError, match="overflows"):
            pole_place(A, B, MonicPolynomial(2, [-1.7e308, 0.0]))


class TestObserverDesign:
    def test_scalar_fixture(self):
        gain = design_observer([[0.0]], [[1.0]], MonicPolynomial.from_roots([-1.0]))
        assert_allclose(gain.L, [[-1.0]], atol=1e-12)

    def test_pendulum_double_pole(self, pendulum):
        gain = design_observer(pendulum.A, pendulum.C,
                               MonicPolynomial.from_roots([-2.0, -2.0]))
        assert gain.closed_loop_abscissa == pytest.approx(-2.0, abs=1e-6)

    def test_duality_round_trip_random(self, rng):
        for _ in range(10):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            A, C = helpers.random_observable(rng, n, m)
            roots = -rng.uniform(0.5, 3.0, n)
            gain = design_observer(A, C, MonicPolynomial.from_roots(roots))
            got = sorted_real(eigenvalues(A + gain.L @ C))
            assert np.abs(got - np.sort(roots)).max() < 1e-6

    @pytest.mark.parametrize("m", [1, 2])
    def test_observer_is_the_transposed_placement(self, rng, m):
        # bit for bit: no gate, spectrum or input layout of its own
        for _ in range(30):
            n = int(rng.integers(1, 6))
            A, C = helpers.random_observable(rng, n, m)
            target = MonicPolynomial.from_roots(-rng.uniform(0.5, 3.0, n))
            gain = design_observer(A, C, target)
            dual = pole_place(A.T.copy(), C.T.copy(), target)
            assert gain.L.tobytes() == dual.F.T.tobytes()
            assert gain.closed_loop_abscissa == np.max(dual.achieved_spectrum.real)

    def test_unobservable_rejected(self):
        # one output and two: the dual placement's gate, refused as unobservable
        for A, C in [(np.diag([1.0, 2.0]), [[1.0, 0.0]]),
                     (np.diag([1.0, 2.0, 3.0]), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])]:
            target = MonicPolynomial.from_roots(-1.0 - np.arange(A.shape[0]))
            with pytest.raises(UnobservableError, match=r"^\(A, C\) is not observable$"):
                design_observer(A, C, target)


class TestObserverLoop:
    @pytest.fixture
    def pendulum_loop(self, pendulum):
        K = pole_place(pendulum.A, pendulum.B,
                       MonicPolynomial.from_roots([-1.0, -1.5])).F
        L = design_observer(pendulum.A, pendulum.C,
                            MonicPolynomial.from_roots([-2.0, -3.0])).L
        return closed_loop_observer_system(pendulum.A, pendulum.B, pendulum.C, K, L)

    def test_spectrum_is_union(self, pendulum_loop):
        loop = pendulum_loop
        aug = sorted_real(eigenvalues(loop.augmented))
        parts = np.concatenate([
            eigenvalues(loop.A + loop.B @ loop.K).real,
            eigenvalues(loop.A + loop.L @ loop.C).real,
        ])
        assert np.abs(aug - np.sort(parts)).max() < 1e-8

    def test_estimate_error_decay_rate(self, pendulum_loop):
        loop = pendulum_loop
        grid = uniform_grid(0.0, 8.0, 801)
        traj, xhat = loop.simulate([0.4, -0.2], [0.0, 0.0], grid)
        err = np.linalg.norm(xhat - traj.states, axis=1)
        window = (grid >= 1.0) & (grid <= 6.0)
        slope = np.polyfit(grid[window], np.log(err[window]), 1)[0]
        omega_L = spectral_abscissa(loop.A + loop.L @ loop.C)
        assert slope <= 0.9 * omega_L  # decays at least at 0.9 |omega|

    def test_state_decay_rate(self, pendulum_loop):
        # ||x(t)|| <= C e^{-rho t} with rho = 0.9 min(|omega_K|, |omega_L|):
        # the envelope ||x(t)|| e^{rho t} must stay bounded by a modest C
        loop = pendulum_loop
        grid = uniform_grid(0.0, 8.0, 801)
        traj, _ = loop.simulate([0.4, -0.2], [0.1, 0.1], grid)
        norm = np.linalg.norm(traj.states, axis=1)
        rate = min(abs(spectral_abscissa(loop.A + loop.B @ loop.K)),
                   abs(spectral_abscissa(loop.A + loop.L @ loop.C)))
        envelope = norm * np.exp(0.9 * rate * grid)
        assert envelope.max() <= 20.0 * norm[0]

    def test_exact_start_keeps_estimate_exact(self, pendulum_loop):
        grid = uniform_grid(0.0, 3.0, 301)
        traj, xhat = pendulum_loop.simulate([0.3, 0.1], [0.3, 0.1], grid)
        assert np.abs(xhat - traj.states).max() <= 1e-9


class TestGramianStabilizer:
    def test_scalar_fixture_unstable(self):
        stab = gramian_stabilizer([[1.0]], [[1.0]], 2.0)
        assert stab.Q[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert stab.P[0, 0] == pytest.approx(6.0, abs=1e-10)
        assert stab.closed_loop_abscissa == pytest.approx(-5.0, abs=1e-9)
        # oracle: int_0^inf e^{-6t} dt = 1/6
        oracle = helpers.weighted_gramian_by_quadrature(
            np.array([[1.0]]), np.array([[1.0]]), 2.0)
        assert abs(stab.Q[0, 0] - oracle[0, 0]) < 1e-8

    def test_scalar_fixture_integrator(self):
        stab = gramian_stabilizer([[0.0]], [[1.0]], 1.0)
        assert stab.Q[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert stab.P[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert stab.closed_loop_abscissa == pytest.approx(-2.0, abs=1e-9)

    def test_one_schur_form_gives_the_rate_and_the_solve(self, rng, monkeypatch):
        # the closed-loop abscissa is the one eigenvalue computation left
        sys = helpers.random_controllable(rng, 4, 1)
        lam = minimal_decay_rate(sys.A) + 1.0
        counts = helpers.count_factorizations(monkeypatch)
        gramian_stabilizer(sys.A, sys.B, lam)
        assert counts == {"schur": 1, "eigvals": 1}

    def test_pendulum_matches_integral_oracle(self, pendulum):
        # the integral needs lam > omega(-A) = 1, so 1.0 itself diverges
        with pytest.raises(DecayRateTooSmallError):
            gramian_stabilizer(pendulum.A, pendulum.B, 1.0)
        stab = gramian_stabilizer(pendulum.A, pendulum.B, 2.0)
        oracle = helpers.weighted_gramian_by_quadrature(pendulum.A, pendulum.B, 2.0)
        assert np.abs(stab.Q - oracle).max() < 1e-6

    def test_rate_too_small_reports_minimum(self):
        A = np.array([[-3.0]])  # e^{-tA} grows; needs decay rate above 3
        with pytest.raises(DecayRateTooSmallError) as exc:
            gramian_stabilizer(A, [[1.0]], 1.0)
        assert exc.value.minimal_rate == pytest.approx(3.0, abs=1e-5)
        gramian_stabilizer(A, [[1.0]], 3.5)  # above the minimum works

    def test_uncontrollable_rejected(self):
        with pytest.raises(UncontrollableError):
            gramian_stabilizer(np.diag([1.0, 2.0]), [[1.0], [0.0]], 3.0)

    def test_overflowing_input_weight_refused(self):
        # B B^T = 1e310 overflows while the Kalman stack stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConditioningError, match="overflows"):
                gramian_stabilizer([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1e155]], 1.0)

    @pytest.mark.parametrize("lam", [1e154, 1e200, 1e307, 1e308])
    def test_huge_decay_rate_is_solved_or_refused_without_warning(self, lam):
        # P = 2 lam on A = 0, B = 1: (P B)^2 overflows from lam near 7e153
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                stab = gramian_stabilizer([[0.0]], [[1.0]], lam)
            except NumericalError:
                return
        assert stab.riccati_residual <= 1e-6

    def test_riccati_residual_is_relative_at_any_input_scale(self):
        # B -> s B maps P to P / s^2 and every term of the identity alike;
        # a "1 +" in the divisor made it absolute, so at s = 1e80 (P about
        # 1e-160) it read 0.0 and 1.5 P passed as well
        A = np.array([[-1.272, 0.614], [-1.197, -0.322]])
        B = np.array([[-0.00676], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            residuals = [gramian_stabilizer(A, s * B, 1.0).riccati_residual
                         for s in (1.0, 1e-3, 1e40, 1e80)]
        assert 0.0 < residuals[0] <= 1e-14
        assert all(0.1 * residuals[0] <= r <= 10.0 * residuals[0] for r in residuals)

    @pytest.mark.parametrize("lam", [1e200, 1e300])
    def test_huge_decay_rate_is_solved_exactly(self, lam):
        # A = 0, B = 1: P = 2 lam and K = -2 lam stay finite although
        # ||P B||^2 overflows; the identity divided by ||P|| does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stab = gramian_stabilizer([[0.0]], [[1.0]], lam)
        assert abs(stab.K[0, 0] + 2.0 * lam) <= 1e-12 * 2.0 * lam
        assert stab.riccati_residual <= 1e-6

    @pytest.mark.parametrize("lam", [1.0, 10.0, 1e3, 1e10, 1e50, 1e100, 1e150])
    @pytest.mark.parametrize("A, B", [
        ([[0.0]], [[1.0]]),
        ([[-1.272, 0.614], [-1.197, -0.322]], [[-0.00676], [1.0]]),
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]),
    ], ids=["scalar", "two", "double-integrator"])
    def test_divided_identity_keeps_the_verdicts(self, A, B, lam):
        # the undivided ratio of the returned P gives the same verdict
        try:
            stab = gramian_stabilizer(A, B, lam)
        except ConditioningError as exc:
            assert "Riccati identity" not in str(exc)
            return
        A, B, P = np.array(A), np.array(B), stab.P
        PA, PB = P @ A, P @ B
        lhs = PA + PA.T + 2.0 * lam * P - PB @ PB.T
        undivided = np.linalg.norm(lhs) / (
            np.linalg.norm(PA) + 2.0 * lam * np.linalg.norm(P) + np.linalg.norm(PB) ** 2)
        assert stab.riccati_residual <= 1e-6 and undivided <= 1e-6
        assert abs(stab.riccati_residual - undivided) <= 1e-12

    def test_closed_loop_meets_rate_random(self, rng):
        for lam in (0.5, 1.0, 2.0):
            for _ in range(5):
                n, p = int(rng.integers(1, 5)), int(rng.integers(1, 3))
                sys = helpers.random_controllable(rng, n, p)
                rate = max(lam, minimal_decay_rate(sys.A) + 0.1)
                stab = gramian_stabilizer(sys.A, sys.B, rate)
                assert stab.closed_loop_abscissa <= -rate + 1e-6

    def test_lyapunov_decay_along_trajectory(self, rng, pendulum):
        lam = 2.0
        stab = gramian_stabilizer(pendulum.A, pendulum.B, lam)
        closed = LtiSystem(pendulum.A + pendulum.B @ stab.K, pendulum.B)
        grid = uniform_grid(0.0, 4.0, 2001)
        x0 = np.array([0.7, -0.3])
        traj = simulate(closed, x0, None, grid)
        V = np.einsum("ki,ij,kj->k", traj.states, stab.P, traj.states)
        bound = np.exp(-2.0 * lam * grid) * V[0] * (1.0 + 1e-6)
        assert np.all(V <= bound)

    def test_value_derivative_identity(self, pendulum):
        # dV/dt = -2 lam V - ||B^T P x||^2 checked by central differences
        lam = 2.0
        stab = gramian_stabilizer(pendulum.A, pendulum.B, lam)
        closed = LtiSystem(pendulum.A + pendulum.B @ stab.K, pendulum.B)
        grid = uniform_grid(0.0, 2.0, 4001)
        traj = simulate(closed, [0.5, 0.2], None, grid)
        V = np.einsum("ki,ij,kj->k", traj.states, stab.P, traj.states)
        h = grid[1] - grid[0]
        dV = (V[2:] - V[:-2]) / (2.0 * h)
        x_mid = traj.states[1:-1]
        predicted = (-2.0 * lam * V[1:-1]
                     - np.sum((x_mid @ stab.P @ pendulum.B) ** 2, axis=1))
        assert np.abs(dV - predicted).max() < 1e-5 * (1.0 + np.abs(dV).max())
