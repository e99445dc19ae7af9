import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lincontrol import (
    NoCertificateError,
    NumericalError,
    PreconditionError,
    expm,
    lyapunov_certificate,
    lyapunov_stability_test,
    spectral_abscissa,
)
from lincontrol.stability import STABILITY_MARGIN, stability_report

import helpers


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_symmetric_involution(self):
        assert spectral_abscissa([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0)

    def test_rotation_generator_is_marginal(self):
        rep = stability_report([[0.0, 1.0], [-1.0, 0.0]])
        assert rep.omega == pytest.approx(0.0, abs=1e-12)
        assert rep.marginal and not rep.stable


class TestLyapunovCertificate:
    def test_identity_fixture(self):
        rep = lyapunov_certificate(-np.eye(2), np.eye(2))
        assert_allclose(rep.lyapunov_Q, 0.5 * np.eye(2), atol=1e-12)
        assert rep.residual <= 1e-10 * 2.0

    def test_scalar_fixture(self):
        rep = lyapunov_certificate([[-3.0]], [[6.0]])
        assert rep.lyapunov_Q[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_unstable_matrix_refused(self):
        with pytest.raises(NoCertificateError):
            lyapunov_certificate([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))

    def test_asymmetric_weight_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_certificate(-np.eye(2), [[1.0, 1.0], [0.0, 1.0]])

    def test_spectra_near_the_float_range_raise_no_warning(self):
        # -1e308 - 1e308 overflows in the separation test, and 2 a Q in the
        # solve: the solve is refused, but nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                lyapunov_certificate([[-1e308]], [[1.0]])
            rep = lyapunov_certificate([[-1e300]], [[1.0]])
        assert rep.lyapunov_Q[0, 0] == pytest.approx(5e-301, rel=1e-12)

    def test_one_schur_form_gives_the_verdict_and_the_solve(self, rng, monkeypatch):
        A = helpers.random_stable_matrix(rng, 6)
        counts = helpers.count_factorizations(monkeypatch)
        lyapunov_certificate(A, np.eye(6))
        assert counts == {"schur": 1, "eigvals": 0}

    def test_matches_integral_oracle_and_is_pd(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            A = helpers.random_stable_matrix(rng, n, margin=0.6)
            rep = lyapunov_certificate(A, np.eye(n))
            assert np.linalg.eigvalsh(rep.lyapunov_Q)[0] > 0
            oracle = helpers.lyapunov_by_quadrature(A, np.eye(n))
            assert np.abs(rep.lyapunov_Q - oracle).max() < 1e-6


class TestLyapunovStabilityTest:
    def test_true_fixture(self):
        assert lyapunov_stability_test(-np.eye(2), np.eye(2), 0.5 * np.eye(2))

    def test_rotation_has_no_certificate(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for Q in (np.eye(2), np.diag([2.0, 1.0]), np.array([[2.0, 0.5], [0.5, 1.0]])):
            assert not lyapunov_stability_test(A, np.eye(2), Q)

    def test_round_trip_with_certificate(self, rng):
        A = helpers.random_stable_matrix(rng, 3)
        Q = lyapunov_certificate(A, np.eye(3)).lyapunov_Q
        assert lyapunov_stability_test(A, np.eye(3), Q)

    def test_unobservable_pair_rejected(self):
        with pytest.raises(PreconditionError):
            lyapunov_stability_test(np.diag([-1.0, -2.0]), np.zeros((1, 2)), np.eye(2))

    def test_indefinite_candidate_rejected(self):
        with pytest.raises(PreconditionError):
            lyapunov_stability_test(-np.eye(2), np.eye(2), np.diag([1.0, -1.0]))


class TestScaledResiduals:
    """Residual norms are taken scaled, so a large C^T C cannot overflow them."""

    A = np.array([[-1.0, 0.3], [0.0, -2.0]])

    def test_a_wrong_candidate_is_rejected_at_any_scale(self):
        # Q = I does not solve A^T Q + Q A = -C^T C; unscaled, both the
        # residual and its bound overflowed to inf and the check passed
        for c in (1.0, 1e80):
            assert not lyapunov_stability_test(self.A, [[c, 0.5 * c]], np.eye(2))

    def test_the_solution_is_accepted_at_a_large_scale(self):
        C = np.array([[1e80, 5e79]])
        Q = lyapunov_certificate(self.A, C.T @ C).lyapunov_Q
        assert lyapunov_stability_test(self.A, C, Q)

    def test_certificate_residual_is_finite(self, rng):
        # residual entries near 1e185: their unscaled sum of squares is inf
        A = rng.standard_normal((4, 4)) / 2.0 - 2.0 * np.eye(4)
        C = 1e100 * rng.standard_normal((2, 4))
        rep = lyapunov_certificate(A, C.T @ C)
        assert 0.0 < rep.residual <= 1e-10 * np.abs(C.T @ C).max()


class TestStabilityEquivalences:
    def test_stable_iff_state_energy_integral_converges(self, rng):
        # finite int ||e^{tA} x||^2 dt detected by a vanishing tail
        for stable in (True, False):
            if stable:
                A = helpers.random_stable_matrix(rng, 3, margin=0.5)
            else:
                A = rng.uniform(-1, 1, (3, 3)) + 0.8 * np.eye(3)
                assert spectral_abscissa(A) > 0
            omega = spectral_abscissa(A)
            horizon = min(40.0 / max(abs(omega), 0.05), 1e4)
            for _ in range(10):
                xi = rng.uniform(-1, 1, 3)
                tail = helpers.simpson_integral(
                    lambda t: np.sum((expm(t * A) @ xi) ** 2),
                    horizon / 2.0, horizon, 400)
                assert (tail < 1e-8) == stable

    def test_exponential_decay_witness(self, rng):
        A = helpers.random_stable_matrix(rng, 3, margin=0.4)
        omega = spectral_abscissa(A)
        eps = abs(omega) / 10.0
        dense = np.linspace(0.0, 20.0, 321)
        C_measured = max(
            np.linalg.norm(expm(t * A), 2) * np.exp(-(omega + eps) * t)
            for t in dense)
        assert np.isfinite(C_measured)
        offset = np.linspace(0.031, 19.969, 161)  # between the sampled points
        for t in offset:
            bound = 1.01 * C_measured * np.exp((omega + eps) * t)
            assert np.linalg.norm(expm(t * A), 2) <= bound

    def test_uniqueness_two_routes_agree(self, rng):
        A = helpers.random_stable_matrix(rng, 4, margin=0.8)
        R = rng.uniform(-1, 1, (4, 4))
        R = R @ R.T + np.eye(4)
        solved = lyapunov_certificate(A, R).lyapunov_Q
        integrated = helpers.lyapunov_by_quadrature(A, R)
        assert np.abs(solved - integrated).max() < 1e-6

    def test_decaying_observed_output_implies_stability(self, rng):
        # observable pair whose output decays along a sampled grid
        count = 0
        while count < 8:
            n = int(rng.integers(2, 5))
            A = helpers.random_stable_matrix(rng, n, margin=0.3)
            C = rng.uniform(-1, 1, (1, n))
            try:
                from lincontrol import observability_test
                if not observability_test(A, C).observable:
                    continue
            except Exception:
                continue
            count += 1
            grid = np.linspace(0.0, 30.0, 31)
            for xi in np.eye(n):
                outputs = np.array([np.linalg.norm(C @ expm(t * A) @ xi) for t in grid])
                assert outputs[-1] <= 1e-3 * (1.0 + outputs[0])
            assert spectral_abscissa(A) < -STABILITY_MARGIN
