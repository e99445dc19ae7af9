import numpy as np
import pytest
from numpy.testing import assert_allclose

from lincontrol import (
    LtiSystem,
    detectability_test,
    duality_check,
    kalman_test,
    observability_test,
    spectral_abscissa,
)
from lincontrol.observability import observability_matrix, observation_gramian

import helpers


class TestObservabilityTest:
    def test_full_state_observation(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        rep = observability_test(A, np.eye(3))
        assert rep.observable and rep.rank == 3
        assert rep.gramian.invertible

    def test_zero_output(self):
        rep = observability_test(np.diag([-1.0, -2.0]), np.zeros((1, 2)))
        assert not rep.observable and rep.rank == 0
        assert_allclose(rep.gramian.gramian, np.zeros((2, 2)), atol=1e-15)

    def test_velocity_output_of_oscillator(self):
        # dual-route oracle: kalman test on the transposed pair
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        C = np.array([[0.0, 1.0]])
        rep = observability_test(A, C)
        dual = kalman_test(LtiSystem(A.T, C.T))
        assert rep.observable == dual.controllable is True

    def test_stack_shape(self):
        A = np.zeros((3, 3))
        C = np.ones((2, 3))
        assert observability_matrix(A, C).shape == (6, 3)

    def test_positive_horizon_required(self):
        with pytest.raises(Exception):
            observation_gramian(np.eye(2), np.eye(2), 0.0)


class TestDuality:
    def test_identity_output_both_positive(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        assert duality_check(A, np.eye(3))

    def test_deficient_pair_both_negative(self):
        A = np.diag([1.0, 2.0])
        C = np.array([[1.0, 0.0]])
        assert not observability_test(A, C).observable
        assert not kalman_test(LtiSystem(A.T, C.T)).controllable
        assert duality_check(A, C)

    def test_random_draws_agree(self, rng):
        for _ in range(60):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 3))
            A = rng.uniform(-1, 1, (n, n))
            C = rng.uniform(-1, 1, (m, n))
            assert duality_check(A, C)


class TestGramianEquivalences:
    def test_three_horizons_agree_when_well_posed(self, rng):
        # Gramian invertibility matches the rank verdict at every horizon,
        # on draws whose shortest-window Gramian is numerically meaningful.
        kept = 0
        while kept < 15:
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            A = rng.uniform(-1, 1, (n, n))
            C = rng.uniform(-1, 1, (m, n))
            short = observation_gramian(A, C, 0.1)
            scale = 1.0 + np.linalg.norm(short.gramian, 2)
            if short.min_eigenvalue < 1e-12 * scale:
                continue
            kept += 1
            by_rank = observability_test(A, C, 1.0).observable
            for T in (0.1, 1.0, 10.0):
                assert observation_gramian(A, C, T).invertible == by_rank

    def test_gramian_matches_stepped_quadrature(self, rng):
        # R_T by duality against e^{tA^T} C^T C e^{tA} stepped forward in t
        for n, m in ((1, 1), (3, 1), (4, 2)):
            A = rng.uniform(-1, 1, (n, n))
            C = rng.uniform(-1, 1, (m, n))
            expected = helpers._stepped_simpson(lambda E: E.T @ C.T @ C @ E, A, 1.0, 1000)
            rep = observation_gramian(A, C, 1.0)
            assert rep.interval == (0.0, 1.0)
            assert np.abs(rep.gramian - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())

    def test_gramian_symmetric_psd(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            A = rng.uniform(-1, 1, (n, n))
            C = rng.uniform(-1, 1, (1, n))
            rep = observation_gramian(A, C, 1.0)
            assert np.abs(rep.gramian - rep.gramian.T).max() <= 1e-10
            assert rep.min_eigenvalue >= -1e-10


class TestDetectability:
    def test_stable_with_zero_output(self):
        rep = detectability_test(np.diag([-1.0, -2.0]), np.zeros((1, 2)))
        assert rep.detectable
        assert_allclose(rep.witness_L, np.zeros((2, 1)))

    def test_unstable_mode_observed(self):
        rep = detectability_test(np.diag([1.0, -1.0]), [[1.0, 0.0]])
        assert rep.detectable and rep.witness_L is not None
        A = np.diag([1.0, -1.0])
        assert spectral_abscissa(A + rep.witness_L @ np.array([[1.0, 0.0]])) < 0

    def test_unstable_mode_unobserved(self):
        rep = detectability_test(np.diag([1.0, -1.0]), [[0.0, 1.0]])
        assert not rep.detectable and rep.witness_L is None

    def test_observable_implies_detectable(self, rng):
        for _ in range(15):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            A, C = helpers.random_observable(rng, n, m)
            rep = detectability_test(A, C)
            assert rep.detectable
            assert spectral_abscissa(A + rep.witness_L @ C) < 0

    def test_detectable_but_not_observable_witness(self, rng):
        # observable unstable block plus an unobserved stable block
        A = np.block([[np.array([[1.2]]), np.zeros((1, 2))],
                      [np.zeros((2, 1)), np.array([[-1.0, 0.3], [0.0, -2.0]])]])
        C = np.array([[1.0, 0.0, 0.0]])
        assert not observability_test(A, C).observable
        rep = detectability_test(A, C)
        assert rep.detectable
        assert spectral_abscissa(A + rep.witness_L @ C) < 0

    @pytest.mark.parametrize("hidden", [None, -0.5])
    def test_the_block_is_factored_once_for_its_rate_and_gain(self, hidden, monkeypatch):
        # the minimal decay rate of the block comes from the stabilizer's own
        # Schur form; a separate minimal_decay_rate took one more eigvals
        A, C = helpers.planted_detection_pair(np.random.default_rng([5, 1]), 5, hidden)
        counts = helpers.count_factorizations(monkeypatch)
        rep = detectability_test(A, C)
        assert rep.detectable
        assert counts == {"schur": 1, "eigvals": 3}

    def test_the_decomposed_block_is_not_decided_again(self, monkeypatch):
        # the Kalman decomposition's rank sizes a controllable block; one more
        # gate on it took a Kalman stack and an SVD
        rng = np.random.default_rng([0, 6, 2])
        A = rng.standard_normal((6, 6)) / np.sqrt(6)
        C = rng.standard_normal((2, 6)) / np.sqrt(6)
        counts = helpers.count_decisions(monkeypatch)
        assert detectability_test(A, C).detectable
        assert counts == {"is_controllable": 0, "kalman_matrix": 1, "svd": 5,
                          "eigvals": 3, "inv": 0}

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("hidden", [None, -1.5])
    def test_witness_past_small_n(self, n, hidden):
        # observable pairs, and pairs with an unobserved stable mode
        rng = np.random.default_rng([n, 11])
        for _ in range(3):
            A, C = helpers.planted_detection_pair(rng, n, hidden)
            if hidden is not None:
                assert not observability_test(A, C).observable
            rep = detectability_test(A, C)
            assert rep.detectable
            assert spectral_abscissa(A + rep.witness_L @ C) < 0

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_hidden_unstable_mode_past_small_n(self, n):
        rng = np.random.default_rng([n, 13])
        A, C = helpers.planted_detection_pair(rng, n, hidden=0.7)
        rep = detectability_test(A, C)
        assert not rep.detectable and rep.witness_L is None
