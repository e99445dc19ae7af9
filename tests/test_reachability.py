import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lincontrol import (
    ConditioningError,
    ControlSignal,
    DimensionError,
    DomainError,
    LtiSystem,
    LtvSystem,
    NumericalError,
    NumericalInconsistencyError,
    ToleranceConfig,
    UncontrollableIntervalError,
    controllability_gramian,
    expm,
    kernels,
    hautus_test,
    kalman_decomposition,
    kalman_test,
    min_energy_control,
    simulate,
    uniform_grid,
)
from lincontrol.reachability import (
    _gramian,
    gramian_invertibility_cutoff,
    is_controllable,
    kalman_matrix,
    unstabilizable_mode,
)

import helpers
from helpers import (
    _gramian_from_samples,
    constant_ltv,
    control_energy,
    steering_endpoint_by_quadrature,
)


class TestKalman:
    def test_pendulum_rank_two(self, pendulum):
        rep = kalman_test(pendulum)
        assert_allclose(rep.kalman_matrix, [[0.0, 1.0], [1.0, 0.0]])
        assert rep.rank == 2 and rep.controllable

    def test_zero_system(self):
        rep = kalman_test(LtiSystem(np.zeros((2, 2)), np.zeros((2, 1))))
        assert rep.rank == 0 and not rep.controllable
        assert rep.reachable_basis.shape == (2, 0)
        assert rep.unreachable_basis.shape == (2, 2)

    def test_diagonal_deficient(self):
        rep = kalman_test(LtiSystem(np.diag([1.0, 2.0]), [[1.0], [0.0]]))
        assert rep.rank == 1 and not rep.controllable
        assert_allclose(np.abs(rep.reachable_basis[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_bases_are_orthonormal_complements(self, rng):
        for _ in range(10):
            n, p = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            rep = kalman_test(helpers.random_system(rng, n, p))
            T = np.hstack([rep.reachable_basis, rep.unreachable_basis])
            assert np.abs(T.T @ T - np.eye(n)).max() < 1e-10

    def test_similarity_invariance(self, rng):
        for _ in range(15):
            n, p = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            sys = helpers.random_system(rng, n, p)
            T = helpers.well_conditioned_invertible(rng, n)
            Ti = np.linalg.inv(T)
            transformed = LtiSystem(Ti @ sys.A @ T, Ti @ sys.B)
            assert kalman_test(sys).controllable == kalman_test(transformed).controllable

    def test_feedback_invariance_of_reachable_span(self, rng):
        # span R(A + BF, B) = span R(A, B); compare through principal angles
        A = np.diag([1.0, 2.0, 3.0])
        B = np.array([[1.0], [1.0], [0.0]])
        base = kalman_test(LtiSystem(A, B)).reachable_basis
        for _ in range(10):
            F = rng.uniform(-1, 1, (1, 3))
            fed = kalman_test(LtiSystem(A + B @ F, B)).reachable_basis
            assert fed.shape == base.shape
            sines = np.linalg.norm(fed - base @ (base.T @ fed), 2)
            assert sines < 1e-8


    def test_overflowing_stack_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConditioningError, match="overflows"):
                kalman_matrix(np.diag([1e200, 1e200]), np.array([[1e200], [1.0]]))


class TestHautus:
    def test_diagonal_fails_at_unreached_mode(self):
        rep = hautus_test(LtiSystem(np.diag([1.0, 2.0]), [[1.0], [0.0]]))
        by_lam = {round(r.eigenvalue.real, 6): r for r in rep.records}
        assert not by_lam[2.0].passed and by_lam[2.0].rank == 1
        assert by_lam[1.0].passed
        assert not rep.controllable
        # Kalman matrix route agrees on the verdict
        assert not kalman_test(LtiSystem(np.diag([1.0, 2.0]), [[1.0], [0.0]])).controllable

    def test_full_rank_input_always_passes(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        rep = hautus_test(LtiSystem(A, np.eye(3)))
        assert rep.controllable and all(r.passed for r in rep.records)

    def test_pendulum_passes_at_both_eigenvalues(self, pendulum):
        rep = hautus_test(pendulum)
        lams = sorted(r.eigenvalue.real for r in rep.records)
        assert_allclose(lams, [-1.0, 1.0], atol=1e-12)
        assert rep.controllable == kalman_test(pendulum).controllable

    def test_complex_eigenvalues_handled(self):
        # rotation plus forcing: controllable, spectrum is +-i
        sys = LtiSystem([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]])
        rep = hautus_test(sys)
        assert all(abs(r.eigenvalue.imag) > 0.9 for r in rep.records)
        assert rep.controllable

    def test_uncontrollable_complex_pair_found(self, rng):
        # a rotation block cut off from the input, mixed in by an orthogonal Q
        A0 = np.block([[rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 2))],
                       [np.zeros((2, 3)), np.array([[0.3, 2.0], [-2.0, 0.3]])]])
        B0 = np.vstack([rng.uniform(-1, 1, (3, 1)), np.zeros((2, 1))])
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        rep = hautus_test(LtiSystem(Q @ A0 @ Q.T, Q @ B0))
        failed = [r for r in rep.records if not r.passed]
        assert len(failed) == 2 and all(r.rank == 4 for r in failed)
        assert_allclose(sorted(r.eigenvalue.imag for r in failed), [-2.0, 2.0], atol=1e-10)
        assert unstabilizable_mode(Q @ A0 @ Q.T, Q @ B0) is not None

    def test_agreement_with_kalman_on_random_draws(self, rng):
        for _ in range(40):
            n, p = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            sys = helpers.random_system(rng, n, p)
            assert hautus_test(sys).controllable == kalman_test(sys).controllable


class TestGramian:
    def test_scalar_integrator_unit_interval(self):
        rep = controllability_gramian(LtiSystem([[0.0]], [[1.0]]), 0.0, 1.0)
        assert abs(rep.gramian[0, 0] - 1.0) < 1e-12
        assert rep.invertible and rep.interval == (0.0, 1.0)

    def test_scalar_closed_form(self):
        # int_0^1 e^{2a(1-s)} ds = (e^{2a} - 1) / (2a) at a = 1
        rep = controllability_gramian(LtiSystem([[1.0]], [[1.0]]), 0.0, 1.0)
        assert abs(rep.gramian[0, 0] - (math.e ** 2 - 1.0) / 2.0) < 1e-9

    def test_time_varying_zero_matches_constant(self):
        A = np.zeros((2, 2))
        B = np.array([[1.0], [0.5]])
        const = controllability_gramian(LtiSystem(A, B), 0.0, 1.0).gramian
        ltv = controllability_gramian(constant_ltv(A, B, 0.0, 1.0), 0.0, 1.0).gramian
        assert np.abs(const - ltv).max() < 1e-9

    def test_time_varying_matches_constant_nontrivial(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 2))
        const = controllability_gramian(LtiSystem(A, B), 0.0, 1.5).gramian
        ltv = controllability_gramian(constant_ltv(A, B, 0.0, 1.5), 0.0, 1.5).gramian
        assert np.abs(const - ltv).max() < 1e-9

    def test_symmetric_psd(self, rng):
        for _ in range(10):
            sys = helpers.random_system(rng, int(rng.integers(1, 6)), 2)
            rep = controllability_gramian(sys, 0.0, 1.0)
            assert np.abs(rep.gramian - rep.gramian.T).max() <= 1e-10
            assert rep.min_eigenvalue >= -1e-10

    def test_verdict_takes_the_norm_from_the_spectrum(self, rng, monkeypatch):
        # ||G||_2 is the largest |eigenvalue| of the eigvalsh the verdict
        # already takes; the public cutoff, from the SVD, gives the same verdict
        spectral, norm = [], np.linalg.norm

        def counted(x, ord=None, *args, **kwargs):
            if ord == 2:
                spectral.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        for _ in range(10):
            sys = helpers.random_system(rng, int(rng.integers(1, 7)), 1)
            monkeypatch.setattr(np.linalg, "norm", counted)
            rep = controllability_gramian(sys, 0.0, 1.0)
            monkeypatch.setattr(np.linalg, "norm", norm)
            assert spectral == []
            cutoff = gramian_invertibility_cutoff(rep.gramian)
            assert rep.invertible == (rep.min_eigenvalue > cutoff)

    def test_bad_interval_rejected(self, pendulum):
        with pytest.raises(DomainError):
            controllability_gramian(pendulum, 1.0, 1.0)

    def test_constant_samples_match_expm(self, rng):
        # the stacked-power oracle against e^{(t1 - s) A} at each node
        A = rng.uniform(-1, 1, (4, 4))
        sys = LtiSystem(A, np.ones((4, 1)))
        nodes, E, A_at, _ = helpers.transition_samples(sys, 0.0, 1.5, helpers.CFG)
        dE = E @ -A_at  # dE/ds = -E(s) A(s), the slope behind the adjoint's dense output
        for k in (0, 1, 700, nodes.size - 1):
            R = expm((1.5 - nodes[k]) * A)
            assert np.abs(E[k] - R).max() <= 1e-12 * np.abs(R).max()
            assert np.abs(dE[k] + R @ A).max() <= 1e-12 * np.abs(R @ A).max()

    def test_contraction_matches_weighted_sum(self, rng):
        # the one-product Simpson contraction against the term-by-term sum
        for n, p in ((1, 1), (3, 2), (5, 5)):
            sys = helpers.random_system(rng, n, p)
            nodes, E, _, B_at = helpers.transition_samples(sys, 0.0, 1.0, helpers.CFG)
            F = E @ B_at
            w = np.ones(nodes.size)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            w *= (nodes[1] - nodes[0]) / 3.0
            expected = sum(wk * Fk @ Fk.T for wk, Fk in zip(w, F))
            G = _gramian_from_samples(nodes, E, B_at)
            assert np.abs(G - expected).max() <= 1e-13 * (1.0 + np.abs(expected).max())



def _config_with_intervals(span, m):
    """Tolerances whose Simpson rule takes exactly m intervals on span."""
    cfg = ToleranceConfig(ode_step=span / m * (1.0 + 1e-9))
    assert kernels.simpson_intervals(span, cfg.ode_step) == m
    return cfg


class TestPanelDoubling:
    """The constant-coefficient Gramian from the flow triple, and its
    adjoint, against the explicit stacked powers of e^{hA} in
    `helpers.transition_samples`."""

    @pytest.mark.parametrize("m", [2, 4, 6, 10, 1000, 1002])
    def test_matches_stacked_powers(self, rng, m):
        # the exact Gramian is sum_{k < m} E_k G_h E_k^T, with E_k = e^{khA}
        # and G_h the exact Gramian of one step
        t0, t1 = 0.3, 1.55
        cfg = _config_with_intervals(t1 - t0, m)
        for n in (1, 3, 8, 24):
            sys = helpers.random_system(rng, n, n)
            _, E, _, _ = helpers.transition_samples(sys, t0, t1, cfg)
            powers = E[:0:-1]   # e^{khA} for k = 0, ..., m - 1
            G_h = helpers.van_loan_gramian(sys.A, sys.B, (t1 - t0) / m)
            expected = np.einsum("kij,jl,kml->im", powers, G_h, powers)
            quad = _gramian(sys, t0, t1, cfg)
            G = quad.report.gramian
            assert np.abs(G - expected).max() <= 1e-12 * np.abs(expected).max()
            assert np.abs(quad.transition - E[0]).max() <= 1e-12 * np.abs(E[0]).max()

    def test_adjoint_samples_match_expm(self, rng):
        # w(s_k) = e^{(t1 - s_k) A}^T z at every node, with slope -w A
        A = rng.uniform(-1, 1, (5, 5))
        sys = LtiSystem(A, rng.uniform(-1, 1, (5, 2)))
        t0, t1 = -0.4, 1.1
        z = rng.uniform(-1, 1, 5)
        w = _gramian(sys, t0, t1, helpers.CFG).adjoint(z)
        m = kernels.simpson_intervals(t1 - t0, helpers.CFG.ode_step)
        nodes = np.linspace(t0, t1, m + 1)
        assert w.values.shape == (m + 1, 5) and w.h == (t1 - t0) / m
        exact = np.array([expm((t1 - s) * A).T @ z for s in nodes])
        scale = np.abs(exact).max()
        assert np.abs(w.values - exact).max() <= 1e-12 * scale
        assert np.abs(w.derivs + exact @ A).max() <= 1e-12 * scale * np.abs(A).max()
        assert np.abs(w(nodes) - exact).max() <= 1e-12 * scale

    def test_memory_is_independent_of_the_horizon(self, rng):
        # [0, 50] at the default step is 50,000 intervals: stacking the
        # transition matrices at n = 16 would take over 100 MB
        sys = helpers.random_system(rng, 16, 16, shift=3.0)
        controllability_gramian(sys, 0.0, 1.0)
        tracemalloc.start()
        try:
            controllability_gramian(sys, 0.0, 50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("ltv", [False, True])
    def test_step_is_the_span_over_m(self, ltv):
        # on [0.3, 0.3 + 1e-9] the node difference is off by 5.5e-8
        # relative; the Gramian of x' = u is exactly (t1 - t0) B B^T
        t0, t1 = 0.3, 0.3 + 1e-9
        A, B = np.zeros((2, 2)), np.array([[1.0], [0.5]])
        sys = constant_ltv(A, B, 0.0, 1.0) if ltv else LtiSystem(A, B)
        quad = _gramian(sys, t0, t1, helpers.CFG)
        expected = (t1 - t0) * (B @ B.T)
        assert np.abs(quad.report.gramian - expected).max() <= 1e-14 * np.abs(expected).max()
        assert quad.adjoint(np.ones(2)).h == (t1 - t0) / 2

    @pytest.mark.parametrize("A, B, t1", [
        ([[5.0, 1.0], [0.0, 4.0]], [[0.0], [1.0]], 200.0),
        ([[5.0]], [[1.0]], 200.0),
        ([[800.0]], [[1.0]], 1.0),
    ])
    def test_overflow_is_refused(self, A, B, t1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"\[0.0, {t1}\]"):
                controllability_gramian(LtiSystem(A, B), 0.0, t1)
            with pytest.raises(NumericalError):
                min_energy_control(LtiSystem(A, B), 0.0, t1, np.ones(len(A)), np.zeros(len(A)))

    def test_overflowing_input_product_is_refused(self):
        # B B^T overflows before the flow sees it; the message names the interval
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"Gramian on \[0.0, 1.0\] overflows"):
                controllability_gramian(LtiSystem(np.diag([-1.0, -2.0]), [[1e200], [1.0]]),
                                        0.0, 1.0)

    def test_time_varying_overflow_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                controllability_gramian(constant_ltv([[800.0]], [[1.0]], 0.0, 1.0), 0.0, 1.0)


class TestExactConstantGramian:
    """The constant-coefficient Gramian is the Lyapunov flow, exact in A."""

    @pytest.mark.parametrize("lam", [-50.0, -800.0, -3000.0])
    def test_stiff_closed_form(self, lam):
        # G = (1 - e^{2 lam T}) / (-2 lam) on [0, 1]; the minimum energy from
        # 0 to 1 is 1 / G
        sys = LtiSystem([[lam]], [[1.0]])
        exact = -math.expm1(2.0 * lam) / (-2.0 * lam)
        G = controllability_gramian(sys, 0.0, 1.0).gramian[0, 0]
        assert abs(G - exact) <= 1e-12 * exact
        _, cost = min_energy_control(sys, 0.0, 1.0, [0.0], [1.0])
        assert abs(cost - 1.0 / exact) <= 1e-12 / exact

    def test_independent_of_the_ode_step(self, rng):
        sys = helpers.random_system(rng, 4, 2)
        coarse = _gramian(sys, 0.0, 1.5, ToleranceConfig(ode_step=1e-2))
        fine = _gramian(sys, 0.0, 1.5, ToleranceConfig(ode_step=1e-4))
        assert np.array_equal(coarse.report.gramian, fine.report.gramian)
        assert np.array_equal(coarse.transition, fine.transition)

    def test_lyapunov_residual_is_reported(self, rng):
        for n in (1, 4, 12, 24):
            A = rng.standard_normal((n, n)) / np.sqrt(n)
            sys = LtiSystem(A, rng.standard_normal((n, 2)) / np.sqrt(n))
            for t1 in (1.0, 5.0):
                assert controllability_gramian(sys, 0.0, t1).residual <= 1e-13
        ltv = constant_ltv(np.zeros((2, 2)), [[1.0], [0.5]], 0.0, 1.0)
        assert controllability_gramian(ltv, 0.0, 1.0).residual is None

    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1e20, 1e150])
    def test_scale_of_the_input_is_exact(self, scale):
        # B -> s B maps G to s^2 G; the flow sees B B^T at unit size either way
        A, B = np.array([[-1.0, 0.3], [0.2, -2.0]]), np.array([[1.0], [0.5]])
        G = controllability_gramian(LtiSystem(A, B), 0.0, 1.0).gramian
        scaled = controllability_gramian(LtiSystem(A, scale * B), 0.0, 1.0)
        assert np.abs(scaled.gramian / scale ** 2 - G).max() <= 1e-15 * np.abs(G).max()
        assert scaled.residual <= 1e-15

    def test_a_missed_identity_is_refused(self, monkeypatch):
        exact = kernels._flow_triple

        def perturbed(*args):
            alpha, beta, gamma = exact(*args)
            return alpha, beta, gamma * (1.0 + 1e-8)

        monkeypatch.setattr(kernels, "_flow_triple", perturbed)
        with pytest.raises(NumericalInconsistencyError, match="Lyapunov identity"):
            controllability_gramian(LtiSystem([[-1.0]], [[1.0]]), 0.0, 1.0)


class TestMagnusGramian:
    """The time-varying Gramian from one Magnus step of the Lyapunov flow
    per Simpson node gap."""

    @pytest.mark.parametrize("lam", [-2000.0, -3000.0])
    def test_stiff_closed_form(self, lam):
        # G = (1 - e^{2 lam}) / (-2 lam) on [0, 1]
        exact = -math.expm1(2.0 * lam) / (-2.0 * lam)
        G = controllability_gramian(constant_ltv([[lam]], [[1.0]], 0.0, 1.0), 0.0, 1.0).gramian
        assert abs(G[0, 0] - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("rate, rtol, bound", [
        (None, 1e-13, 1e-12), (-2000.0, 1e-10, 1e-6), (-3000.0, 1e-10, 1e-6)])
    def test_matches_radau(self, rate, rtol, bound):
        # smooth: A = [[-1, t], [0, -2 + sin 3t]], B = [1; cos t]; stiff:
        # A = [[rate, 10 sin t], [0, -1 - t]], B = [1; 1 + t]. Magnus loses
        # order on the stiff mode (3.4e-8 and 6.8e-8 of the largest entry)
        if rate is None:
            A_of = lambda t: np.array([[-1.0, t], [0.0, -2.0 + math.sin(3.0 * t)]])
            B_of = lambda t: np.array([[1.0], [math.cos(t)]])
        else:
            A_of = lambda t: np.array([[rate, 10.0 * math.sin(t)], [0.0, -1.0 - t]])
            B_of = lambda t: np.array([[1.0], [1.0 + t]])
        sys = LtvSystem(0.0, 1.0, A_of, B_of)
        ref = helpers.gramian_by_radau(sys, 0.0, 1.0, rtol)
        G = controllability_gramian(sys, 0.0, 1.0).gramian
        assert np.abs(G - ref).max() <= bound * np.abs(ref).max()


class TestPathBudget:
    def test_constant_gramian_allocates_nothing_per_node(self, monkeypatch):
        # m = 1000 Simpson nodes: the adjoint's 1001 rows of one entry are
        # refused, the flow-triple Gramian is not
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 1000)
        sys = LtiSystem([[-1.0]], [[1.0]])
        assert controllability_gramian(sys, 0.0, 1.0).invertible
        with pytest.raises(DomainError, match="the adjoint's 1001 node rows: 1001 entries, "
                                              "over MAX_PATH_ENTRIES = 1000"):
            min_energy_control(sys, 0.0, 1.0, [0.0], [1.0])
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 1001)
        min_energy_control(sys, 0.0, 1.0, [0.0], [1.0])

    def test_time_varying_stacks_are_refused_first(self, monkeypatch):
        # (4m + 2) n^2 = 4002 entries for m = 1000 gaps at n = 1
        sys = constant_ltv([[-1.0]], [[1.0]], 0.0, 1.0)
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 4001)
        with pytest.raises(DomainError, match="the Magnus stacks of 1000 node gaps at n = 1: "
                                              "4002 entries"):
            controllability_gramian(sys, 0.0, 1.0)
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 4002)
        assert controllability_gramian(sys, 0.0, 1.0).invertible


class TestMinEnergy:
    @pytest.mark.parametrize("x0, x1", [([0.0, 0.0, 0.0], [1.0, 0.0]),
                                        ([0.0, 0.0], [1.0])])
    def test_wrong_length_endpoint_rejected(self, double_integrator, x0, x1):
        with pytest.raises(DimensionError):
            min_energy_control(double_integrator, 0.0, 1.0, x0, x1)

    def test_scalar_integrator_constant_control(self):
        sys = LtiSystem([[0.0]], [[1.0]])
        u, cost = min_energy_control(sys, 0.0, 1.0, [0.0], [1.0])
        assert abs(cost - 1.0) < 1e-10
        for t in np.linspace(0, 1, 7):
            assert abs(u.u_of(t)[0] - 1.0) < 1e-9

    def test_free_flight_needs_no_control(self, rng):
        A = rng.uniform(-1, 1, (2, 2))
        sys = LtiSystem(A, [[0.0], [1.0]])
        x0 = np.array([1.0, -1.0])
        x1 = expm(1.0 * A) @ x0
        u, cost = min_energy_control(sys, 0.0, 1.0, x0, x1)
        assert cost < 1e-16
        assert max(abs(u.u_of(t)[0]) for t in np.linspace(0, 1, 9)) < 1e-9

    def test_double_integrator_endpoint_and_cost(self, double_integrator):
        # Gramian [[1/3, 1/2], [1/2, 1]] on [0,1]; z = (12, -6); cost <z, x1> = 12
        u, cost = min_energy_control(double_integrator, 0.0, 1.0, [0, 0], [1, 0])
        assert abs(cost - 12.0) < 1e-9
        traj = simulate(double_integrator, [0, 0], u, uniform_grid(0, 1, 1001))
        assert np.linalg.norm(traj.final_state() - [1.0, 0.0]) <= 1e-6
        quad_cost = helpers.control_quadrature_cost(u.u_of, 0.0, 1.0)
        assert abs(cost - quad_cost) < 1e-8

    def test_time_varying_route(self):
        sys = constant_ltv(np.array([[0.0, 1.0], [0.0, 0.0]]),
                           np.array([[0.0], [1.0]]), 0.0, 1.0)
        u, cost = min_energy_control(sys, 0.0, 1.0, [0, 0], [1, 0])
        assert abs(cost - 12.0) < 1e-8

    def test_array_samples_match_u_of(self, rng):
        times = np.linspace(-0.1, 1.1, 25)  # past both ends too
        ltv = LtvSystem(0.0, 1.0, lambda t: np.array([[0.0, 1.0], [-t, 0.0]]),
                        lambda t: np.array([[0.0, math.cos(t)], [1.0, t]]))
        for sys in (helpers.random_controllable(rng, 3, 2), ltv):
            u, _ = min_energy_control(sys, 0.0, 1.0, rng.uniform(-1, 1, sys.n),
                                      rng.uniform(-1, 1, sys.n))
            samples = u.at(times)
            assert samples.shape == (times.size, 2)
            expected = np.array([u.u_of(t) for t in times])
            assert_allclose(samples, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())

    def test_uncontrollable_interval_raises_with_eigenvalue(self):
        sys = LtiSystem(np.diag([1.0, 2.0]), [[1.0], [0.0]])
        with pytest.raises(UncontrollableIntervalError) as exc:
            min_energy_control(sys, 0.0, 1.0, [0, 0], [1, 1])
        assert exc.value.min_eigenvalue <= 1e-12

    def test_optimality_against_zero_endpoint_perturbations(self, rng, double_integrator):
        sys = double_integrator
        x0, x1 = np.array([0.2, -0.1]), np.array([0.7, 0.4])
        u, cost = min_energy_control(sys, 0.0, 1.0, x0, x1)
        for k in range(5):
            freq = float(rng.uniform(1.0, 9.0))
            raw = ControlSignal(0, 1, 1, lambda t, f=freq: np.array([math.sin(f * t)]))
            endpoint = steering_endpoint_by_quadrature(sys, 0.0, 1.0, raw)
            fix, _ = min_energy_control(sys, 0.0, 1.0, np.zeros(2), endpoint)
            # v = raw - fix drives zero to zero, so u + v still steers x0 to x1
            v = ControlSignal(0, 1, 1,
                              lambda t, a=raw, b=fix: a.u_of(t) - b.u_of(t))
            residual = steering_endpoint_by_quadrature(sys, 0.0, 1.0, v)
            assert np.linalg.norm(residual) < 1e-9
            perturbed = ControlSignal(0, 1, 1,
                                      lambda t, a=u, b=v: a.u_of(t) + b.u_of(t))
            pert_cost = helpers.control_quadrature_cost(perturbed.u_of, 0.0, 1.0)
            assert pert_cost > cost + 1e-6

    def test_endpoint_defect_lies_in_reachable_range(self, rng):
        # uncontrollable block structure: whatever u does, the defect stays in range(Gc)
        A = np.diag([0.5, -1.0, 2.0])
        B = np.array([[1.0], [1.0], [0.0]])
        sys = LtiSystem(A, B)
        rep = kalman_test(sys)
        assert rep.rank == 2
        x0 = rng.uniform(-1, 1, 3)
        for k in range(5):
            f1, f2 = rng.uniform(0.5, 6.0, 2)
            u = ControlSignal(0, 1, 1,
                              lambda t, a=f1, b=f2: np.array([math.sin(a * t) + math.cos(b * t)]))
            traj = simulate(sys, x0, u, uniform_grid(0, 1, 401))
            defect = traj.final_state() - expm(1.0 * A) @ x0
            leak = rep.unreachable_basis.T @ defect
            assert np.linalg.norm(leak) <= 1e-8 * (1.0 + np.linalg.norm(defect))


class TestSampledSteering:
    def test_min_energy_control_is_the_hermite_output_of_its_samples(self, rng):
        sys = helpers.random_controllable(rng, 5, 2)
        t0, t1 = -0.2, 1.3
        x0, x1 = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        u, _ = min_energy_control(sys, t0, t1, x0, x1)
        quad = _gramian(sys, t0, t1, helpers.CFG)
        z = np.linalg.solve(quad.report.gramian, x1 - quad.transition @ x0)
        helpers.assert_steering_is_sampled(u, quad.adjoint(z), sys.B, 0.0, rng)

    def test_time_varying_control_stays_a_closure(self, rng):
        sys = helpers.random_controllable(rng, 3, 1)
        ltv = constant_ltv(sys.A, sys.B, 0.0, 1.0)
        u, _ = min_energy_control(ltv, 0.0, 1.0, np.zeros(3), np.ones(3))
        assert not isinstance(u.u_of, kernels.SampledMatrixFunction)
        lti, _ = min_energy_control(sys, 0.0, 1.0, np.zeros(3), np.ones(3))
        times = rng.uniform(0.0, 1.0, 50)
        assert_allclose(u.at(times), lti.at(times), rtol=1e-9, atol=1e-9)


class TestEnergyHelpers:
    def test_control_energy_constant(self):
        u = ControlSignal(0.0, 2.0, 2, lambda t: np.array([1.0, -1.0]))
        assert abs(control_energy(u, 0.0, 2.0) - 4.0) < 1e-10


class TestGates:
    def test_is_controllable(self, double_integrator):
        assert is_controllable(double_integrator.A, double_integrator.B)
        assert not is_controllable(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))

    def test_unstabilizable_mode(self):
        A = np.diag([1.0, -1.0])
        assert unstabilizable_mode(A, np.array([[0.0], [1.0]])) == pytest.approx(1.0)
        # only the stable mode is missed: stabilizable
        assert unstabilizable_mode(A, np.array([[1.0], [0.0]])) is None


class TestDecomposition:
    def test_diagonal_deficient_blocks(self):
        dec = kalman_decomposition(LtiSystem(np.diag([1.0, 2.0]), [[1.0], [0.0]]))
        assert dec.r == 1
        assert_allclose(dec.A1, [[1.0]], atol=1e-12)
        assert_allclose(dec.B1, [[1.0]], atol=1e-12)
        assert_allclose(dec.A3, [[2.0]], atol=1e-12)

    def test_controllable_degenerates(self, pendulum):
        dec = kalman_decomposition(pendulum)
        assert dec.r == 2
        assert dec.A3.shape == (0, 0) and dec.A2.shape == (2, 0)

    def test_zero_system_everything_unreachable(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        dec = kalman_decomposition(LtiSystem(A, np.zeros((2, 1))))
        assert dec.r == 0
        assert_allclose(dec.T.T @ A @ dec.T, dec.A3)

    def test_block_structure_invariants(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            r_target = int(rng.integers(1, n))
            # build an uncontrollable pair by similarity from explicit blocks
            A_blocks = np.zeros((n, n))
            A_blocks[:r_target, :] = rng.uniform(-1, 1, (r_target, n))
            A_blocks[r_target:, r_target:] = rng.uniform(-1, 1, (n - r_target, n - r_target))
            B_blocks = np.zeros((n, 1))
            B_blocks[:r_target] = rng.uniform(-1, 1, (r_target, 1))
            Q = helpers.well_conditioned_invertible(rng, n)
            sys = LtiSystem(Q @ A_blocks @ np.linalg.inv(Q), Q @ B_blocks)
            dec = kalman_decomposition(sys)
            n_r = n - dec.r
            assert np.abs(dec.T.T @ dec.T - np.eye(n)).max() < 1e-10
            At = dec.T.T @ sys.A @ dec.T
            Bt = dec.T.T @ sys.B
            assert np.abs(At[dec.r:, :dec.r]).max() < 1e-9 * (1 + np.abs(sys.A).max())
            if n_r:
                assert np.abs(Bt[dec.r:]).max() < 1e-9 * (1 + np.abs(sys.B).max())
            if dec.r:
                sub = LtiSystem(dec.A1, dec.B1)
                assert kalman_test(sub).controllable


class TestThreeWayEquivalence:
    def test_verdicts_agree_on_random_draws(self, rng):
        for _ in range(50):
            n, p = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            sys = helpers.random_system(rng, n, p)
            k = kalman_test(sys).controllable
            h = hautus_test(sys).controllable
            g = controllability_gramian(sys, 0.0, 1.0).invertible
            assert k == h == g
