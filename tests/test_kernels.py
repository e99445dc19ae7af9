import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from lincontrol import (
    DimensionError,
    DomainError,
    MonicPolynomial,
    NumericalError,
    SingularEquationError,
    ToleranceConfig,
    design_observer,
    detectability_test,
    eigenvalues,
    expm,
    lyapunov_certificate,
    numerical_rank,
    pole_place,
    resolvent,
    solve_sylvester,
)
from lincontrol import kernels
from lincontrol.kernels import (
    SampledMatrixFunction,
    composite_simpson,
    rk4_path,
    rk4_stages,
    sample_at,
)
from lincontrol.systems import LtvSystem

import helpers
from helpers import constant_ltv


def small_matrix(max_n=4, scale=2.0):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.floats(-scale, scale, allow_nan=False), min_size=n * n, max_size=n * n
        ).map(lambda vals: np.array(vals).reshape(n, n)))


class TestExpm:
    def test_zero_matrix(self):
        assert_allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent(self):
        assert_allclose(expm([[0.0, 1.0], [0.0, 0.0]]), [[1.0, 1.0], [0.0, 1.0]])

    def test_diagonal(self):
        assert_allclose(expm(np.diag([1.0, 2.0])),
                        np.diag([math.e, math.e ** 2]), rtol=1e-13)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            expm(np.ones((2, 3)))

    @settings(max_examples=30, deadline=None)
    @given(small_matrix())
    def test_inverse_property(self, A):
        norm = np.linalg.norm(A, 2)
        if norm > 5.0:
            A = A * (5.0 / norm)
        n = A.shape[0]
        assert np.abs(expm(A) @ expm(-A) - np.eye(n)).max() < 1e-10

    def test_derivative_matches_generator(self, rng):
        A = rng.uniform(-1.0, 1.0, (4, 4))
        t, h = 0.3, 1e-4
        fd = (expm((t + h) * A) - expm((t - h) * A)) / (2.0 * h)
        assert np.abs(fd - A @ expm(t * A)).max() < 1e-6

    @pytest.mark.parametrize("M", [
        [[-0.7]],
        np.diag([1.0, -2.5, 0.1]),
        [[-1.0, 0.3, 2.0], [0.0, 0.5, -4.0], [0.0, 0.0, 3.0]],
        np.random.default_rng(11).standard_normal((5, 5)) * 2.0,
    ], ids=["1x1", "diagonal", "triangular", "general"])
    def test_bits_equal_scipy(self, M):
        # scipy.linalg is fetched on the first call; the routine is scipy's
        assert np.array_equal(expm(M), scipy.linalg.expm(np.asarray(M, dtype=float)))


class TestLapackFetchedOnFirstCall:
    def test_a_patch_intercepts_after_the_fetch(self, monkeypatch):
        kernels.real_schur(np.eye(2))
        solve_sylvester([[1.0]], [[2.0]], [[6.0]])
        assert kernels._gees is scipy.linalg.lapack.dgees
        assert kernels._trsyl is scipy.linalg.lapack.dtrsyl

        monkeypatch.setattr(kernels, "_trsyl", lambda a, b, c, tranb: (c, 1.0, -3))
        with pytest.raises(NumericalError, match="trsyl info -3"):
            solve_sylvester([[1.0]], [[2.0]], [[6.0]])

        def gees(*args, **kwargs):
            raise AssertionError("patched gees")

        monkeypatch.setattr(kernels, "_gees", gees)
        with pytest.raises(AssertionError, match="patched gees"):
            kernels.real_schur(np.eye(2))

    def test_a_patch_around_the_stand_in_keeps_its_place(self, monkeypatch):
        # the stand-in's first call fetches gesv but does not overwrite
        # the patch that wraps it
        stand_in = kernels._fetched_on_first_call("_gesv", "scipy.linalg.lapack", "dgesv")
        calls = []

        def counted(*args):
            calls.append(args)
            return stand_in(*args)

        monkeypatch.setattr(kernels, "_gesv", counted)
        for _ in range(2):
            assert_allclose(kernels._solve(2.0 * np.eye(2), np.ones((2, 1))), 0.5)
        assert kernels._gesv is counted and len(calls) == 2


class TestEigenvalues:
    def test_diagonal(self):
        assert_allclose(np.sort(eigenvalues(np.diag([-1.0, -2.0])).real), [-2, -1])

    def test_symmetric_involution(self):
        assert_allclose(np.sort(eigenvalues([[0.0, 1.0], [1.0, 0.0]]).real), [-1, 1])

    def test_rotation_generator(self):
        lams = np.sort_complex(eigenvalues([[0.0, 1.0], [-1.0, 0.0]]))
        assert_allclose(lams, [-1j, 1j], atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(small_matrix())
    @example(np.array([[0.0, 0.5, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0, 0.0], [-0.5, 0.0, 0.0, 0.0]]))
    def test_transpose_same_multiset(self, A):
        # Compared through the characteristic polynomial: a defective
        # eigenvalue of multiplicity k moves by eps^(1/k) under rounding,
        # while the coefficients its cluster expands to stay at eps.
        a = np.poly(eigenvalues(A))
        b = np.poly(eigenvalues(A.T))
        assert np.abs(a - b).max() < 1e-9 * (1.0 + np.abs(a).max())

    def test_conjugate_closure(self, rng):
        A = rng.uniform(-1.0, 1.0, (5, 5))
        lams = eigenvalues(A)
        conj = np.sort_complex(np.conj(lams))
        assert np.abs(np.sort_complex(lams) - conj).max() < 1e-12


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((2, 2))) == 0

    def test_duplicated_row_direction(self):
        assert numerical_rank([[1.0, 1.0], [0.0, 0.0]]) == 1

    def test_invariance_under_invertible_factors(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 6))
            A = rng.uniform(-1, 1, (n, k))
            r = numerical_rank(A)
            T1 = helpers.well_conditioned_invertible(rng, n)
            T2 = helpers.well_conditioned_invertible(rng, k)
            assert numerical_rank(T1 @ A) == r
            assert numerical_rank(A @ T2) == r


class TestSylvester:
    def test_identity_case(self):
        X = solve_sylvester(-np.eye(2), -np.eye(2), -np.eye(2))
        assert_allclose(X, 0.5 * np.eye(2))

    def test_scalar(self):
        X = solve_sylvester([[1.0]], [[2.0]], [[6.0]])
        assert_allclose(X, [[2.0]])

    def test_residual_bound_random(self, rng):
        cfg = ToleranceConfig()
        for _ in range(10):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            A = helpers.random_stable_matrix(rng, n)
            Bm = helpers.random_stable_matrix(rng, k)
            R = rng.uniform(-1, 1, (n, k))
            X = solve_sylvester(A, Bm, R, cfg)
            res = np.linalg.norm(A @ X + X @ Bm - R)
            assert res <= cfg.residual_tol * (1.0 + np.linalg.norm(R))

    def test_spectra_overlap_raises(self):
        with pytest.raises(SingularEquationError):
            solve_sylvester(np.eye(2), -np.eye(2), np.ones((2, 2)))

    def test_non_finite_residual_is_refused(self):
        # X1 = -1e300 X2 / 2 with X2 = 5e299 overflows inside the solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                solve_sylvester([[1.0, 1e300], [0.0, 1.0]], [[1.0]], [[0.0], [1e300]])

    def test_separation_that_overflows_is_infinite(self):
        # -1e308 + -1e308 overflows: the spectra are far apart, not near
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = np.array([[-1e308]])
            assert kernels.spectra_separation(huge, huge) == math.inf

    def test_matches_lyapunov_quadrature_oracle(self, rng):
        # A^T X + X A = -R  has  X = int_0^inf e^{tA^T} R e^{tA} dt
        A = helpers.random_stable_matrix(rng, 3)
        R = rng.uniform(-1, 1, (3, 3))
        R = R + R.T + 3.0 * np.eye(3)
        X = solve_sylvester(A.T, A, -R)
        oracle = helpers.lyapunov_by_quadrature(A, R, count=32000)
        assert np.abs(X - oracle).max() < 1e-8

    @pytest.mark.parametrize("n", [20, 32, 48])
    def test_lyapunov_at_advertised_sizes(self, rng, n):
        A = helpers.random_stable_matrix(rng, n)
        R = rng.uniform(-1, 1, (n, n))
        R = R @ R.T + np.eye(n)
        X = solve_sylvester(A.T, A, -R)
        reference = scipy.linalg.solve_continuous_lyapunov(A.T, -R)
        assert np.abs(X - reference).max() <= 1e-9 * np.abs(reference).max()

    def test_rectangular(self, rng):
        cfg = ToleranceConfig()
        A = helpers.random_stable_matrix(rng, 12)
        Bm = helpers.random_stable_matrix(rng, 5)
        R = rng.uniform(-1, 1, (12, 5))
        X = solve_sylvester(A, Bm, R, cfg)
        assert X.shape == (12, 5)
        res = np.linalg.norm(A @ X + X @ Bm - R)
        assert res <= cfg.residual_tol * (1.0 + np.linalg.norm(R))

    def test_memory_stays_quadratic(self, rng):
        # an (n^2 x n^2) Kronecker system at n = 48 alone takes 42 MB
        n = 48
        A = helpers.random_stable_matrix(rng, n)
        R = np.eye(n)
        solve_sylvester(A.T, A, -R)  # warm up lazily loaded LAPACK wrappers
        tracemalloc.start()
        try:
            solve_sylvester(A.T, A, -R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _complex_pairs(M):
    return int(np.count_nonzero(np.linalg.eigvals(M).imag))


class TestRealSchur:
    def test_factors_and_spectrum(self, rng):
        for n in (1, 2, 5, 12):
            M = rng.standard_normal((n, n))
            S = kernels.real_schur(M)
            assert np.abs(S.U @ S.T @ S.U.T - M).max() <= 1e-13 * (1.0 + np.abs(M).max())
            assert np.abs(S.U.T @ S.U - np.eye(n)).max() <= 1e-14
            assert np.all(np.tril(S.T, -2) == 0.0)
            want = np.sort_complex(np.linalg.eigvals(M))
            assert np.abs(np.sort_complex(S.eigenvalues) - want).max() <= 1e-12 * (1.0 + np.abs(want).max())

    def test_shifted_shares_the_factorization(self, rng):
        M = rng.standard_normal((4, 4))
        S = kernels.real_schur(M)
        lam = 2.5
        shifted = S.shifted(lam)
        assert shifted.U is S.U
        assert_allclose(shifted.matrix, M + lam * np.eye(4), rtol=0, atol=0)
        assert np.abs(shifted.U @ shifted.T @ shifted.U.T - shifted.matrix).max() <= 1e-13 * 4
        assert_allclose(shifted.eigenvalues, S.eigenvalues + lam, rtol=0, atol=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_never_reaches_lapack(self, monkeypatch, bad):
        def gees(*args, **kwargs):
            raise AssertionError("LAPACK was called")

        monkeypatch.setattr(kernels, "_gees", gees)
        M = np.eye(3)
        M[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            kernels.real_schur(M)


class TestSchurSolvesMatchScipy:
    # most draws carry complex pairs, the 2 x 2 blocks of the real Schur form
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 48])
    def test_lyapunov(self, rng, n):
        M = rng.standard_normal((n, n)) - np.sqrt(n) * np.eye(n)
        R = rng.standard_normal((n, n))
        R = R + R.T
        X = kernels.solve_lyapunov(kernels.real_schur(M), R)
        reference = scipy.linalg.solve_continuous_lyapunov(M, R)
        assert np.abs(X - reference).max() <= 1e-9 * np.abs(reference).max()
        assert n < 8 or _complex_pairs(M) > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 48])
    def test_shifted_lyapunov(self, rng, n):
        A = rng.standard_normal((n, n))
        lam = float(np.max(-np.linalg.eigvals(A).real)) + 0.5
        B = rng.standard_normal((n, 2))
        X = kernels.solve_lyapunov(kernels.real_schur(A).shifted(lam), B @ B.T)
        reference = scipy.linalg.solve_continuous_lyapunov(A + lam * np.eye(n), B @ B.T)
        assert np.abs(X - reference).max() <= 1e-9 * np.abs(reference).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 48])
    def test_sylvester(self, rng, n):
        k = max(1, n // 2 + 1)
        A = rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n)
        Bm = rng.standard_normal((k, k)) + np.sqrt(k) * np.eye(k)
        R = rng.standard_normal((n, k))
        X = solve_sylvester(A, Bm, R)
        reference = scipy.linalg.solve_sylvester(A, Bm, R)
        assert np.abs(X - reference).max() <= 1e-9 * np.abs(reference).max()
        assert n < 8 or (_complex_pairs(A) > 0 and _complex_pairs(Bm) > 0)

    def test_the_trsyl_scale_is_divided_out(self, monkeypatch):
        # LAPACK solves T1 Y + Y T2^T = scale C; with scale = 1/2 the
        # solution of the equation asked for is 2 Y, not Y / 2
        def trsyl(a, b, c, tranb):
            Y, scale, info = scipy.linalg.lapack.dtrsyl(a, b, c, tranb=tranb)
            return 0.5 * Y, 0.5 * scale, info

        monkeypatch.setattr(kernels, "_trsyl", trsyl)
        X = solve_sylvester([[1.0]], [[2.0]], [[6.0]])
        assert_allclose(X, [[2.0]])

    def test_a_failed_triangular_solve_is_refused(self, monkeypatch):
        monkeypatch.setattr(kernels, "_trsyl", lambda a, b, c, tranb: (c, 1.0, -3))
        with pytest.raises(NumericalError, match="trsyl info -3"):
            solve_sylvester([[1.0]], [[2.0]], [[6.0]])


class TestResolvent:
    def test_zero_generator(self):
        sys = constant_ltv(np.zeros((2, 2)), np.zeros((2, 1)), 0.0, 2.0)
        assert_allclose(resolvent(sys, 0.3, 1.7), np.eye(2))
        assert_allclose(resolvent(sys, 1.0, 1.0), np.eye(2))

    def test_constant_matches_expm(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        sys = constant_ltv(A, np.zeros((3, 1)), 0.0, 2.0)
        R = resolvent(sys, 0.4, 1.6)
        assert np.abs(R - expm(1.2 * A)).max() < 1e-9

    def test_cocycle(self):
        sys = LtvSystem(0.0, 2.0,
                        lambda t: np.array([[0.0, 1.0], [-1.0 - 0.5 * t, -0.1]]),
                        lambda t: np.zeros((2, 1)))
        R20 = resolvent(sys, 0.0, 2.0)
        R21 = resolvent(sys, 1.0, 2.0)
        R10 = resolvent(sys, 0.0, 1.0)
        assert np.abs(R20 - R21 @ R10).max() < 1e-9

    def test_backward_inverts_forward(self):
        sys = LtvSystem(0.0, 1.0,
                        lambda t: np.array([[0.0, t], [-1.0, 0.0]]),
                        lambda t: np.zeros((2, 1)))
        F = resolvent(sys, 0.0, 1.0)
        Binv = resolvent(sys, 1.0, 0.0)
        assert np.abs(F @ Binv - np.eye(2)).max() < 1e-9

    def test_matches_rk4_path_both_directions(self):
        A_of = lambda t: np.array([[0.0, 1.0 + t], [-1.0, -0.3 * math.cos(3.0 * t)]])
        sys = LtvSystem(0.0, 2.0, A_of, lambda t: np.ones((2, 1)))
        for s, t in ((0.1, 1.9), (1.7, 0.2)):
            ref = rk4_path(lambda tau, M: A_of(tau) @ M, np.eye(2), [s, t], 1e-3)[-1]
            assert np.abs(resolvent(sys, s, t) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("lam", [-2000.0, -3000.0])
    def test_stiff_decay_meets_the_closed_form(self, lam):
        # A(t) = lam + 1000 t, so R(t, 0) = e^{lam t + 500 t^2}: the Gauss
        # points integrate the linear A exactly, and R(1, 0) underflows to 0
        sys = LtvSystem(0.0, 1.0, lambda t: np.array([[lam + 1000.0 * t]]),
                        lambda t: np.ones((1, 1)))
        exact = math.exp(0.01 * lam + 0.05)
        assert abs(resolvent(sys, 0.0, 0.01)[0, 0] - exact) <= 1e-12 * exact
        assert 0.0 <= resolvent(sys, 0.0, 1.0)[0, 0] <= 1e-300

    def test_outside_interval_raises(self):
        sys = constant_ltv(np.zeros((1, 1)), np.zeros((1, 1)), 0.0, 1.0)
        with pytest.raises(DomainError):
            resolvent(sys, -0.5, 0.5)


class TestQuadratureAndPaths:
    def test_simpson_exact_on_cubic(self):
        xs = np.linspace(0.0, 1.0, 11)
        vals = xs ** 3
        assert abs(composite_simpson(vals, xs[1] - xs[0]) - 0.25) < 1e-14

    def test_simpson_odd_interval_count(self):
        xs = np.linspace(0.0, 1.0, 10)  # 9 intervals
        vals = xs ** 3
        assert abs(composite_simpson(vals, xs[1] - xs[0]) - 0.25) < 1e-14

    def test_rk4_convergence_order(self):
        f = lambda t, x: -x
        errs = []
        for h in (0.1, 0.05):
            path = rk4_path(f, np.array([1.0]), np.array([0.0, 1.0]), h)
            errs.append(abs(path[-1, 0] - math.exp(-1.0)))
        assert errs[0] / errs[1] > 8.0


class TestInputLayout:
    """`as_matrix` coerces to C order, so a Fortran-ordered copy of an
    input is the same input: every verdict is a function of the values."""

    @staticmethod
    def draws(rng):
        for _ in range(30):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 3))
            yield n, k, MonicPolynomial.from_roots(-rng.uniform(0.5, 3.0, n))

    @staticmethod
    def fortran(*arrays):
        return [np.asfortranarray(M) for M in arrays]

    def test_pole_place(self, rng):
        for n, p, target in self.draws(rng):
            sys = helpers.random_controllable(rng, n, p)
            assert helpers.same_bits(pole_place(sys.A, sys.B, target),
                                     pole_place(*self.fortran(sys.A, sys.B), target))

    def test_design_observer(self, rng):
        for n, m, target in self.draws(rng):
            A, C = helpers.random_observable(rng, n, m)
            assert helpers.same_bits(design_observer(A, C, target),
                                     design_observer(*self.fortran(A, C), target))

    def test_detectability_test(self, rng):
        # observable pairs and pairs with one hidden stable mode
        for i in range(30):
            n = int(rng.integers(2, 7))
            A, C = helpers.planted_detection_pair(rng, n, hidden=-0.5 if i % 2 else None)
            assert helpers.same_bits(detectability_test(A, C),
                                     detectability_test(*self.fortran(A, C)))

    def test_lyapunov_certificate(self, rng):
        # at these sizes the solve and its residual round differently on a
        # Fortran-ordered A that is not coerced
        for n in rng.integers(24, 40, 30):
            A = helpers.random_stable_matrix(rng, n)
            G = rng.uniform(-1.0, 1.0, (n, n))
            R = G @ G.T
            assert helpers.same_bits(lyapunov_certificate(A, R),
                                     lyapunov_certificate(*self.fortran(A, R)))


class TestStageSampling:
    def test_stages_reproduce_the_substep_split(self):
        # ceil(|gap| / max_step (1 - 1e-12)) equal substeps per gap, on either
        # time direction: 1.0 - 0.7 = 0.30000000000000004 takes three, not four
        for grid in ([0.0, 0.25, 0.3, 1.0], [1.0, 0.55, 0.0], [0.0, 0.7, 1.0]):
            stages = rk4_stages(grid, 0.1)
            seen = 0
            for i, (ta, tb) in enumerate(zip(grid, grid[1:])):
                m = max(1, math.ceil(abs(tb - ta) / 0.1 * (1.0 - 1e-12)))
                h = (tb - ta) / m
                assert stages.stop[i] == seen + m
                assert np.all(stages.h[seen:seen + m] == h)
                assert_allclose(stages.t[seen:seen + m], ta + h * np.arange(m), rtol=0, atol=1e-15)
                seen += m

    def test_linspace_gaps_take_one_substep(self):
        # 964 of these 1,000 gaps exceed 1e-3 by an ulp
        grid = np.linspace(0.0, 1.0, 1001)
        assert np.count_nonzero(np.diff(grid) > 1e-3) > 900
        stages = rk4_stages(grid, 1e-3)
        assert stages.h.size == 1000
        assert np.array_equal(stages.stop, np.arange(1, 1001))
        assert np.array_equal(stages.t, grid[:-1])

    def test_gap_past_rounding_takes_two_substeps(self):
        for step in (1e-3, 0.1, 1.0):
            stages = rk4_stages([0.0, step * (1.0 + 1e-9)], step)
            assert stages.h.size == 2

    def test_vectorized_hermite_matches_scalar_calls(self, rng):
        values = rng.standard_normal((6, 2, 3))
        derivs = rng.standard_normal((6, 2, 3))
        kept = values.copy(), derivs.copy()
        f = SampledMatrixFunction(0.5, 0.2, values, derivs)
        # nodes, interior points, and points past both ends (clamped cubics)
        times = np.concatenate([np.linspace(0.3, 1.7, 29), [0.5, 0.7, 1.5]])
        batch = f(times)
        assert batch.shape == (times.size, 2, 3)
        for t, row in zip(times, batch):
            assert np.array_equal(row, f(float(t)))
        assert np.array_equal(f(times.reshape(-1, 1))[:, 0], batch)
        assert np.array_equal(values, kept[0]) and np.array_equal(derivs, kept[1])

    @pytest.mark.parametrize("trailing", [(3,), (4, 4)], ids=["p", "n-by-n"])
    def test_hermite_bits_equal_the_reference(self, rng, trailing):
        values = rng.standard_normal((9,) + trailing)
        derivs = rng.standard_normal((9,) + trailing)
        f = SampledMatrixFunction(0.5, 0.125, values, derivs)
        # nodes, interior points, the two ends, and points past both (clamped)
        times = np.concatenate([0.5 + 0.125 * np.arange(9), rng.uniform(0.5, 1.5, 16),
                                [0.3, 0.49, 1.51, 1.7]])
        for t in [*times.tolist(), times, times[:, None]]:
            got, want = f(t), helpers.hermite_reference(f, t)
            assert got.shape == want.shape == np.shape(t) + trailing
            assert got.tobytes() == want.tobytes()

    def test_sample_at_calls_once_per_distinct_time(self):
        calls = []
        times = np.array([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 0.5, 3.0]])
        out = sample_at(lambda t: calls.append(t) or np.array([t, 2.0 * t]), times)
        assert sorted(calls) == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
        assert out.shape == (3, 3, 2)
        assert np.array_equal(out[..., 1], 2.0 * times)


class TestPathBudget:
    def test_stage_times_past_the_budget_are_refused_first(self, monkeypatch):
        # 10 substeps of 3 stage times
        grid = np.linspace(0.0, 1.0, 11)
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 30)
        assert rk4_stages(grid, 0.1).h.size == 10
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 29)
        with pytest.raises(DomainError, match="the stage times of 10 substeps: 30 entries, "
                                              "over MAX_PATH_ENTRIES = 29"):
            rk4_stages(grid, 0.1)

    def test_resolvent_is_refused_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 100)
        sys = constant_ltv(np.array([[-1.0]]), np.array([[1.0]]), 0.0, 1.0)
        with pytest.raises(DomainError, match="MAX_PATH_ENTRIES = 100"):
            resolvent(sys, 0.0, 1.0)

    def test_an_infinite_split_is_refused(self):
        with pytest.raises(DomainError, match="inf entries"):
            rk4_stages([0.0, 1e308], 1e-300)
        with pytest.raises(DomainError, match="no finite count"):
            kernels.simpson_intervals(2e308, 1e-3)


class TestStepCount:
    @pytest.mark.parametrize("span, step", [(1.0, 0.0), (1e306, 1e-3), (1.0, 1e-320),
                                            (math.nan, 1e-3)])
    def test_no_finite_count_is_refused(self, span, step):
        with pytest.raises(DomainError, match="no finite count of steps"):
            kernels.step_count(span, step)

    def test_rounds_up(self):
        assert kernels.step_count(1.0, 0.3) == 4
        assert kernels.simpson_intervals(1.0, 0.3) == 4


class TestCheckWithin:
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1e-9, 1.0 + 1e-9), (0.5, 0.5)])
    def test_inside_up_to_the_slack_passes(self, a, b):
        kernels.check_within(a, b, 0.0, 1.0, "grid")

    @pytest.mark.parametrize("a, b", [(-3e-9, 1.0), (0.0, 1.0 + 3e-9), (math.nan, 1.0),
                                      (0.0, math.nan), (-math.inf, 1.0)])
    def test_outside_or_nan_is_refused_naming_the_interval(self, a, b):
        with pytest.raises(DomainError, match=r"leaves the control interval \[0.0, 1.0\]"):
            kernels.check_within(a, b, 0.0, 1.0, "grid", "control")

    @pytest.mark.parametrize("s, t", [(math.nan, 0.5), (0.5, math.nan), (1.5, 0.5), (0.5, -0.5)])
    def test_resolvent_refuses_either_time(self, s, t):
        with pytest.raises(DomainError, match="leaves the system interval"):
            resolvent(constant_ltv([[-1.0]], [[1.0]], 0.0, 1.0), s, t)


class TestAffineStates:
    @staticmethod
    def maps(rng, count, n):
        # rotations with columns scaled by 1 +- 1%: no state grows or decays
        # far over 1000 maps
        Q = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
        return Q * (1.0 + 0.01 * rng.standard_normal((count, 1, n)))

    @pytest.mark.parametrize("count", [1, 2, 3, 16, 17, 256, 1000])
    @pytest.mark.parametrize("n", [2, 12, 24])  # n = 24 is past the rule: one by one
    @pytest.mark.parametrize("offset", [False, True], ids=["no-c", "c"])
    @pytest.mark.parametrize("columns", [None, 3], ids=["vector", "matrix"])
    def test_matches_the_plain_loop(self, rng, count, n, offset, columns):
        M = self.maps(rng, count, n)
        shape = (n,) if columns is None else (n, columns)
        x0 = rng.standard_normal(shape)
        c = 0.1 * rng.standard_normal((count,) + shape) if offset else None
        got = kernels.affine_states(M, c, x0)
        want = helpers.affine_states_by_loop(M, c, x0)
        assert got.shape == want.shape == (count + 1,) + shape
        assert np.array_equal(got[0], x0)
        axes = tuple(range(1, want.ndim))
        assert np.all(np.abs(got - want).max(axis=axes) <= 1e-13 * np.abs(want).max(axis=axes))

    @pytest.mark.parametrize("n, k, offset, composes", [
        (2, 1, True, True), (8, 8, True, True), (16, 1, True, True), (16, 16, False, True),
        (16, 16, True, False), (20, 1, True, False), (24, 1, False, False),
        (48, 48, False, False)])
    def test_block_length_rule(self, n, k, offset, composes):
        # composing costs n^2 (n + k) flops a map, plus n^2 k with an offset
        assert kernels._scan_block(256, n, k, offset) == (16 if composes else 1)
        assert kernels._scan_block(3, n, k, offset) == 1

    def test_a_composite_that_overflows_is_applied_map_by_map(self):
        # 8 maps e^100 compose to inf, and inf times the zero entry of x is
        # nan; one by one that entry stays 0
        M = np.broadcast_to(np.diag([math.exp(100.0), math.exp(-1e-3)]), (256, 2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels.affine_states(M, None, [0.0, 1.0])
        assert np.array_equal(got, helpers.affine_states_by_loop(M, None, [0.0, 1.0]))
        assert got[-1, 1] > 0.0 and not got[:, 0].any()


class TestCountText:
    def test_exact_below_2_to_53_and_short_above(self):
        assert kernels.count_text(30) == "30"
        assert kernels.count_text(30.0) == "30"
        assert kernels.count_text(2 ** 53 - 1) == "9007199254740991"
        assert kernels.count_text(2 ** 53) == "9.007e+15"
        assert kernels.count_text(10 ** 303) == "1.000e+303"
        assert kernels.count_text(math.inf) == "inf"


class TestToleranceConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_rtol=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(ode_step=-1e-3)
        with pytest.raises(ValueError):
            ToleranceConfig(max_iter=0)

    @pytest.mark.parametrize("kwargs", [{"max_iter": 2.5}, {"max_iter": 1e9},
                                        {"ode_step": True}, {"max_iter": True},
                                        {"rank_rtol": np.bool_(True)}])
    def test_rejects_a_bool_or_a_fractional_count(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)

    @pytest.mark.parametrize("field", ["rank_rtol", "residual_tol", "ode_step",
                                       "fixed_point_tol"])
    def test_rejects_an_infinite_tolerance(self, field):
        with pytest.raises(ValueError, match="finite"):
            ToleranceConfig(**{field: math.inf})

    def test_accepts_a_numpy_integer_count(self):
        assert ToleranceConfig(max_iter=np.int64(3)).max_iter == 3

    def test_eigenvalue_error_wrapped(self):
        with pytest.raises((NumericalError, DimensionError)):
            eigenvalues(np.ones((2, 3)))
