"""Shared test utilities: random-system factories and quadrature oracles.

The oracles here deliberately avoid the code paths they check: Lyapunov
solutions are re-derived from the defining improper integral, Gramians
from explicit matrix-exponential quadrature, costs from Simpson sums of
sampled integrands. `riccati_sweep` is the one-step-at-a-time backward
sweep that the doubling scan of `lqr.riccati_finite` replaced, and
`transition_samples` stacks the m + 1 powers of e^{hA} that the flow
triple of the constant-coefficient Gramian replaced; summed around
`van_loan_gramian`, the Gramian of one step, they give the exact
constant-coefficient Gramian. `_gramian_from_samples` is the composite
Simpson sum over such samples that the Gramian once was.
`transition_samples_two_pass` is the stacked two-pass construction of
the time-varying samples that the one backward pass replaced.
`affine_states_by_loop` and `transition_loop` apply step maps one at a
time, the order `kernels.affine_states` composes and `lqr_trajectory`
keeps. `hermite_reference` is the cubic Hermite of
`kernels.SampledMatrixFunction` through np.clip and np.take, the numpy
wrappers its call leaves out.
"""

import dataclasses

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from lincontrol import ControlSignal, DimensionError, LtiSystem, LtvSystem, kalman_test
from lincontrol import kernels, reachability
from lincontrol.kernels import DEFAULT_TOLERANCES, _flow_triple
from lincontrol.lqr import BLOWUP_NORM
from lincontrol.reachability import _transition_samples


def random_system(rng, n, p, shift=0.0):
    A = rng.uniform(-1.0, 1.0, (n, n)) - shift * np.eye(n)
    B = rng.uniform(-1.0, 1.0, (n, p))
    return LtiSystem(A, B)


def random_controllable(rng, n, p, shift=0.0):
    while True:
        sys = random_system(rng, n, p, shift)
        if kalman_test(sys).controllable:
            return sys


def random_stable_matrix(rng, n, margin=0.3):
    """Shift a random matrix left until its spectrum clears the margin."""
    A = rng.uniform(-1.0, 1.0, (n, n))
    omega = np.max(np.linalg.eigvals(A).real)
    return A - (omega + margin) * np.eye(n)


def random_observable(rng, n, m):
    while True:
        A = rng.uniform(-1.0, 1.0, (n, n))
        C = rng.uniform(-1.0, 1.0, (m, n))
        if kalman_test(LtiSystem(A.T, C.T)).controllable:
            return A, C


def reduction_losing_draw(n, s):
    """A, B, C ~ N(0, 1/n) with p = m = n // 4, from rng [n, s, 77], and
    the target roots linspace(-2, -1, n). At n = 32 with s in {0, 1} and
    at n = 48 with s = 0 the pair passes the Kalman gate while the
    single-input reduction of pole placement fails it to rounding."""
    rng = np.random.default_rng([n, s, 77])
    p = n // 4
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    B = rng.standard_normal((n, p)) / np.sqrt(n)
    C = rng.standard_normal((p, n)) / np.sqrt(n)
    return LtiSystem(A, B, C), np.linspace(-2.0, -1.0, n)


def planted_detection_pair(rng, n, hidden=None):
    """(A, C) with A ~ N(0, 1/n) and m = max(1, n // 4) outputs.

    With `hidden` a real number, the pair gets an eigenvalue `hidden`
    whose unit eigenvector v is unobserved: A v = hidden v and C v = 0, a
    rank-one change of each draw. The pair is then detectable iff
    hidden < 0; with hidden=None it is (generically) observable.
    """
    m = max(1, n // 4)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    C = rng.standard_normal((m, n)) / np.sqrt(n)
    if hidden is not None:
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        A = A - np.outer(A @ v - hidden * v, v)
        C = C - np.outer(C @ v, v)
    return A, C


def _second_difference(k):
    """tridiag(1, -2, 1) of size k."""
    return -2.0 * np.eye(k) + np.eye(k, k=1) + np.eye(k, k=-1)


def heat_pair(n):
    """The 1-D heat equation on n interior nodes with boundary control:
    A = (n + 1)^2 tridiag(1, -2, 1), B = (n + 1)^2 e_n, C = (n + 1) e_1^T.
    Controllable and observable at every n, with eigenvalues
    -4 (n + 1)^2 sin^2(k pi / (2 (n + 1)))."""
    h2 = float((n + 1) ** 2)
    B = np.zeros((n, 1))
    B[-1, 0] = h2
    C = np.zeros((1, n))
    C[0, 0] = n + 1
    return LtiSystem(h2 * _second_difference(n), B, C)


def wave_pair(n):
    """The 1-D wave equation on m = n / 2 interior nodes, state (y, y'):
    A = [[0, I], [D, 0]] with D = (m + 1)^2 tridiag(1, -2, 1),
    B = (m + 1)^2 e_{2m}, C = -(m + 1) e_m^T. Controllable and observable
    at every even n."""
    m = n // 2
    A = np.zeros((2 * m, 2 * m))
    A[:m, m:] = np.eye(m)
    A[m:, :m] = (m + 1) ** 2 * _second_difference(m)
    B = np.zeros((2 * m, 1))
    B[-1, 0] = (m + 1) ** 2
    C = np.zeros((1, 2 * m))
    C[0, m - 1] = -(m + 1)
    return LtiSystem(A, B, C)


def riccati_sweep(prob, h):
    """Riccati samples on the grid of spacing h = T / m, carried back from
    P(T) = P0 one grid step at a time by the flow triple of one step.
    Returns the (m + 1, n, n) samples, or the time of the first sample whose
    size reaches BLOWUP_NORM."""
    A, B, C = prob.sys.A, prob.sys.B, prob.sys.C
    m = round(prob.horizon / h)
    alpha, beta, gamma = _flow_triple(A, B @ B.T, C.T @ C, h, prob.P0)
    eye = np.eye(prob.sys.n)
    P = np.empty((m + 1,) + eye.shape)
    P[m] = prob.P0
    D = np.zeros_like(eye)
    for k in range(m, 0, -1):
        # D (I + beta D)^{-1} = (I + D beta)^{-1} D
        D = gamma + alpha.T @ np.linalg.solve(eye + D @ beta, D) @ alpha
        D = 0.5 * (D + D.T)
        P[k - 1] = prob.P0 + D
        if not np.abs(P[k - 1]).max() < BLOWUP_NORM:
            return (k - 1) * h
    return P


def flow_triple_by_blocks(A, BBt, CtC, duration, P0):
    """`kernels._flow_triple` from np.block, np.linalg.norm and np.linalg.inv,
    doubled up by `compose_by_blocks`, on the Hamiltonian balanced by the
    same power of two d (the flow of D / d, scaled back at the end)."""
    Ac = A - BBt @ P0
    P0A = P0 @ A
    R = CtC + P0A + P0A.T - P0 @ BBt @ P0
    (_, er), (_, eb) = np.frexp(np.abs(R).max()), np.frexp(np.abs(BBt).max())
    if not BBt.any():
        d = 2.0 ** er
    elif not R.any():
        d = 2.0 ** -eb
    else:
        d = 2.0 ** ((er - eb) // 2)
    H = np.block([[-Ac, BBt * d], [R / d, Ac.T]])
    scale = np.linalg.norm(H, 1)
    s = max(0, int(np.ceil(np.log2(duration) + np.log2(scale)))) if scale > 0 else 0
    Phi = scipy.linalg.expm((duration / 2.0 ** s) * H)
    n = A.shape[0]
    alpha = np.linalg.inv(Phi[:n, :n])
    beta, gamma = alpha @ Phi[:n, n:], Phi[n:, :n] @ alpha
    triple = (alpha, 0.5 * (beta + beta.T), 0.5 * (gamma + gamma.T))
    for _ in range(s):
        triple = compose_by_blocks(triple, triple)
    return triple[0], triple[1] / d, triple[2] * d


def compose_by_blocks(first, second):
    """`kernels._compose` from np.eye, np.hstack, np.split and np.linalg.solve."""
    a1, b1, g1 = first
    a2, b2, g2 = second
    W = np.eye(a1.shape[0]) + b2 @ g1
    Wa, Wba = np.split(np.linalg.solve(W, np.hstack([a2, b2 @ a1.T])), 2, axis=1)
    beta, gamma = b1 + a1 @ Wba, g2 + a2.T @ g1 @ Wa
    return (a1 @ Wa, 0.5 * (beta + beta.T), 0.5 * (gamma + gamma.T))


def well_conditioned_invertible(rng, n):
    """Orthogonal factors around singular values in [0.5, 2]."""
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q2


def simpson_integral(f, a, b, count):
    """Composite Simpson of a vector/matrix-valued callable, count even."""
    xs = np.linspace(a, b, count + 1)
    vals = np.array([f(x) for x in xs])
    w = np.ones(count + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / count
    return np.tensordot(w, vals, axes=(0, 0)) * (h / 3.0)


def _stepped_simpson(make_integrand, generator, horizon, count):
    """Simpson over [0, horizon] with e^{t G} accumulated by products."""
    h = horizon / count
    Eh = scipy.linalg.expm(h * generator)
    E = np.eye(generator.shape[0])
    w = np.ones(count + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    total = np.zeros_like(make_integrand(E))
    for k in range(count + 1):
        total = total + w[k] * make_integrand(E)
        E = E @ Eh
    return total * (h / 3.0)


def lyapunov_by_quadrature(A, R, count=8000):
    """int_0^inf e^{tA^T} R e^{tA} dt for stable A, truncated at 40/|omega|."""
    omega = np.max(np.linalg.eigvals(A).real)
    assert omega < 0
    horizon = min(40.0 / abs(omega), 1e4)
    return _stepped_simpson(lambda E: E.T @ R @ E, A, horizon, count)


def weighted_gramian_by_quadrature(A, B, lam, count=8000):
    """int_0^inf e^{-2 lam t} e^{-tA} B B^T e^{-tA^T} dt, truncated."""
    shifted = -(A + lam * np.eye(A.shape[0]))
    omega = np.max(np.linalg.eigvals(shifted).real)
    assert omega < 0
    horizon = min(40.0 / abs(omega), 1e4)

    def integrand(E):
        F = E @ B
        return F @ F.T

    return _stepped_simpson(integrand, shifted, horizon, count)


def control_quadrature_cost(u_of, t0, t1, count=2000):
    return float(simpson_integral(
        lambda s: np.sum(np.asarray(u_of(s)) ** 2), t0, t1, count))


def constant_ltv(A, B, t0, t1):
    """Wrap constant matrices as a time-varying system on [t0, t1]."""
    A = kernels.require_square(A, "A")
    B = kernels.as_matrix(B, "B")
    return LtvSystem(t0, t1, lambda t: A, lambda t: B)


def control_from_samples(grid, values):
    """Piecewise-linear interpolation of sampled control values."""
    grid = np.asarray(grid, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] != grid.size:
        values = values.T
    if values.shape[0] != grid.size:
        raise DimensionError("values must supply one row per grid point")
    dim = values.shape[1]

    def u_of(t, _g=grid, _v=values):
        return np.array([np.interp(t, _g, _v[:, i]) for i in range(dim)])

    return ControlSignal(float(grid[0]), float(grid[-1]), dim, u_of)


def transition_samples(sys, t0, t1, cfg=DEFAULT_TOLERANCES):
    """(nodes, E, A_at, B_at): E[k] = R(t1, s_k) on the Simpson nodes of
    [t0, t1], with the system matrices at the nodes (A_at is the one
    matrix A for constant systems).

    For an LtiSystem, the explicit stacked-power oracle: the m + 1
    powers of e^{hA}, built by doubling, where `reachability._gramian`
    takes the Gramian from the flow triple and R(t1, t0) from its alpha.
    Time-varying systems take the Magnus samples of
    `reachability._transition_samples`.
    """
    if not isinstance(sys, LtiSystem):
        nodes, E, A_at, _ = _transition_samples(sys, t0, t1, cfg)
        return nodes, E, A_at, kernels.sample_at(sys.B_of, nodes)
    m = kernels.simpson_intervals(t1 - t0, cfg.ode_step)
    nodes = np.linspace(t0, t1, m + 1)
    n = sys.n
    Eh = kernels.expm((t1 - t0) / m * sys.A)
    # P[j] = Eh^j, one stacked product per doubling: Eh^(K + j) = Eh^j Eh^K
    P = np.eye(n)[None]
    while P.shape[0] <= m:
        P = np.concatenate([P, (P.reshape(-1, n) @ (P[-1] @ Eh)).reshape(P.shape)])
    B_at = np.broadcast_to(sys.B, (m + 1,) + sys.B.shape)
    return nodes, P[m::-1], sys.A, B_at


def transition_samples_two_pass(sys, t0, t1, cfg=DEFAULT_TOLERANCES):
    """(nodes, E, A_at, G) of `reachability._transition_samples`, built in
    two forward passes: every gap's step transition Phi22 and step Gramian
    S = Phi21 Phi22^T stacked first, the suffix products E_k = E_{k+1}
    Phi22_k next, and G = sum_k E_{k+1} S_k E_{k+1}^T as one stacked
    product. The single backward pass that replaced it matches it bit for
    bit in nodes, E and A_at, and in G up to the order of the sum.
    """
    m = kernels.simpson_intervals(t1 - t0, cfg.ode_step)
    n = sys.n
    h = (t1 - t0) / m
    nodes = np.linspace(t0, t1, m + 1)
    times = nodes[:-1, None] + h * kernels.GAUSS
    A_at = kernels.sample_at(sys.A_of, nodes)
    Phi22, S = np.empty((m, n, n)), np.empty((m, n, n))
    for lo in range(0, m, kernels.PATH_CHUNK):
        sl = slice(lo, lo + kernels.PATH_CHUNK)
        A, B = kernels.sample_at(sys.A_of, times[sl]), kernels.sample_at(sys.B_of, times[sl])
        H = np.block([[-A.swapaxes(-1, -2), np.zeros_like(A)], [B @ B.swapaxes(-1, -2), A]])
        Phi, _ = kernels._magnus_step_maps(H, None, np.full(len(H), h))
        Phi22[sl], S[sl] = Phi[:, n:, n:], Phi[:, n:, :n] @ Phi[:, n:, n:].swapaxes(-1, -2)
    # Et[j] = E_{m-j}^T, chunks cut from the t1 end
    Et, Mt = np.empty((m + 1, n, n)), Phi22[::-1].swapaxes(-1, -2)
    Et[0] = np.eye(n)
    for lo in range(0, m, kernels.PATH_CHUNK):
        Et[lo:lo + kernels.PATH_CHUNK + 1] = kernels.affine_states(
            Mt[lo:lo + kernels.PATH_CHUNK], None, Et[lo])
    E = Et[::-1].swapaxes(-1, -2)
    G = (E[1:] @ S @ E[1:].swapaxes(-1, -2)).sum(axis=0)
    return nodes, E, A_at, G


def _gramian_from_samples(nodes: np.ndarray, E: np.ndarray, B_at: np.ndarray) -> np.ndarray:
    """Composite-Simpson sum of w_k F_k F_k^T with F_k = E_k B_at[k].

    The scaled factors sqrt(w_k) F_k are laid side by side in one
    n x (K p) matrix M, so the sum is the single product M M^T. The step
    is (t1 - t0) / m, not a difference of neighbouring nodes, which
    cancels on a short span far from 0.
    """
    m = nodes.size - 1
    w = kernels.simpson_weights(m) * ((nodes[-1] - nodes[0]) / m / 3.0)
    F = (E @ B_at) * np.sqrt(w)[:, None, None]
    M = F.transpose(1, 0, 2).reshape(F.shape[1], -1)
    return M @ M.T


def gramian_by_radau(sys, t0, t1, rtol):
    """The Gramian of an LtvSystem on [t0, t1] as the Lyapunov flow
    W' = A W + W A^T + B B^T, W(t0) = 0, integrated by Radau with its
    exact Jacobian I (x) A + A (x) I."""
    n = sys.n
    eye = np.eye(n)

    def rhs(t, w):
        A, B = sys.A_of(t), sys.B_of(t)
        W = w.reshape(n, n)
        return (A @ W + W @ A.T + B @ B.T).ravel()

    def jac(t, w):
        A = sys.A_of(t)
        return np.kron(A, eye) + np.kron(eye, A)

    sol = solve_ivp(rhs, (t0, t1), np.zeros(n * n), method="Radau",
                    rtol=rtol, atol=1e-20, jac=jac)
    assert sol.success
    return sol.y[:, -1].reshape(n, n)


def van_loan_gramian(A, B, h):
    """int_0^h e^{sA} B B^T e^{sA^T} ds from the block exponential
    expm([[-A, B B^T], [0, A^T]] h) = [[F11, F12], [0, F22]] as F22^T F12
    (Van Loan, IEEE TAC 23, 1978)."""
    n = A.shape[0]
    F = scipy.linalg.expm(np.block([[-A, B @ B.T], [np.zeros((n, n)), A.T]]) * h)
    return F[n:, n:].T @ F[:n, n:]


def steering_endpoint_by_quadrature(sys, t0, t1, u, cfg=DEFAULT_TOLERANCES):
    """int R(t1, s) B(s) u(s) ds, the from-zero endpoint of the input map."""
    nodes, E, _, B_at = transition_samples(sys, t0, t1, cfg)
    h = (t1 - t0) / (nodes.size - 1)
    vals = np.array([E[k] @ (B_at[k] @ np.asarray(u.u_of(s), dtype=float))
                     for k, s in enumerate(nodes)])
    return kernels.composite_simpson(vals, h)


def control_energy(u, t0, t1, cfg=DEFAULT_TOLERANCES):
    """Simpson quadrature of int_{t0}^{t1} ||u(s)||^2 ds."""
    m = kernels.simpson_intervals(t1 - t0, cfg.ode_step)
    nodes = np.linspace(t0, t1, m + 1)
    vals = np.array([float(np.sum(np.asarray(u.u_of(s)) ** 2)) for s in nodes])
    return float(kernels.composite_simpson(vals, nodes[1] - nodes[0]))


def grid(t0, t1, points=401):
    return np.linspace(t0, t1, points)


CFG = DEFAULT_TOLERANCES


def affine_states_by_loop(M, c, x0):
    """x_{s+1} = M_s x_s + c_s (c = 0 if None) one map at a time, x0 first."""
    x = np.asarray(x0, dtype=float)
    states = [x]
    for s in range(len(M)):
        x = M[s] @ x if c is None else M[s] @ x + c[s]
        states.append(x)
    return np.array(states)


def transition_loop(transitions, xi):
    """states[k + 1] = transitions[k] @ states[k] from states[0] = xi."""
    states = np.empty((len(transitions) + 1, len(xi)))
    states[0] = xi
    for k in range(len(transitions)):
        states[k + 1] = transitions[k] @ states[k]
    return states


def hermite_reference(f, t):
    """f(t) for a `kernels.SampledMatrixFunction` f: the cubic Hermite on
    the sample gap that holds t, clamped to the first and last gaps, with
    the terms summed in the order of f's in-place accumulation."""
    K = f.values.shape[0] - 1
    u = (np.asarray(t, dtype=float) - f.t0) / f.h
    k = np.clip(np.floor(u), 0, K - 1).astype(int)
    th = (u - k)[(...,) + (None,) * (f.values.ndim - 1)]
    th2 = th * th
    th3 = th2 * th
    h00 = 2.0 * th3 - 3.0 * th2 + 1.0
    h10 = th3 - 2.0 * th2 + th
    h01 = -2.0 * th3 + 3.0 * th2
    h11 = th3 - th2
    return (np.take(f.values, k, axis=0) * h00 + np.take(f.values, k + 1, axis=0) * h01
            + (np.take(f.derivs, k, axis=0) * h10 + np.take(f.derivs, k + 1, axis=0) * h11) * f.h)


def assert_steering_is_sampled(control, w, B, ubar, rng):
    """A constant system's steering control is one SampledMatrixFunction
    whose values at the adjoint's nodes and at 200 random times match
    ubar + Hermite(w) B to 1e-13 relative, through u_of and `at` alike."""
    assert isinstance(control.u_of, kernels.SampledMatrixFunction)
    m = w.values.shape[0] - 1
    nodes = w.t0 + w.h * np.arange(m + 1)
    times = np.concatenate([nodes, rng.uniform(w.t0, nodes[-1], 200)])
    expected = w(times) @ B + ubar
    scale = np.abs(expected).max()
    assert scale > 0.0
    for got in (control.u_of(times), control.at(times)):
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * scale


def count_calls(monkeypatch, **targets):
    """Count the calls of each target, key=(owner, attribute name), from
    here on: a dict {key: calls} that the calls update."""
    counts = dict.fromkeys(targets, 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, (owner, name) in targets.items():
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    return counts


def count_factorizations(monkeypatch):
    """Count the calls of `kernels.real_schur` and `np.linalg.eigvals` from
    here on: a dict {"schur": ..., "eigvals": ...} that the calls update."""
    return count_calls(monkeypatch, schur=(kernels, "real_schur"),
                       eigvals=(np.linalg, "eigvals"))


def count_decisions(monkeypatch):
    """Count the controllability gate, the Kalman stacks and numpy's SVD,
    eigvals and inverse from here on, keyed is_controllable, kalman_matrix,
    svd, eigvals and inv."""
    return count_calls(
        monkeypatch,
        is_controllable=(reachability, "is_controllable"),
        kalman_matrix=(reachability, "kalman_matrix"),
        svd=(np.linalg, "svd"), eigvals=(np.linalg, "eigvals"), inv=(np.linalg, "inv"))


def same_bits(first, second):
    """Whether two result records hold the same fields byte for byte: each
    array or number has the same bytes in C order, a None field is None in both."""
    for x, y in zip(dataclasses.astuple(first), dataclasses.astuple(second), strict=True):
        if (x is None) != (y is None):
            return False
        if x is not None and np.asarray(x).tobytes() != np.asarray(y).tobytes():
            return False
    return True
