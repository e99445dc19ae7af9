"""Independent checks of lincontrol's outputs, built on numpy and scipy only.

Each check returns None when the answer holds and a one-line reason when it
does not. None of them imports lincontrol: references come from scipy
(CARE, Lyapunov, expm, solve_ivp), from closed forms, or from properties
the method must have. `self_test` shows that every check rejects a
deliberately perturbed answer.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sl
from scipy.integrate import solve_ivp

from inputs import controllability_gramian

IVP = dict(method="DOP853", rtol=1e-11, atol=1e-13)


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


def _abscissa(M):
    return float(np.max(np.linalg.eigvals(M).real))


def _matching_roots(M, roots, tol):
    got = np.sort_complex(np.linalg.eigvals(M))
    want = np.sort_complex(np.asarray(roots, dtype=complex))
    gap = float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))
    if gap > tol:
        return f"closed-loop eigenvalues miss the targets by {gap:.2e}"
    return None


# ---------------------------------------------------------------------------
# are-limit


def are_solution(A, B, C, P, closed_form=None):
    """Stabilizing CARE root: scipy's Schur solution, the residual, the
    closed-loop spectrum and, for fixtures, the closed form."""
    BBt, CtC = B @ B.T, C.T @ C
    X = sl.solve_continuous_are(A, B, CtC, np.eye(B.shape[1]))
    if _rel(P, X) > 1e-8:
        return f"P differs from scipy's CARE root by {_rel(P, X):.2e}"
    residual = np.linalg.norm(A.T @ P + P @ A - P @ BBt @ P + CtC)
    scale = 1.0 + np.linalg.norm(P) ** 2 * np.linalg.norm(BBt) + np.linalg.norm(CtC)
    if residual > 1e-8 * scale:
        return f"ARE residual {residual:.2e}"
    if _abscissa(A - BBt @ P) >= 0.0:
        return "closed loop A - BB'P is not stable"
    if closed_form is not None and _rel(P, closed_form) > 1e-9:
        return f"P misses the closed form by {_rel(P, closed_form):.2e}"
    return None


# ---------------------------------------------------------------------------
# trajectories


def riccati_reference(A, B, C, T):
    """P_T(0) with P(T) = 0, by solve_ivp on the Riccati DE in time to go."""
    n = A.shape[0]
    BBt, CtC = B @ B.T, C.T @ C

    def rhs(_, p):
        P = p.reshape(n, n)
        return (P @ A + A.T @ P - P @ BBt @ P + CtC).ravel()

    sol = solve_ivp(rhs, (0.0, T), np.zeros(n * n), **IVP)
    P = sol.y[:, -1].reshape(n, n)
    return 0.5 * (P + P.T)


def lqr_run(A, B, C, T, xi, P0, cost, closed_form=None):
    """Value matrix at t = 0 against the ODE reference (and tanh T for the
    scalar fixture), and the value identity cost = xi' P(0) xi."""
    ref = riccati_reference(A, B, C, T)
    if _rel(P0, ref) > 1e-8:
        return f"P(0) differs from the solve_ivp reference by {_rel(P0, ref):.2e}"
    if closed_form is not None and _rel(P0, closed_form) > 1e-9:
        return f"P(0) misses the closed form by {_rel(P0, closed_form):.2e}"
    value = float(xi @ ref @ xi)
    if abs(cost - value) > 1e-7 * (1.0 + abs(value)):
        return f"cost {cost:.12g} breaks the value identity xi'P(0)xi = {value:.12g}"
    return None


def _flow(f, x0, T):
    sol = solve_ivp(f, (0.0, T), np.asarray(x0, dtype=float), **IVP)
    return sol.y[:, -1]


def linear_steer(A, B, T, x0, x1, u_of, cost, final_state):
    """The returned control, integrated by solve_ivp, lands on x1; its cost
    is the Gramian-inverse minimum d' G^{-1} d with G from Van Loan."""
    end = _flow(lambda t, x: A @ x + B @ np.atleast_1d(u_of(t)), x0, T)
    miss = float(np.linalg.norm(end - x1))
    if miss > 1e-6:
        return f"control lands {miss:.2e} from x1 under solve_ivp"
    if float(np.linalg.norm(final_state - x1)) > 1e-6:
        return "simulated final state misses x1"
    G, eAT = controllability_gramian(A, B, T)
    d = x1 - eAT @ x0
    best = float(d @ np.linalg.solve(G, d))
    if abs(cost - best) > 1e-6 * (1.0 + best):
        return f"cost {cost:.12g} differs from the minimum energy {best:.12g}"
    return None


def pendulum_field(x, u):
    return np.array([x[1], -math.sin(x[0]) + u[0]])


def polynomial_field(decl):
    """Evaluate a config-declared polynomial field straight from its terms."""
    rows = [[(t["coeff"], t["x"], t["u"]) for t in comp] for comp in decl["rhs"]]

    def f(x, u):
        return np.array([sum(c * np.prod(np.power(x, xp)) * np.prod(np.power(u, up))
                             for c, xp, up in comp) for comp in rows])
    return f


def nonlinear_steer(f, T, x0, x1, u_of, history, converged):
    """Endpoint under solve_ivp, convergence, and contraction of the
    fixed-point error history. A history of one pass is a first pass that
    already landed within tolerance; it has no step to contract."""
    if not converged or not history or history[-1] > 1e-9:
        return f"steering did not converge (errors {history})"
    if any(b > 0.5 * a for a, b in zip(history, history[1:])):
        return f"error history {history} does not contract"
    end = _flow(lambda t, x: f(x, np.atleast_1d(u_of(t))), x0, T)
    miss = float(np.linalg.norm(end - x1))
    if miss > 1e-6:
        return f"control lands {miss:.2e} from x1 under solve_ivp"
    return None


# ---------------------------------------------------------------------------
# desk-analysis


def analysis(results, A, planted_rank):
    """`analyze` verdicts against the planted reachable dimension, the
    numpy spectrum, and C = I (observable)."""
    n = A.shape[0]
    if results["kalman_rank"] != planted_rank:
        return f"Kalman rank {results['kalman_rank']} but planted rank {planted_rank}"
    if results["controllable"] != (planted_rank == n):
        return "controllability verdict contradicts the planted rank"
    failing = sum(not rec["pass"] for rec in results["hautus"])
    if failing != n - planted_rank:
        return f"Hautus fails at {failing} eigenvalues, planted {n - planted_rank}"
    if not results["observable"] or results["observability_rank"] != n:
        return "C = I reported unobservable"
    omega = _abscissa(A)
    if abs(results["spectral_abscissa"] - omega) > 1e-8 * (1.0 + abs(omega)):
        return "spectral abscissa differs from numpy"
    if results["stable"] != (omega < 0.0):
        return "stability verdict contradicts the spectrum"
    return None


def gramian(A, B, T, G):
    """A G + G A' + BB' = e^{AT} BB' e^{A'T}, with scipy's expm."""
    eAT = sl.expm(A * T)
    BBt = B @ B.T
    lhs = A @ G + G @ A.T + BBt
    rhs = eAT @ BBt @ eAT.T
    gap = float(np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs)))
    if gap > 1e-9:
        return f"Gramian misses the Lyapunov identity by {gap:.2e}"
    return None


# pole_place promises the target coefficients to 1e-6 relative; with targets
# 0.5 apart that moves the roots by up to ~1e-3 at n = 6.
ROOT_TOL = 1e-3


def placement(A, B, F, roots):
    return _matching_roots(A + B @ F, roots, ROOT_TOL)


def observer(A, C, L, roots):
    return _matching_roots(A + L @ C, roots, ROOT_TOL)


def stabilizer(A, B, lam, K, P, Q):
    """Closed-loop abscissa at most -lam, P Q = I, and Q against scipy."""
    n = A.shape[0]
    if _abscissa(A + B @ K) > -lam + 1e-6:
        return f"closed-loop abscissa {_abscissa(A + B @ K):.6g} above -lambda"
    if _rel(P @ Q, np.eye(n)) > 1e-6:
        return "P Q differs from the identity"
    ref = sl.solve_continuous_lyapunov(A + lam * np.eye(n), B @ B.T)
    if _rel(Q, ref) > 1e-8:
        return f"Q differs from scipy's Lyapunov solution by {_rel(Q, ref):.2e}"
    return None


def lyapunov(A, R, Q):
    ref = sl.solve_continuous_lyapunov(A.T, -R)
    if _rel(Q, ref) > 1e-8:
        return f"Q differs from scipy's Lyapunov solution by {_rel(Q, ref):.2e}"
    return None


def detectability(A, C, expected, detectable, L):
    if detectable != expected:
        return f"detectability verdict {detectable}, constructed {expected}"
    if detectable and _abscissa(A + L @ C) >= 0.0:
        return "witness L leaves A + LC unstable"
    return None


def refusal(code, manifest, error_type):
    if code != 3 or [e["type"] for e in manifest["errors"]] != [error_type]:
        return f"expected exit 3 with {error_type}, got {code} {manifest['errors']}"
    return None


# ---------------------------------------------------------------------------
# self-test


def self_test():
    """Every oracle accepts a correct answer and rejects a perturbed one.
    Returns the list of failures (empty when all behave)."""
    import scipy.signal  # pole placement for the reference gains; only needed here

    rng = np.random.default_rng(7)
    n = 3
    A = rng.standard_normal((n, n)) / 2
    B = rng.standard_normal((n, 2))
    C = rng.standard_normal((2, n))
    E = 1e-4 * np.ones((n, n))
    cases = []

    X = sl.solve_continuous_are(A, B, C.T @ C, np.eye(2))
    cases.append(("are_solution", lambda P: are_solution(A, B, C, P), X, X + E))
    one = np.ones((1, 1))
    cases.append(("are_solution closed form",
                  lambda P: are_solution(one, one, 0 * one, P, 2 * one), 2 * one, 2 * one + 1e-6))

    P0 = riccati_reference(A, B, C, 1.0)
    xi = np.array([1.0, -0.5, 0.25])
    cost = float(xi @ P0 @ xi)
    cases.append(("lqr_run P(0)", lambda P: lqr_run(A, B, C, 1.0, xi, P, cost), P0, P0 + E))
    cases.append(("lqr_run cost", lambda c: lqr_run(A, B, C, 1.0, xi, P0, c), cost, cost + 1e-4))
    z = np.zeros((1, 1))
    t1 = np.array([[math.tanh(1.0)]])
    cases.append(("lqr_run tanh", lambda P: lqr_run(z, one, one, 1.0, np.ones(1), P, float(P[0, 0]),
                                                     closed_form=t1), t1, t1 + 1e-6))

    b = B[:, :1]
    x0, x1 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    G, eAT = controllability_gramian(A, b, 1.0)
    zvec = np.linalg.solve(G, x1 - eAT @ x0)
    u_ok = lambda t: b.T @ sl.expm(A.T * (1.0 - t)) @ zvec
    best = float((x1 - eAT @ x0) @ zvec)
    steer = lambda u, c: linear_steer(A, b, 1.0, x0, x1, u, c, x1)
    cases.append(("linear_steer control", lambda u: steer(u, best), u_ok, lambda t: 1.001 * u_ok(t)))
    cases.append(("linear_steer cost", lambda c: steer(u_ok, c), best, best * 1.001))

    rest = np.array([0.0, 0.0])
    zero = lambda t: np.zeros(1)
    cases.append(("nonlinear_steer history",
                  lambda h: nonlinear_steer(pendulum_field, 1.0, rest, rest, zero, h, True),
                  (1e-5, 1e-8, 1e-11), (1e-5, 1e-6, 9e-7, 1e-10)))
    cases.append(("nonlinear_steer endpoint",
                  lambda u: nonlinear_steer(pendulum_field, 1.0, rest, rest, u, (1e-6, 1e-12), True),
                  zero, lambda t: np.full(1, 1e-4)))
    decl = {"rhs": [[{"coeff": 1.0, "x": [0, 1], "u": [0]}],
                    [{"coeff": -1.0, "x": [3, 0], "u": [0]}, {"coeff": 1.0, "x": [0, 0], "u": [1]}]]}
    poly = polynomial_field(decl)
    cases.append(("polynomial_field", lambda v: None if abs(v - (-8.0 + 0.5)) < 1e-12 else "wrong value",
                  poly(np.array([2.0, 3.0]), np.array([0.5]))[1], -7.0))

    Ap = A.copy()
    results = {"kalman_rank": n, "controllable": True, "observable": True, "observability_rank": n,
               "hautus": [{"pass": True}] * n, "spectral_abscissa": _abscissa(Ap),
               "stable": _abscissa(Ap) < 0}
    cases.append(("analysis", lambda r: analysis(r, Ap, n), results, dict(results, kalman_rank=n - 1)))

    Gq, _ = controllability_gramian(A, B, 1.0)
    cases.append(("gramian", lambda g: gramian(A, B, 1.0, g), Gq, Gq + 1e-6 * np.eye(n)))

    roots = [-1.0, -2.0, -3.0]
    F = -scipy.signal.place_poles(A, B, roots).gain_matrix
    cases.append(("placement", lambda f: placement(A, B, f, roots), F, F + 0.05))
    L = -scipy.signal.place_poles(A.T, C.T, roots).gain_matrix.T
    cases.append(("observer", lambda l: observer(A, C, l, roots), L, L + 0.05))

    lam = 1.0 + max(0.0, -float(np.min(np.linalg.eigvals(A).real)))
    Q = sl.solve_continuous_lyapunov(A + lam * np.eye(n), B @ B.T)
    cases.append(("stabilizer", lambda q: stabilizer(A, B, lam, -B.T @ np.linalg.inv(q),
                                                      np.linalg.inv(q), q), Q, Q + E))

    As = A - (_abscissa(A) + 0.5) * np.eye(n)
    R = np.eye(n)
    Ql = sl.solve_continuous_lyapunov(As.T, -R)
    cases.append(("lyapunov", lambda q: lyapunov(As, R, q), Ql, Ql + E))

    cases.append(("detectability verdict", lambda d: detectability(As, C, True, d, np.zeros((n, 2))),
                  True, False))
    Au = As + np.eye(n)  # abscissa +0.5: the witness has to stabilize it
    Lu = -scipy.signal.place_poles(Au.T, C.T, roots).gain_matrix.T
    cases.append(("detectability witness", lambda l: detectability(Au, C, True, True, l),
                  Lu, np.zeros((n, 2))))

    manifest = {"errors": [{"type": "UncontrollableError"}]}
    cases.append(("refusal", lambda c: refusal(c, manifest, "UncontrollableError"), 3, 4))

    failures = []
    for name, check, good, bad in cases:
        verdict = check(good)
        if verdict is not None:
            failures.append(f"{name}: rejects the correct answer ({verdict})")
        if check(bad) is None:
            failures.append(f"{name}: accepts a perturbed answer")
    return failures
