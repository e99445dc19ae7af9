"""Seeded inputs for the three workloads, admitted with numpy and scipy only.

Nothing here imports lincontrol: a draw is kept or redrawn by conditions
computed independently of the code under test (Riccati horizons from the
exact Hamiltonian flow, Gramian and Lyapunov condition numbers from
scipy), never by running lincontrol on it. Sizes and structures are fixed
per task slot; the seed only changes the entries, so the cost of a pass
does not depend on the seed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sl

ARE_TOL = 1e-10          # lqr.are_solve's default convergence tolerance
ARE_MARGIN = 4.0         # the deciding doubling clears the tolerance by this factor


# ---------------------------------------------------------------------------
# shared constructions


def random_matrix(rng, n, m):
    """Entries N(0, 1/n), so the spectrum of a square draw sits near the unit disc."""
    return rng.standard_normal((n, m)) / math.sqrt(n)


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def unit_vector(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def controllability_gramian(A, B, T):
    """Van Loan: expm of [[-A, BB'], [0, A']] T carries e^{AT} and the Gramian."""
    n = A.shape[0]
    M = np.block([[-A, B @ B.T], [np.zeros((n, n)), A.T]]) * T
    E = sl.expm(M)
    eAT = E[n:, n:].T
    G = eAT @ E[:n, n:]
    return 0.5 * (G + G.T), eAT


def planted_pair(rng, n, r, p):
    """(A, B) with reachable subspace of dimension exactly r, rotated by a
    random orthogonal matrix; the unreachable block is shifted to the right
    of the reachable one so the two spectra are apart."""
    A1 = random_matrix(rng, r, r) - 1.0 * np.eye(r)
    A3 = random_matrix(rng, n - r, n - r) + 1.0 * np.eye(n - r)
    A0 = np.block([[A1, random_matrix(rng, r, n - r)],
                   [np.zeros((n - r, r)), A3]])
    B0 = np.vstack([random_matrix(rng, r, p), np.zeros((n - r, p))])
    Q = random_orthogonal(rng, n)
    return Q @ A0 @ Q.T, Q @ B0


# ---------------------------------------------------------------------------
# are-limit


def riccati_flow(A, BBt, CtC, P, duration):
    """Exact backward Riccati flow over `duration`, as the linear-fractional
    map of expm(tau H) with H = [[-A, BB'], [C'C, A']], applied in pieces
    with ||tau H|| <= 4 so every exponential stays well scaled."""
    n = A.shape[0]
    H = np.block([[-A, BBt], [CtC, A.T]])
    pieces = max(1, math.ceil(duration * np.linalg.norm(H, 2) / 4.0))
    Phi = sl.expm(H * (duration / pieces))
    for _ in range(pieces):
        X = Phi[:n, :n] + Phi[:n, n:] @ P
        Y = Phi[n:, :n] + Phi[n:, n:] @ P
        P = np.linalg.solve(X.T, Y.T).T
        P = 0.5 * (P + P.T)
    return P


def doubling_diffs(A, B, C, doublings):
    """||P_{2T}(0) - P_T(0)||_F at T = 1, 2, 4, ... with terminal weight I,
    the sequence are_solve's stopping rule reads."""
    BBt, CtC = B @ B.T, C.T @ C
    T = 1.0
    P_prev = riccati_flow(A, BBt, CtC, np.eye(A.shape[0]), T)
    diffs = []
    for _ in range(doublings):
        P_next = riccati_flow(A, BBt, CtC, P_prev, T)
        diffs.append(float(np.linalg.norm(P_next - P_prev)))
        P_prev = P_next
        T *= 2.0
    return diffs


def settles_at(A, B, C, horizon):
    """True when the doubling rule stops exactly at `horizon`, with the
    deciding difference and the one before it clear of the tolerance."""
    k = int(round(math.log2(horizon)))
    diffs = doubling_diffs(A, B, C, k)
    return (diffs[-1] <= ARE_TOL / ARE_MARGIN and diffs[-2] >= ARE_TOL * ARE_MARGIN
            and all(d > ARE_TOL for d in diffs[:-1]))


ARE_FIXTURES = (
    # name, A, B, C, closed-form P
    ("scalar", [[0.0]], [[1.0]], [[1.0]], [[1.0]]),
    ("unobserved-unstable", [[1.0]], [[1.0]], [[0.0]], [[2.0]]),
)

# (n, p, C misses an unstable mode, horizon the doubling sweep settles at):
# the horizon is fixed per slot so the cost of a pass does not move with the
# seed; the largest draw gets the longer horizon most such draws need. The
# list is short so that every task repeats many times in a run.
ARE_SLOTS = ((2, 2, False, 16.0), (4, 1, True, 16.0), (8, 2, False, 32.0))


def are_draw(rng, n, p, blind, horizon):
    """A stabilizable draw whose doubling sweep settles at `horizon`.

    With `blind`, A has a real unstable eigenvalue and C annihilates its
    eigenvector, as in the A = 1, C = 0 fixture: the pair is stabilizable
    but not detectable, and the terminal weight I still selects the
    stabilizing root."""
    while True:
        A = random_matrix(rng, n, n) - rng.uniform(0.5, 2.0) * np.eye(n)
        B = 2.0 * rng.standard_normal((n, p))
        C = 2.0 * rng.standard_normal((max(1, n // 2), n))
        if blind:
            lam = rng.uniform(1.5, 2.5)
            v = unit_vector(rng, n)
            A = A - np.outer(A @ v - lam * v, v)  # A v = lam v
            C = C - np.outer(C @ v, v)           # C v = 0
        H = np.block([[A, -B @ B.T], [-C.T @ C, -A.T]])
        if np.min(np.abs(np.linalg.eigvals(H).real)) < 0.05:
            continue
        if settles_at(A, B, C, horizon):
            return A, B, C


def are_limit_inputs(seed):
    rng = np.random.default_rng([seed, 1])
    tasks = [(name, np.array(A), np.array(B), np.array(C),
              None if P is None else np.array(P))
             for name, A, B, C, P in ARE_FIXTURES]
    for n, p, blind, horizon in ARE_SLOTS:
        A, B, C = are_draw(rng, n, p, blind, horizon)
        tasks.append((f"draw-n{n}-p{p}" + ("-blind" if blind else ""), A, B, C, None))
    return tasks


# ---------------------------------------------------------------------------
# trajectories

LQR_SIZES = ((2, 1), (4, 2), (8, 2))        # (n, p) beside the tanh fixture
STEER_SIZES = (2, 3, 4)                     # single input, T = 1
GRAMIAN_COND_MAX = 1e5
PENDULUM_OFFSET = 0.02                      # endpoint distance from upright
POLY_OFFSET = 0.02


def lqr_draw(rng, n, p):
    A = random_matrix(rng, n, n)
    B = random_matrix(rng, n, p)
    C = random_matrix(rng, max(1, n // 2), n)
    return A, B, C, unit_vector(rng, n)


def steer_draw(rng, n):
    while True:
        A = random_matrix(rng, n, n)
        B = random_matrix(rng, n, 1)
        G, _ = controllability_gramian(A, B, 1.0)
        if np.linalg.cond(G) <= GRAMIAN_COND_MAX:
            return A, B, unit_vector(rng, n), unit_vector(rng, n)


def poly_field_decl(rng):
    """An undamped Duffing oscillator x1' = x2, x2' = -k x1 - e x1^3 + u.
    The nonlinearity is odd, so the fixed-point error shrinks by about the
    cube of the offset each pass and every seed needs the same passes."""
    k, e = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
    return {
        "state_dim": 2,
        "control_dim": 1,
        "rhs": [
            [{"coeff": 1.0, "x": [0, 1], "u": [0]}],
            [{"coeff": -k, "x": [1, 0], "u": [0]},
             {"coeff": -e, "x": [3, 0], "u": [0]},
             {"coeff": 1.0, "x": [0, 0], "u": [1]}],
        ],
    }


def around(rng, centre, radius):
    centre = np.asarray(centre, dtype=float)
    return centre + radius * unit_vector(rng, centre.size)


def trajectories_inputs(seed):
    rng = np.random.default_rng([seed, 2])
    lqr = [("lqr-tanh", np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
            np.ones(1))]
    lqr += [(f"lqr-n{n}-p{p}",) + lqr_draw(rng, n, p) for n, p in LQR_SIZES]
    steer = [(f"steer-n{n}",) + steer_draw(rng, n) for n in STEER_SIZES]
    upright = (math.pi, 0.0)
    pendulum = [(f"pendulum-{k}", around(rng, upright, PENDULUM_OFFSET),
                 around(rng, upright, PENDULUM_OFFSET)) for k in range(2)]
    poly = ("poly", poly_field_decl(rng), around(rng, (0.0, 0.0), POLY_OFFSET),
            around(rng, (0.0, 0.0), POLY_OFFSET))
    return {"lqr": lqr, "steer": steer, "pendulum": pendulum, "poly": poly}


# ---------------------------------------------------------------------------
# desk-analysis

ANALYZE_SIZES = (4, 8, 12, 16)          # controllable, C = I
PLANTED = ((6, 3, 1), (12, 6, 2))       # (n, planted rank, p)
GRAMIAN_SIZES = (4, 8, 16)
PLACE_SIZES = ((3, 1), (4, 1), (6, 2))  # (n, p)
OBSERVER_SIZES = ((3, 1), (4, 2))       # (n, m)
STAB_SIZES = ((4, 1), (6, 2))
LYAP_SIZES = (8, 16, 24, 32, 40, 48)
DETECT_SIZES = (3, 4, 5)        # detectability_test fails from n = 6 (m = 1)
Q_COND_MAX = 1e8


def stable_matrix(rng, n, margin=0.5):
    A = random_matrix(rng, n, n)
    return A - (np.max(np.linalg.eigvals(A).real) + margin) * np.eye(n)


def spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T / n + np.eye(n)


def target_roots(n):
    return [-1.0 - 0.5 * k for k in range(n)]


def stab_draw(rng, n, p):
    """Pair and decay rate whose weighted Gramian is well conditioned."""
    while True:
        A = random_matrix(rng, n, n)
        B = random_matrix(rng, n, p)
        lam = 1.0 + max(0.0, -float(np.min(np.linalg.eigvals(A).real)))
        S = A + lam * np.eye(n)
        Q = sl.solve_continuous_lyapunov(S, B @ B.T)
        if np.linalg.cond(Q) <= Q_COND_MAX:
            return A, B, lam


def detect_draw(rng, n, kind):
    """(A, C, detectable). kinds: observable, hidden-stable (an unobserved
    stable mode: detectable, not observable), hidden-unstable (an
    unobserved unstable mode: not detectable)."""
    m = max(1, n // 4)
    A = random_matrix(rng, n, n)
    C = random_matrix(rng, m, n)
    if kind == "observable":
        return A, C, True
    lam = -1.5 if kind == "hidden-stable" else 0.7
    v = unit_vector(rng, n)
    A = A - np.outer(A @ v - lam * v, v)
    C = C - np.outer(C @ v, v)
    return A, C, kind == "hidden-stable"


def desk_inputs(seed):
    rng = np.random.default_rng([seed, 3])
    systems = {}    # name -> (A, B, C or None, planted rank)
    for n in ANALYZE_SIZES:
        systems[f"ctrl-n{n}"] = (random_matrix(rng, n, n),
                                 random_matrix(rng, n, max(1, n // 4)), None, n)
    for n, r, p in PLANTED:
        A, B = planted_pair(rng, n, r, p)
        systems[f"planted-n{n}-r{r}"] = (A, B, None, r)
    for n in GRAMIAN_SIZES:
        systems[f"gram-n{n}"] = (random_matrix(rng, n, n),
                                 random_matrix(rng, n, max(1, n // 4)), None, n)
    for n, p in PLACE_SIZES:
        systems[f"place-n{n}-p{p}"] = (random_matrix(rng, n, n),
                                       random_matrix(rng, n, p), None, n)
    for n, m in OBSERVER_SIZES:
        A = random_matrix(rng, n, n)
        systems[f"obs-n{n}-m{m}"] = (A, np.zeros((n, 1)),
                                     random_matrix(rng, m, n), n)
    stab = {}
    for n, p in STAB_SIZES:
        A, B, lam = stab_draw(rng, n, p)
        systems[f"stab-n{n}-p{p}"] = (A, B, None, n)
        stab[f"stab-n{n}-p{p}"] = lam
    lyap = [(n, stable_matrix(rng, n), spd(rng, n)) for n in LYAP_SIZES]
    detect = [(n, kind) + detect_draw(rng, n, kind)
              for n in DETECT_SIZES
              for kind in ("observable", "hidden-stable", "hidden-unstable")]
    return {"systems": systems, "stab": stab, "lyap": lyap, "detect": detect}
