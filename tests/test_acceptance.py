"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Random suites use fixed seeds so the verdicts are reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

import lincontrol as lc
from lincontrol import fields
from lincontrol.cli import main as cli_main
from lincontrol.kernels import ToleranceConfig, simpson_weights
from lincontrol.synthesis import minimal_decay_rate

import helpers
from helpers import _gramian_from_samples

PI = math.pi


def conclude(number, label, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)})"
    print(f"ACCEPTANCE {number:02d} {label}: {status}")
    for item in failures[:5]:
        print(f"    - {item}")
    assert not failures, f"criterion {number} failed: {failures[:5]}"


def test_criterion_01_three_way_controllability_equivalence():
    rng = np.random.default_rng(101)
    failures = []
    start = time.time()
    for i in range(200):
        n, p = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        sys = lc.LtiSystem(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, p)))
        k = lc.kalman_test(sys).controllable
        h = lc.hautus_test(sys).controllable
        g = lc.controllability_gramian(sys, 0.0, 1.0).invertible
        if not (k == h == g):
            failures.append(f"draw {i}: kalman={k} hautus={h} gramian={g}")
    elapsed = time.time() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 10 s")
    conclude(1, "three-way controllability equivalence", failures)


def test_criterion_02_pendulum_fixtures():
    failures = []
    vf = fields.pendulum()
    ref = lc.equilibrium_reference(vf, [PI, 0.0], [0.0], 0.0, 1.0)
    ltv = lc.linearize_along(vf, ref)
    A_expected = np.array([[0.0, 1.0], [1.0, 0.0]])
    B_expected = np.array([[0.0], [1.0]])
    if not np.array_equal(ltv.A_of(0.5), A_expected):
        failures.append(f"A(t) = {ltv.A_of(0.5).tolist()}")
    if not np.array_equal(ltv.B_of(0.5), B_expected):
        failures.append(f"B(t) = {ltv.B_of(0.5).tolist()}")
    rep = lc.kalman_test(lc.LtiSystem(A_expected, B_expected))
    if rep.rank != 2 or not rep.controllable:
        failures.append(f"kalman rank {rep.rank}")
    conclude(2, "pendulum fixtures", failures)


def test_criterion_03_duality():
    rng = np.random.default_rng(103)
    failures = []
    for i in range(200):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        A = rng.uniform(-1, 1, (n, n))
        C = rng.uniform(-1, 1, (m, n))
        if not helpers.duality_check(A, C):
            failures.append(f"draw {i}: verdicts disagree")
    conclude(3, "observability-controllability duality", failures)


def test_criterion_04_lyapunov_certificate():
    rng = np.random.default_rng(104)
    failures = []
    for i in range(50):
        n = int(rng.integers(1, 6))
        A = helpers.random_stable_matrix(rng, n, margin=float(rng.uniform(0.5, 1.5)))
        rep = lc.lyapunov_certificate(A, np.eye(n))
        residual_bound = 1e-10 * (1.0 + np.linalg.norm(np.eye(n)))
        if rep.residual > residual_bound:
            failures.append(f"draw {i}: residual {rep.residual:.2e}")
        if np.linalg.eigvalsh(rep.lyapunov_Q)[0] <= 0:
            failures.append(f"draw {i}: Q not positive definite")
        oracle = helpers.lyapunov_by_quadrature(A, np.eye(n), count=4000)
        if np.abs(rep.lyapunov_Q - oracle).max() > 1e-6:
            failures.append(f"draw {i}: oracle gap "
                            f"{np.abs(rep.lyapunov_Q - oracle).max():.2e}")
    conclude(4, "Lyapunov certificate", failures)


def test_criterion_05_pole_placement():
    rng = np.random.default_rng(105)
    failures = []
    gain = lc.pole_place([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                         lc.MonicPolynomial.from_roots([-1.0, -1.0]))
    if np.abs(gain.F - [[-1.0, -2.0]]).max() > 1e-9:
        failures.append(f"double integrator gain {gain.F.tolist()}")
    for i in range(100):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 4))
        sys = helpers.random_controllable(rng, n, p)
        roots = -rng.uniform(0.5, 3.0, n)
        roots += np.linspace(0.0, 0.05 * n, n)  # keep the roots separated
        target = lc.MonicPolynomial.from_roots(roots)
        result = lc.pole_place(sys.A, sys.B, target)
        achieved = lc.characteristic_polynomial(sys.A + sys.B @ result.F).alphas
        rel = np.abs(achieved - target.alphas) / (1.0 + np.abs(target.alphas))
        if rel.max() > 1e-6:
            failures.append(f"draw {i}: coefficient error {rel.max():.2e}")
    conclude(5, "pole placement", failures)


def test_criterion_06_observer_closed_loop():
    failures = []
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    K = lc.pole_place(A, B, lc.MonicPolynomial.from_roots([-1.0, -1.5])).F
    L = lc.design_observer(A, C, lc.MonicPolynomial.from_roots([-2.0, -3.0])).L
    loop = lc.closed_loop_observer_system(A, B, C, K, L)
    aug = np.sort(lc.eigenvalues(loop.augmented).real)
    parts = np.sort(np.concatenate([
        lc.eigenvalues(A + B @ K).real, lc.eigenvalues(A + L @ C).real]))
    if np.abs(aug - parts).max() > 1e-8:
        failures.append(f"spectrum union gap {np.abs(aug - parts).max():.2e}")
    grid = lc.uniform_grid(0.0, 8.0, 801)
    traj, xhat = loop.simulate([0.4, -0.2], [0.0, 0.0], grid)
    err = np.linalg.norm(xhat - traj.states, axis=1)
    window = (grid >= 1.0) & (grid <= 6.0)
    slope = np.polyfit(grid[window], np.log(err[window]), 1)[0]
    omega_L = lc.spectral_abscissa(A + L @ C)
    if not slope <= 0.9 * omega_L:
        failures.append(f"error decay rate {-slope:.3f} < 0.9 |omega_L| "
                        f"= {0.9 * abs(omega_L):.3f}")
    conclude(6, "observer closed loop", failures)


def test_criterion_07_riccati_finite_horizon():
    failures = []
    sys = lc.LtiSystem([[0.0]], [[1.0]], [[1.0]])
    prob = lc.LqrProblem(sys, None, 1.0)
    ric = lc.riccati_finite(prob)
    tanh_err = np.abs(ric.P_samples[:, 0, 0] - np.tanh(1.0 - ric.grid)).max()
    if tanh_err > 1e-8:
        failures.append(f"tanh closed form error {tanh_err:.2e}")

    rng = np.random.default_rng(107)
    sys2 = lc.LtiSystem(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 1)))
    full = lc.riccati_finite(lc.LqrProblem(sys2, None, 2.0))
    half = lc.riccati_finite(lc.LqrProblem(sys2, full.P_at(1.0), 1.0))
    restart_err = max(np.abs(half.P_at(t) - full.P_at(t)).max()
                      for t in np.linspace(0.0, 1.0, 21))
    if restart_err > 1e-8:
        failures.append(f"dynamic-programming restart error {restart_err:.2e}")

    run = lc.lqr_trajectory(prob, ric, [1.0])
    value_gap = abs(run.cost - float(ric.P_samples[0, 0, 0]))
    if value_gap > 1e-6:
        failures.append(f"value identity gap {value_gap:.2e}")
    conclude(7, "finite-horizon Riccati", failures)


def test_criterion_08_algebraic_riccati():
    failures = []
    sol = lc.are_solve(lc.LtiSystem([[0.0]], [[1.0]], [[1.0]]))
    if abs(sol.P[0, 0] - 1.0) > 1e-8:
        failures.append(f"fixture P=1 got {sol.P[0, 0]:.12f}")
    sol = lc.are_solve(lc.LtiSystem([[1.0]], [[1.0]], [[0.0]]))
    if abs(sol.P[0, 0] - 2.0) > 1e-8:
        failures.append(f"fixture P=2 got {sol.P[0, 0]:.12f}")

    rng = np.random.default_rng(108)
    cfg = ToleranceConfig(ode_step=8e-3)
    for i in range(50):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 3))
        m = int(rng.integers(1, n + 1))
        sys = lc.LtiSystem(rng.uniform(-1, 1, (n, n)) - 0.3 * np.eye(n),
                           rng.uniform(-1, 1, (n, p)),
                           1.5 * rng.uniform(-1, 1, (m, n)))
        sol = lc.are_solve(sys, cfg, convergence_tol=2e-8)
        if sol.residual > 1e-6:
            failures.append(f"draw {i}: residual {sol.residual:.2e}")
        if not sol.closed_loop_abscissa < 0:
            failures.append(f"draw {i}: closed loop {sol.closed_loop_abscissa:.3f}")
    conclude(8, "algebraic Riccati equation", failures)


def test_criterion_09_gramian_stabilization():
    failures = []
    stab = lc.gramian_stabilizer([[1.0]], [[1.0]], 2.0)
    if abs(stab.Q[0, 0] - 1.0 / 6.0) > 1e-10 or abs(stab.P[0, 0] - 6.0) > 1e-10:
        failures.append(f"scalar fixture Q={stab.Q[0, 0]:.12f} P={stab.P[0, 0]:.12f}")

    rng = np.random.default_rng(109)
    rates = [0.5, 1.0, 2.0]
    for i in range(50):
        lam = rates[i % 3]
        n, p = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        # shift the spectrum so the prescribed rate is admissible
        while True:
            A = rng.uniform(-1, 1, (n, n))
            A = A + (lam - 0.15 - np.min(np.linalg.eigvals(A).real)) * np.eye(n)
            B = rng.uniform(-1, 1, (n, p))
            if lc.kalman_test(lc.LtiSystem(A, B)).controllable \
                    and minimal_decay_rate(A) < lam:
                break
        stab = lc.gramian_stabilizer(A, B, lam)
        if not stab.closed_loop_abscissa <= -lam + 1e-6:
            failures.append(f"draw {i}: abscissa {stab.closed_loop_abscissa:.4f} "
                            f"vs -{lam}")
        closed = lc.LtiSystem(A + B @ stab.K, B)
        x0 = rng.uniform(-1, 1, n)
        grid = lc.uniform_grid(0.0, 3.0, 601)
        traj = lc.simulate(closed, x0, None, grid)
        V = np.einsum("ki,ij,kj->k", traj.states, stab.P, traj.states)
        bound = np.exp(-2.0 * lam * grid) * V[0] * (1.0 + 1e-6)
        if not np.all(V <= bound):
            worst = np.max(V / np.maximum(bound, 1e-300))
            failures.append(f"draw {i}: Lyapunov decay violated (ratio {worst:.6f})")
    conclude(9, "Gramian stabilization with prescribed decay", failures)


def test_criterion_10_minimum_energy_steering():
    rng = np.random.default_rng(110)
    failures = []
    cfg = ToleranceConfig()
    done = 0
    while done < 100:
        n, p = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        sys = helpers.random_controllable(rng, n, p)
        nodes, E, dE, B_at = helpers.transition_samples(sys, 0.0, 1.0, cfg)
        G = _gramian_from_samples(nodes, E, B_at)
        eigs = np.linalg.eigvalsh(G)
        if eigs[0] <= 0 or eigs[-1] / eigs[0] > 1e8:
            continue  # steering through a near-singular Gramian is ill-posed
        done += 1
        i = done
        x0 = rng.uniform(-1, 1, n)
        x1 = rng.uniform(-1, 1, n)
        control, cost = lc.min_energy_control(sys, 0.0, 1.0, x0, x1)
        traj = lc.simulate(sys, x0, control, lc.uniform_grid(0.0, 1.0, 401))
        gap = np.linalg.norm(traj.final_state() - x1)
        if gap > 1e-6:
            failures.append(f"task {i}: endpoint error {gap:.2e}")

        # perturbations with exactly zero from-zero endpoint, built on the
        # quadrature nodes; optimal cost must stay strictly below
        h = nodes[1] - nodes[0]
        w = simpson_weights(nodes.size - 1) * (h / 3.0)
        F = np.einsum("kij,kjl->kil", E, B_at)          # R(t1,s) B(s)
        z = np.linalg.solve(G, x1 - E[0] @ x0)
        u_base = np.einsum("kil,i->kl", F, z)            # optimal control samples
        accepted = 0
        while accepted < 20:
            channel = int(rng.integers(0, p))
            freq = float(rng.uniform(1.0, 12.0))
            phase = float(rng.uniform(0.0, 2.0 * PI))
            g = np.zeros((nodes.size, p))
            g[:, channel] = np.sin(freq * nodes + phase)
            endpoint = np.einsum("k,kil,kl->i", w, F, g)
            zg = np.linalg.solve(G, endpoint)
            v = g - np.einsum("kil,i->kl", F, zg)
            if float(w @ np.sum(v ** 2, axis=1)) < 1e-4:
                continue  # g fell inside the Gramian family; not a perturbation
            accepted += 1
            j = accepted
            leak = np.einsum("k,kil,kl->i", w, F, v)
            if np.linalg.norm(leak) > 1e-9:
                failures.append(f"task {i}: perturbation {j} endpoint leak")
                continue
            cost_base = float(w @ np.sum(u_base ** 2, axis=1))
            cost_pert = float(w @ np.sum((u_base + v) ** 2, axis=1))
            if not cost_pert > cost_base:
                failures.append(f"task {i}: perturbation {j} not more expensive")
    conclude(10, "minimum-energy steering", failures)


def test_criterion_11_nonlinear_steering():
    failures = []
    vf = fields.pendulum()
    ref = lc.equilibrium_reference(vf, [PI, 0.0], [0.0], 0.0, 1.0)
    res = lc.steer_nonlinear(vf, ref, [PI + 0.05, 0.0], [PI - 0.05, 0.0])
    if not res.converged or res.iterations > 20:
        failures.append(f"converged={res.converged} iterations={res.iterations}")
    if res.terminal_error > 1e-8:
        failures.append(f"terminal error {res.terminal_error:.2e}")
    errs = res.error_history
    for a, b in zip(errs[1:], errs[2:]):
        if not b <= 0.5 * a:
            failures.append(f"contraction ratio {b / a:.3f} after first iterate")
    # the first contraction step must itself be at ratio <= 0.5
    if len(errs) >= 2 and not errs[1] <= 0.5 * errs[0]:
        failures.append(f"ratio {errs[1] / errs[0]:.3f} on the first update")
    conclude(11, "nonlinear local steering", failures)


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path, capsys):
    failures = []
    pend = tmp_path / "pendulum.json"
    pend.write_text(json.dumps({
        "name": "pendulum", "A": [[0, 1], [1, 0]], "B": [[0], [1]],
        "C": [[1, 0]]}))
    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps({
        "name": "scalar", "A": [[0]], "B": [[1]], "C": [[1]]}))
    stuck = tmp_path / "stuck.json"
    stuck.write_text(json.dumps({
        "name": "stuck", "A": [[1, 0], [0, 2]], "B": [[1], [0]]}))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")

    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        codes = [
            cli_main(["analyze", str(pend), "--out-dir", str(out)]),
            cli_main(["are", str(scalar), "--out-dir", str(out)]),
            cli_main(["steer", str(pend), "--t1", "1", "--x0", "0.1,0",
                      "--x1", "0,0", "--out-dir", str(out)]),
        ]
        capsys.readouterr()
        if codes != [0, 0, 0]:
            failures.append(f"unexpected exit codes {codes}")
        blob = b""
        for name in ("pendulum__analyze.json", "scalar__are.json",
                     "pendulum__steer.json", "pendulum__steer.csv"):
            blob += (out / name).read_bytes()
        blobs.append(blob)
    if blobs[0] != blobs[1]:
        failures.append("repeated runs are not byte-identical")

    code = cli_main(["analyze", str(bad), "--out-dir", str(tmp_path)])
    capsys.readouterr()
    if code != 2:
        failures.append(f"malformed input exited {code}, expected 2")
    code = cli_main(["steer", str(stuck), "--t1", "1", "--x0", "0,0",
                     "--x1", "1,1", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    if code != 3:
        failures.append(f"uncontrollable steer exited {code}, expected 3")
    code = cli_main(["are", str(tmp_path / "slow.json"), "--out-dir", str(tmp_path)])
    capsys.readouterr()
    if code != 2:
        failures.append(f"missing file exited {code}, expected 2")
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps({
        "name": "slow", "A": [[0.01]], "B": [[1]], "C": [[1]]}))
    code = cli_main(["are", str(slow), "--initial-horizon", "0.25",
                     "--max-doublings", "1", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    if code != 4:
        failures.append(f"non-convergent are exited {code}, expected 4")
    conclude(12, "CLI determinism and exit codes", failures)
