#!/usr/bin/env python3
"""Minimum-energy steering experiments, linear and nonlinear.

Part 1 sweeps the horizon for the double integrator and reports the
optimal energy <z, Gc z>: short horizons are exponentially expensive.
Part 2 swings the nonlinear pendulum across the upright equilibrium with
the fixed-point iteration built on the linearized Gramian control and
prints the iteration history.
"""

import math
import pathlib

import numpy as np

import lincontrol as lc
from lincontrol import fields

OUT = pathlib.Path(__file__).resolve().parent / "out"


def horizon_sweep():
    print("== double integrator: energy vs horizon ==")
    sys = lc.LtiSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
    x0, x1 = np.zeros(2), np.array([1.0, 0.0])
    rows = []
    for T in (0.25, 0.5, 1.0, 2.0, 4.0):
        control, cost = lc.min_energy_control(sys, 0.0, T, x0, x1)
        traj = lc.simulate(sys, x0, control, lc.uniform_grid(0.0, T, 501))
        gap = np.linalg.norm(traj.final_state() - x1)
        rows.append((T, cost, gap))
        print(f"  T = {T:5.2f}: energy {cost:12.4f}, endpoint error {gap:.2e}")
    with open(OUT / "steering_energy_sweep.csv", "w", newline="\n") as fh:
        fh.write("horizon,energy,endpoint_error\n")
        for T, cost, gap in rows:
            fh.write(",".join(format(v, ".17g") for v in (T, cost, gap)) + "\n")
    print("wrote", OUT / "steering_energy_sweep.csv")


def pendulum_swing():
    print("\n== nonlinear pendulum: swing across upright ==")
    vf = fields.pendulum()
    ref = lc.equilibrium_reference(vf, [math.pi, 0.0], [0.0], 0.0, 1.0)
    x0 = [math.pi + 0.05, 0.0]
    x1 = [math.pi - 0.05, 0.0]
    res = lc.steer_nonlinear(vf, ref, x0, x1)
    print(f"converged: {res.converged} in {res.iterations} passes, "
          f"terminal error {res.terminal_error:.2e}, flow error {res.flow_error:.2e}")
    for k, err in enumerate(res.error_history, start=1):
        print(f"  pass {k}: endpoint miss {err:.3e}")
    res.trajectory.to_csv(OUT / "pendulum_swing.csv")
    print("wrote", OUT / "pendulum_swing.csv")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    horizon_sweep()
    pendulum_swing()
