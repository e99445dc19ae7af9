"""Command-line front end.

Reads strict-JSON system files, dispatches to the analysis and synthesis
modules, and emits deterministic JSON verdicts (floats in their shortest
round-trip form) and CSV trajectories (floats at 17 significant digits),
with no timestamps. Exit codes:
0 success, 2 parse error, 3 violated precondition, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fields as field_registry
from . import lqr as lqr_mod
from . import nonlinear, observability, reachability, stability, synthesis
from .errors import (
    DimensionError,
    DomainError,
    LinControlError,
    NumericalError,
    PreconditionError,
)
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig
from .systems import ControlSignal, LtiSystem, Trajectory, simulate, uniform_grid, write_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

SYSTEM_KEYS = {"name", "A", "B", "C", "metadata"}
CONFIG_KEYS = {f.name for f in dataclasses.fields(ToleranceConfig)} | {"fields"}


class ParseFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization


def _encode(value):
    """`json.dumps` hook: an array as nested lists, a numpy scalar as its
    Python value, a complex number as [re, im]."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Indented JSON with floats in their shortest round-trip form."""
    try:
        return json.dumps(value, indent=2, allow_nan=False, default=_encode) + "\n"
    except ValueError as exc:
        raise NumericalError("verdict payload overflowed to a non-finite value") from exc


# ---------------------------------------------------------------------------
# input parsing


def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path} is not valid JSON: {exc}") from exc


def load_system(path: Path):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseFailure(f"{path}: top level must be an object")
    unknown = set(data) - SYSTEM_KEYS
    if unknown:
        raise ParseFailure(f"{path}: unknown top-level keys {sorted(unknown)}")
    for key in ("name", "A", "B"):
        if key not in data:
            raise ParseFailure(f"{path}: missing required key {key!r}")
    try:
        sys_obj = LtiSystem(
            np.array(data["A"], dtype=float),
            np.array(data["B"], dtype=float),
            None if "C" not in data else np.array(data["C"], dtype=float),
        )
    except (ValueError, TypeError, DimensionError) as exc:
        raise ParseFailure(f"{path}: bad system matrices: {exc}") from exc
    name = str(data["name"])
    safe = "".join(c if (c.isalnum() or c in "-_") else "_" for c in name)
    return sys_obj, (safe or path.stem)


def load_config(path: Path | None):
    if path is None:
        return DEFAULT_TOLERANCES, {}
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseFailure(f"{path}: config must be an object")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ParseFailure(f"{path}: unknown config keys {sorted(unknown)}")
    extra_fields = data.pop("fields", {})
    try:
        cfg = dataclasses.replace(DEFAULT_TOLERANCES, **data)
    except (TypeError, ValueError) as exc:
        raise ParseFailure(f"{path}: bad tolerance values: {exc}") from exc
    return cfg, extra_fields


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ParseFailure(f"cannot parse {what}={text!r}: {exc}") from exc
    if not np.all(np.isfinite(vec)):
        raise ParseFailure(f"{what}={text!r} has a non-finite entry")
    return vec


# ---------------------------------------------------------------------------
# command implementations; each returns (name, parameters, results, files),
# files a list of (path, write) pairs that `main` writes with write(path)
# once the verdict has serialized


def _traj_path(out_dir: Path, name: str, command: str, suffix: str = "") -> Path:
    stem = f"{name}__{command}{suffix}"
    return out_dir / f"{stem}.csv"


def _analyze_one(sys_obj: LtiSystem, cfg: ToleranceConfig) -> dict:
    ctrl = reachability.kalman_test(sys_obj, cfg)
    hautus = reachability.hautus_test(sys_obj, cfg)
    obs = observability.observability_test(sys_obj.A, sys_obj.C, 1.0, cfg)
    omega = stability.spectral_abscissa(sys_obj.A)
    return {
        "dimensions": {"n": sys_obj.n, "p": sys_obj.p, "m": sys_obj.m},
        "controllable": ctrl.controllable,
        "kalman_rank": ctrl.rank,
        "hautus": [
            {"eigenvalue": [r.eigenvalue.real, r.eigenvalue.imag],
             "rank": r.rank, "pass": r.passed}
            for r in hautus.records
        ],
        "observable": obs.observable,
        "observability_rank": obs.rank,
        "observation_gramian_min_eigenvalue": obs.gramian.min_eigenvalue,
        "spectral_abscissa": omega,
        "stable": omega < -stability.STABILITY_MARGIN,
    }


def cmd_analyze(args, cfg, extra_fields, out_dir: Path):
    if args.dir is None and args.system is None:
        raise ParseFailure("analyze needs a system file or --dir")
    path = Path(args.dir if args.dir is not None else args.system)
    if args.dir is not None or path.is_dir():
        if not path.is_dir():
            raise ParseFailure(f"{path} is not a directory")
        results = {}
        for child in sorted(path.glob("*.json")):
            sys_obj, name = load_system(child)
            results[name] = _analyze_one(sys_obj, cfg)
        params = {"system": str(path), "batch": True}
        name = path.name or "batch"
    else:
        sys_obj, name = load_system(path)
        results = _analyze_one(sys_obj, cfg)
        params = {"system": str(path)}
    return name, params, results, []


def cmd_gramian(args, cfg, extra_fields, out_dir: Path):
    sys_obj, name = load_system(Path(args.system))
    report = reachability.controllability_gramian(sys_obj, args.t0, args.t1, cfg)
    results = {
        "interval": [report.interval[0], report.interval[1]],
        "gramian": report.gramian,
        "min_eigenvalue": report.min_eigenvalue,
        "invertible": report.invertible,
    }
    params = {"system": args.system, "t0": args.t0, "t1": args.t1}
    return name, params, results, []


def cmd_steer(args, cfg, extra_fields, out_dir: Path):
    sys_obj, name = load_system(Path(args.system))
    x0 = _parse_vector(args.x0, "x0")
    x1 = _parse_vector(args.x1, "x1")
    control, cost = reachability.min_energy_control(
        sys_obj, args.t0, args.t1, x0, x1, cfg)
    grid = uniform_grid(args.t0, args.t1, args.points)
    traj = simulate(sys_obj, x0, control, grid, cfg)
    err = float(np.linalg.norm(traj.final_state() - x1))
    csv_path = _traj_path(out_dir, name, "steer")
    results = {
        "predicted_cost": cost,
        "endpoint_error": err,
        "final_state": traj.final_state(),
    }
    params = {"system": args.system, "t0": args.t0, "t1": args.t1,
              "x0": args.x0, "x1": args.x1, "points": args.points}
    return name, params, results, [(csv_path, traj.to_csv)]


def _parse_target(args, n: int) -> synthesis.MonicPolynomial:
    if args.roots is not None:
        try:
            roots = [complex(v) for v in args.roots.split(",")]
            return synthesis.MonicPolynomial.from_roots(roots)
        except ValueError as exc:
            raise ParseFailure(f"bad --roots: {exc}") from exc
    if args.poly is None:
        raise ParseFailure("one of --poly or --roots is required")
    alphas = _parse_vector(args.poly, "poly")
    if alphas.size != n:
        raise ParseFailure(f"--poly needs {n} coefficients, got {alphas.size}")
    return synthesis.MonicPolynomial(degree=n, alphas=alphas)


def cmd_place(args, cfg, extra_fields, out_dir: Path):
    sys_obj, name = load_system(Path(args.system))
    target = _parse_target(args, sys_obj.n)
    gain = synthesis.pole_place(sys_obj.A, sys_obj.B, target, cfg)
    results = {
        "F": gain.F,
        "achieved_spectrum": [[v.real, v.imag] for v in gain.achieved_spectrum],
        "residual": gain.residual,
    }
    params = {"system": args.system, "poly": args.poly, "roots": args.roots}
    return name, params, results, []


def cmd_observer(args, cfg, extra_fields, out_dir: Path):
    sys_obj, name = load_system(Path(args.system))
    target = _parse_target(args, sys_obj.n)
    gain = synthesis.design_observer(sys_obj.A, sys_obj.C, target, cfg)
    results = {"L": gain.L, "closed_loop_abscissa": gain.closed_loop_abscissa}
    params = {"system": args.system, "poly": args.poly, "roots": args.roots}
    return name, params, results, []


def cmd_lqr(args, cfg, extra_fields, out_dir: Path):
    sys_obj, name = load_system(Path(args.system))
    prob = lqr_mod.LqrProblem(sys_obj, None, args.horizon)
    ric = lqr_mod.riccati_finite(prob, cfg)
    n = sys_obj.n
    value = Trajectory(grid=ric.grid, states=ric.P_samples.reshape(ric.grid.size, -1))
    value = value.subsample(args.points)
    value_csv = _traj_path(out_dir, name, "lqr", "_value")
    header = ["t"] + [f"p{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    rows = np.hstack([value.grid[:, None], value.states])
    outputs = [(value_csv, lambda path: write_csv(path, header, rows))]
    results = {
        "horizon": args.horizon,
        "value_at_0": ric.P_samples[0],
        "max_residual": ric.max_residual,
    }
    if args.xi is not None:
        xi = _parse_vector(args.xi, "xi")
        run = lqr_mod.lqr_trajectory(prob, ric, xi)
        traj_csv = _traj_path(out_dir, name, "lqr", "_trajectory")
        outputs.append((traj_csv, run.trajectory.subsample(args.points).to_csv))
        results["cost"] = run.cost
        results["value"] = run.value
    params = {"system": args.system, "horizon": args.horizon,
              "xi": args.xi, "points": args.points}
    return name, params, results, outputs


def cmd_are(args, cfg, extra_fields, out_dir: Path):
    sys_obj, name = load_system(Path(args.system))
    sol = lqr_mod.are_solve(sys_obj, cfg, initial_horizon=args.initial_horizon,
                            max_doublings=args.max_doublings)
    results = {
        "finite_cost_condition": True,  # are_solve raises otherwise
        "P": sol.P,
        "residual": sol.residual,
        "closed_loop_abscissa": sol.closed_loop_abscissa,
        "horizon_used": sol.horizon_used,
    }
    params = {"system": args.system, "initial_horizon": args.initial_horizon,
              "max_doublings": args.max_doublings}
    return name, params, results, []


def cmd_gramian_stab(args, cfg, extra_fields, out_dir: Path):
    sys_obj, name = load_system(Path(args.system))
    stab = synthesis.gramian_stabilizer(sys_obj.A, sys_obj.B, args.lam, cfg)
    results = {
        "decay_rate": stab.decay_rate,
        "Q": stab.Q,
        "P": stab.P,
        "K": stab.K,
        "riccati_residual": stab.riccati_residual,
        "closed_loop_abscissa": stab.closed_loop_abscissa,
    }
    params = {"system": args.system, "lambda": args.lam}
    return name, params, results, []


def cmd_simulate(args, cfg, extra_fields, out_dir: Path):
    sys_obj, name = load_system(Path(args.system))
    x0 = _parse_vector(args.x0, "x0")
    grid = uniform_grid(args.t0, args.t1, args.points)
    control = None
    if args.u is not None:
        uvec = _parse_vector(args.u, "u")
        if uvec.size != sys_obj.p:
            raise ParseFailure(f"--u needs {sys_obj.p} components")
        control = ControlSignal.vectorized(
            args.t0, args.t1, sys_obj.p, lambda t: np.full(np.shape(t) + uvec.shape, uvec))
    traj = simulate(sys_obj, x0, control, grid, cfg)
    csv_path = _traj_path(out_dir, name, "simulate")
    results = {"final_state": traj.final_state()}
    params = {"system": args.system, "t0": args.t0, "t1": args.t1,
              "x0": args.x0, "u": args.u, "points": args.points}
    return name, params, results, [(csv_path, traj.to_csv)]


def cmd_steer_nl(args, cfg, extra_fields, out_dir: Path):
    try:
        vf, xeq, ueq = field_registry.get_field(args.field, extra_fields)
    except (KeyError, ValueError) as exc:
        raise ParseFailure(str(exc)) from exc
    if args.xeq is not None:
        xeq = _parse_vector(args.xeq, "xeq")
    if args.ueq is not None:
        ueq = _parse_vector(args.ueq, "ueq")
    if xeq is None or ueq is None:
        raise ParseFailure(
            f"field {args.field!r} has no default equilibrium; pass --xeq/--ueq")
    x0 = _parse_vector(args.x0, "x0")
    x1 = _parse_vector(args.x1, "x1")
    try:
        ref = nonlinear.equilibrium_reference(vf, xeq, ueq, args.t0, args.t1)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    result = nonlinear.steer_nonlinear(vf, ref, x0, x1, cfg, delta=args.delta)
    csv_path = _traj_path(out_dir, args.field, "steer-nl")
    traj = result.trajectory.subsample(args.points)
    results = {
        "converged": result.converged,
        "iterations": result.iterations,
        "terminal_error": result.terminal_error,
        "error_history": list(result.error_history),
        "final_state": result.trajectory.final_state(),
    }
    params = {"field": args.field, "t0": args.t0, "t1": args.t1,
              "x0": args.x0, "x1": args.x1, "delta": args.delta}
    return args.field, params, results, [(csv_path, traj.to_csv)]


HANDLERS = {
    "analyze": cmd_analyze,
    "gramian": cmd_gramian,
    "steer": cmd_steer,
    "place": cmd_place,
    "observer": cmd_observer,
    "lqr": cmd_lqr,
    "are": cmd_are,
    "gramian-stab": cmd_gramian_stab,
    "simulate": cmd_simulate,
    "steer-nl": cmd_steer_nl,
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _grid_points(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"a grid needs at least two points, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lincontrol",
        description="Analysis and synthesis for finite-dimensional linear "
                    "control systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=True):
        if system:
            p.add_argument("system", help="system JSON file")
        p.add_argument("--config", default=None, help="tolerance config JSON")
        p.add_argument("--out-dir", default=".", help="directory for emitted files")

    p = sub.add_parser("analyze", help="controllability, observability, stability")
    common(p, system=False)
    p.add_argument("system", nargs="?", default=None, help="system JSON file")
    p.add_argument("--dir", default=None, help="analyze every *.json in a directory")

    p = sub.add_parser("gramian", help="controllability Gramian on [t0, t1]")
    common(p)
    p.add_argument("--t0", type=_finite, default=0.0)
    p.add_argument("--t1", type=_finite, required=True)

    p = sub.add_parser("steer", help="minimum-energy steering")
    common(p)
    p.add_argument("--t0", type=_finite, default=0.0)
    p.add_argument("--t1", type=_finite, required=True)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--x1", required=True, help="comma-separated target state")
    p.add_argument("--points", type=_grid_points, default=1001)

    p = sub.add_parser("place", help="state-feedback pole placement")
    common(p)
    p.add_argument("--poly", default=None,
                   help="a1,...,an for target s^n - an s^(n-1) - ... - a1")
    p.add_argument("--roots", default=None, help="comma-separated target roots")

    p = sub.add_parser("observer", help="observer gain by duality")
    common(p)
    p.add_argument("--poly", default=None,
                   help="a1,...,an for target s^n - an s^(n-1) - ... - a1")
    p.add_argument("--roots", default=None, help="comma-separated target roots")

    p = sub.add_parser("lqr", help="finite-horizon value matrix and optimal run")
    common(p)
    p.add_argument("--horizon", type=_finite, required=True)
    p.add_argument("--xi", default=None, help="initial state for the optimal run")
    p.add_argument("--points", type=_grid_points, default=1001, help="CSV sample count")

    p = sub.add_parser("are", help="infinite-horizon value matrix")
    common(p)
    p.add_argument("--initial-horizon", type=_finite, default=1.0)
    p.add_argument("--max-doublings", type=int, default=20)

    p = sub.add_parser("gramian-stab", help="prescribed-decay stabilization")
    common(p)
    p.add_argument("--lambda", dest="lam", type=_finite, required=True,
                   help="prescribed exponential decay rate")

    p = sub.add_parser("simulate", help="open-loop simulation")
    common(p)
    p.add_argument("--t0", type=_finite, default=0.0)
    p.add_argument("--t1", type=_finite, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--u", default=None, help="constant control vector")
    p.add_argument("--points", type=_grid_points, default=1001)

    p = sub.add_parser("steer-nl", help="local steering of a nonlinear field")
    common(p, system=False)
    p.add_argument("--field", required=True)
    p.add_argument("--t0", type=_finite, default=0.0)
    p.add_argument("--t1", type=_finite, default=1.0)
    p.add_argument("--x0", required=True)
    p.add_argument("--x1", required=True)
    p.add_argument("--xeq", default=None, help="reference equilibrium state")
    p.add_argument("--ueq", default=None, help="reference equilibrium control")
    p.add_argument("--delta", type=_finite, default=0.1, help="trust radius")
    p.add_argument("--points", type=_grid_points, default=1001)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `build_parser`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    manifest = {"command": args.command, "parameters": {}, "outputs": [],
                "verdicts": {}, "errors": []}
    exit_code = EXIT_OK
    try:
        cfg, extra_fields = load_config(
            Path(args.config) if args.config else None)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        name, params, results, files = HANDLERS[args.command](
            args, cfg, extra_fields, out_dir)
        manifest["parameters"] = params
        verdict_path = out_dir / f"{name}__{args.command}.json"
        payload = {
            "command": args.command,
            "inputs": params,
            "results": results,
            "errors": [],
        }
        # serialized before any file is written: an overflowed verdict
        # (exit 4) leaves no file behind
        verdict = dumps(payload)
        for path, write in files:
            write(path)
        verdict_path.write_text(verdict)
        manifest["outputs"] = [str(p) for p in [verdict_path, *(path for path, _ in files)]]
        manifest["verdicts"] = {"ok": True}
    except (ParseFailure, DimensionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LinControlError as exc:
        manifest["errors"].append(
            {"type": type(exc).__name__, "message": str(exc)})
        manifest["verdicts"] = {"ok": False}
        exit_code = EXIT_PRECONDITION if isinstance(exc, PreconditionError) else EXIT_NUMERICAL

    sys.stdout.write(dumps(manifest))
    return exit_code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
