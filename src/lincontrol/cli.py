"""Command-line front end.

Reads strict-JSON system files, dispatches to the analysis and synthesis
modules, and emits deterministic JSON verdicts (floats in their shortest
round-trip form) and CSV trajectories (floats at 17 significant digits),
with no timestamps. Exit codes:
0 success, 2 parse error, 3 violated precondition, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fields as field_registry
from . import kernels
from . import lqr as lqr_mod
from . import nonlinear, observability, reachability, stability, synthesis
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    LinControlError,
    NumericalError,
    NumericalInconsistencyError,
    PreconditionError,
)
from .kernels import DEFAULT_TOLERANCES, ToleranceConfig
from .systems import ControlSignal, LtiSystem, Trajectory, simulate, uniform_grid, write_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

# Bound on the `steer` endpoint error, relative to ||x1|| + ||e^{(t1 - t0) A} x0||.
STEER_ENDPOINT_TOL = 1e-6

SYSTEM_KEYS = {"name", "A", "B", "C", "metadata"}
CONFIG_KEYS = {f.name for f in dataclasses.fields(ToleranceConfig)} | {"fields"}


class ParseFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization


def _encode(value):
    """`json.dumps` hook: an array as nested lists, a numpy scalar as its
    Python value, a complex number as [re, im], a dataclass (a library
    report) as its fields in declaration order."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


_quote = json.encoder.encode_basestring_ascii


def _json(value, indent: str) -> str:
    """`value` laid out as `json.dumps(value, indent=2, default=_encode)` lays
    it out at nesting `indent`; dict keys are strings, and a non-finite
    float raises ValueError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not finite")
        return float.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # a row of floats, as ndarray.tolist() gives, in one join
            body = sep.join(map(float.__repr__, value))
        except TypeError:
            body = sep.join([_json(v, inner) for v in value])
        else:
            if "n" in body:  # "inf" or "nan"; no finite repr has an n
                raise ValueError("a row holds a non-finite float")
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_quote(k)}: {_json(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    return _json(_encode(value), indent)


def dumps(value) -> str:
    """Indented JSON, byte for byte `json.dumps(value, indent=2,
    allow_nan=False, default=_encode)`, with floats in their shortest
    round-trip form."""
    try:
        return _json(value, "") + "\n"
    except ValueError as exc:
        raise NumericalError("verdict payload overflowed to a non-finite value") from exc


def _witnesses(exc: LinControlError) -> dict:
    """The numeric fields an exception carries, as JSON values; one that is
    not finite becomes the string "NaN", "Infinity" or "-Infinity"."""
    return json.loads(json.dumps(vars(exc), default=_encode), parse_constant=str)


# ---------------------------------------------------------------------------
# input parsing


def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
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
    if not isinstance(extra_fields, dict):
        raise ParseFailure(f"{path}: fields must be an object of named field declarations")
    try:
        cfg = dataclasses.replace(DEFAULT_TOLERANCES, **data)
    except (TypeError, ValueError) as exc:
        raise ParseFailure(f"{path}: bad tolerance values: {exc}") from exc
    return cfg, extra_fields


def _span(args) -> float:
    """t1 - t0 of the parsed interval, refused where it overflows."""
    span = args.t1 - args.t0
    if not math.isfinite(span):
        raise ParseFailure(f"the interval [{args.t0}, {args.t1}] is longer than the float range")
    return span


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ParseFailure(f"cannot parse {what}={text!r}: {exc}") from exc
    if not np.all(np.isfinite(vec)):
        raise ParseFailure(f"{what}={text!r} has a non-finite entry")
    return vec


# ---------------------------------------------------------------------------
# command implementations; each returns (name, results, csvs): results the
# verdict's dict, or the library's report where the verdict is its fields;
# csvs a list of (suffix, write) pairs that `main` writes with write(path) to
# <name>__<command><suffix>.csv once the verdict has serialized


def _analyze_one(sys_obj: LtiSystem, cfg: ToleranceConfig) -> dict:
    ctrl = reachability.kalman_test(sys_obj, cfg)
    hautus = reachability.hautus_test(sys_obj, cfg)
    obs = observability.observability_test(sys_obj.A, sys_obj.C, 1.0, cfg)
    if ctrl.controllable != hautus.controllable:
        raise NumericalInconsistencyError(
            f"Kalman verdict ({ctrl.controllable}) and Hautus verdict "
            f"({hautus.controllable}) disagree; the pair is too ill-conditioned to classify")
    omega = max(r.eigenvalue.real for r in hautus.records)  # the spectral abscissa
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


def cmd_analyze(args, cfg, extra_fields):
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
        name = path.name or "batch"
    else:
        sys_obj, name = load_system(path)
        results = _analyze_one(sys_obj, cfg)
    return name, results, []


def cmd_gramian(args, cfg, extra_fields):
    sys_obj, name = load_system(Path(args.system))
    _span(args)
    report = reachability.controllability_gramian(sys_obj, args.t0, args.t1, cfg)
    results = {
        "interval": [report.interval[0], report.interval[1]],
        "gramian": report.gramian,
        "min_eigenvalue": report.min_eigenvalue,
        "invertible": report.invertible,
        "lyapunov_residual": report.residual,
    }
    return name, results, []


def cmd_steer(args, cfg, extra_fields):
    sys_obj, name = load_system(Path(args.system))
    x0 = _parse_vector(args.x0, "x0")
    x1 = _parse_vector(args.x1, "x1")
    span = _span(args)
    control, cost = reachability.min_energy_control(
        sys_obj, args.t0, args.t1, x0, x1, cfg)
    grid = uniform_grid(args.t0, args.t1, args.points)
    traj = simulate(sys_obj, x0, control, grid, cfg)
    err = float(np.linalg.norm(traj.final_state() - x1))
    free = kernels.expm(span * sys_obj.A) @ x0
    bound = STEER_ENDPOINT_TOL * float(np.linalg.norm(x1) + np.linalg.norm(free))
    if not err <= bound:
        raise NumericalInconsistencyError(
            f"simulated endpoint misses x1 by {err:.3e}, over {STEER_ENDPOINT_TOL:.0e} of "
            "||x1|| + ||e^{(t1 - t0) A} x0||: the simulation does not resolve the system")
    results = {
        "predicted_cost": cost,
        "endpoint_error": err,
        "final_state": traj.final_state(),
    }
    return name, results, [("", traj.to_csv)]


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


def cmd_place(args, cfg, extra_fields):
    sys_obj, name = load_system(Path(args.system))
    target = _parse_target(args, sys_obj.n)
    return name, synthesis.pole_place(sys_obj.A, sys_obj.B, target, cfg), []


def cmd_observer(args, cfg, extra_fields):
    sys_obj, name = load_system(Path(args.system))
    target = _parse_target(args, sys_obj.n)
    return name, synthesis.design_observer(sys_obj.A, sys_obj.C, target, cfg), []


def cmd_lqr(args, cfg, extra_fields):
    sys_obj, name = load_system(Path(args.system))
    prob = lqr_mod.LqrProblem(sys_obj, None, args.horizon)
    ric = lqr_mod.riccati_finite(prob, cfg)
    n = sys_obj.n
    value = Trajectory(grid=ric.grid, states=ric.P_samples.reshape(ric.grid.size, -1))
    value = value.subsample(args.points)
    header = ["t"] + [f"p{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    rows = np.hstack([value.grid[:, None], value.states])
    csvs = [("_value", lambda path: write_csv(path, header, rows))]
    results = {
        "horizon": args.horizon,
        "value_at_0": ric.P_samples[0],
        "max_residual": ric.max_residual,
    }
    if args.xi is not None:
        xi = _parse_vector(args.xi, "xi")
        run = lqr_mod.lqr_trajectory(prob, ric, xi)
        csvs.append(("_trajectory", run.trajectory.subsample(args.points).to_csv))
        results["cost"] = run.cost
        results["value"] = run.value
    return name, results, csvs


def cmd_are(args, cfg, extra_fields):
    sys_obj, name = load_system(Path(args.system))
    sol = lqr_mod.are_solve(sys_obj, cfg, initial_horizon=args.initial_horizon,
                            max_doublings=args.max_doublings)
    return name, {"finite_cost_condition": True, **_encode(sol)}, []  # are_solve raises otherwise


def cmd_gramian_stab(args, cfg, extra_fields):
    sys_obj, name = load_system(Path(args.system))
    lam = getattr(args, "lambda")
    return name, synthesis.gramian_stabilizer(sys_obj.A, sys_obj.B, lam, cfg), []


def cmd_simulate(args, cfg, extra_fields):
    sys_obj, name = load_system(Path(args.system))
    x0 = _parse_vector(args.x0, "x0")
    _span(args)
    grid = uniform_grid(args.t0, args.t1, args.points)
    control = None
    if args.u is not None:
        uvec = _parse_vector(args.u, "u")
        if uvec.size != sys_obj.p:
            raise ParseFailure(f"--u needs {sys_obj.p} components")
        control = ControlSignal.vectorized(
            args.t0, args.t1, sys_obj.p, lambda t: np.full(np.shape(t) + uvec.shape, uvec))
    traj = simulate(sys_obj, x0, control, grid, cfg)
    results = {"final_state": traj.final_state()}
    return name, results, [("", traj.to_csv)]


def cmd_steer_nl(args, cfg, extra_fields):
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
    _span(args)
    try:
        ref = nonlinear.equilibrium_reference(vf, xeq, ueq, args.t0, args.t1)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    result = nonlinear.steer_nonlinear(vf, ref, x0, x1, cfg, delta=args.delta)
    if not result.converged:
        raise ConvergenceError(
            f"terminal error {result.terminal_error:.3e} above fixed_point_tol = "
            f"{cfg.fixed_point_tol:.1e} after max_iter = {cfg.max_iter} passes",
            history=result.error_history)
    traj = result.trajectory.subsample(args.points)
    results = {
        "converged": result.converged,
        "iterations": result.iterations,
        "terminal_error": result.terminal_error,
        "flow_error": result.flow_error,
        "error_history": list(result.error_history),
        "final_state": result.trajectory.final_state(),
    }
    return args.field, results, [("", traj.to_csv)]


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
    p.add_argument("--lambda", type=_finite, required=True,
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


def _write_fresh(outputs) -> None:
    """write(path) into a new file for each (path, write) of outputs: whatever
    is at path, a file or a link, is unlinked first, so a rerun replaces an
    old output instead of truncating it (and writes through no link). When
    one cannot be written, the files already written are removed, so that
    no output is left without the verdict that lists it."""
    written = []
    try:
        for path, write in outputs:
            path.unlink(missing_ok=True)
            written.append(path)
            write(path)
    except OSError as exc:
        for done in written:
            with contextlib.suppress(OSError):
                done.unlink(missing_ok=True)
        raise ParseFailure(f"cannot write {path}: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # argparse drops a value of "--" (as in --x0=--) and stores an empty list
    empty = [key for key, value in vars(args).items() if isinstance(value, list)]
    if empty:
        print(f"error: --{empty[0].replace('_', '-')} needs a value", file=sys.stderr)
        return EXIT_PARSE

    # one record of the run: the manifest's parameters and the verdict's
    # inputs; out_dir is left out so that reruns elsewhere stay byte identical
    params = {k: v for k, v in vars(args).items() if k not in ("command", "out_dir")}
    manifest = {"command": args.command, "parameters": params, "outputs": [],
                "verdicts": {}, "errors": []}
    exit_code = EXIT_OK
    try:
        cfg, extra_fields = load_config(
            Path(args.config) if args.config else None)
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParseFailure(f"cannot write {out_dir}: {exc}") from exc
        name, results, csvs = HANDLERS[args.command](args, cfg, extra_fields)
        stem = f"{name}__{args.command}"
        verdict_path = out_dir / f"{stem}.json"
        files = [(out_dir / f"{stem}{suffix}.csv", write) for suffix, write in csvs]
        payload = {
            "command": args.command,
            "inputs": params,
            "results": results,
            "errors": [],
        }
        # serialized before any file is written: an overflowed verdict
        # (exit 4) leaves no file behind
        verdict = dumps(payload)
        _write_fresh([*files, (verdict_path, lambda path: path.write_text(verdict))])
        manifest["outputs"] = [str(p) for p in [verdict_path, *(path for path, _ in files)]]
        manifest["verdicts"] = {"ok": True}
    except (ParseFailure, DimensionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LinControlError as exc:
        manifest["errors"].append(
            {"type": type(exc).__name__, "message": str(exc), **_witnesses(exc)})
        manifest["verdicts"] = {"ok": False}
        exit_code = EXIT_PRECONDITION if isinstance(exc, PreconditionError) else EXIT_NUMERICAL

    sys.stdout.write(dumps(manifest))
    return exit_code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
