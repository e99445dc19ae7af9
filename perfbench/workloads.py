"""Task lists of the three workloads.

A task is one operation a user of lincontrol would make: a library call
or an in-process `cli.main` invocation. `run` is the timed part; `check`
runs once per task, outside every timed region, against the oracles;
`fingerprint` lets later passes confirm they returned the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import inputs
import oracles


@dataclass
class Task:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    fingerprint: Callable[[object], bytes]
    counters: Callable[[object], dict] = field(default=lambda out: {})


def digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.digest()


# ---------------------------------------------------------------------------
# are-limit


def are_limit(lc, seed, work: Path):
    tasks = []
    for name, A, B, C, closed in inputs.are_limit_inputs(seed):
        system = lc.LtiSystem(A, B, C)
        tasks.append(Task(
            name=name, kind="are_solve",
            run=lambda s=system: lc.lqr.are_solve(s),
            check=lambda sol, A=A, B=B, C=C, P=closed: oracles.are_solution(A, B, C, sol.P, P),
            fingerprint=lambda sol: digest(sol.P),
            counters=lambda sol: {"lqr.are_solve.sweeps": round(math.log2(sol.horizon_used)) + 1},
        ))
    return tasks


# ---------------------------------------------------------------------------
# trajectories


def trajectories(lc, seed, work: Path):
    spec = inputs.trajectories_inputs(seed)
    tasks = []
    for name, A, B, C, xi in spec["lqr"]:
        prob = lc.LqrProblem(lc.LtiSystem(A, B, C), None, 1.0)
        closed = np.array([[math.tanh(1.0)]]) if name == "lqr-tanh" else None

        def lqr_op(prob=prob, xi=xi):
            ric = lc.lqr.riccati_finite(prob)
            return ric, lc.lqr.lqr_trajectory(prob, ric, xi)

        tasks.append(Task(
            name=name, kind="lqr_finite", run=lqr_op,
            check=lambda out, A=A, B=B, C=C, xi=xi, P=closed: oracles.lqr_run(
                A, B, C, 1.0, xi, out[0].P_samples[0], out[1].cost, P),
            fingerprint=lambda out: digest(out[0].P_samples, out[1].trajectory.states),
        ))

    grid = np.linspace(0.0, 1.0, 1001)
    for name, A, B, x0, x1 in spec["steer"]:
        system = lc.LtiSystem(A, B)

        def steer_op(system=system, x0=x0, x1=x1):
            u, cost = lc.reachability.min_energy_control(system, 0.0, 1.0, x0, x1)
            return u, cost, lc.systems.simulate(system, x0, u, grid)

        tasks.append(Task(
            name=name, kind="steer_linear", run=steer_op,
            check=lambda out, A=A, B=B, x0=x0, x1=x1: oracles.linear_steer(
                A, B, 1.0, x0, x1, out[0].u_of, out[1], out[2].final_state()),
            fingerprint=lambda out: digest(out[2].states, out[2].controls),
        ))

    # The polynomial field is declared in a tolerance config, as a CLI user would.
    poly_name, decl, px0, px1 = spec["poly"]
    config = work / "fields.json"
    config.write_text(json.dumps({"fields": {poly_name: decl}}))
    _, config_fields = lc.cli.load_config(config)
    poly_vf = lc.fields.get_field(poly_name, config_fields)[0]
    pend_vf, upright, u0 = lc.fields.get_field("pendulum")
    nl = [(name, pend_vf, upright, u0, x0, x1, oracles.pendulum_field)
          for name, x0, x1 in spec["pendulum"]]
    nl.append((poly_name, poly_vf, np.zeros(2), np.zeros(1), px0, px1,
               oracles.polynomial_field(decl)))
    for name, vf, xeq, ueq, x0, x1, f in nl:
        def steer_nl_op(vf=vf, xeq=xeq, ueq=ueq, x0=x0, x1=x1):
            ref = lc.nonlinear.equilibrium_reference(vf, xeq, ueq, 0.0, 1.0)
            return lc.nonlinear.steer_nonlinear(vf, ref, x0, x1)

        tasks.append(Task(
            name=name, kind="steer_nl", run=steer_nl_op,
            check=lambda res, f=f, x0=x0, x1=x1: oracles.nonlinear_steer(
                f, 1.0, x0, x1, res.control.u_of, res.error_history, res.converged),
            fingerprint=lambda res: digest(res.trajectory.states, res.error_history),
        ))
    return tasks


# ---------------------------------------------------------------------------
# desk-analysis


def write_system(path: Path, name, A, B, C):
    data = {"name": name, "A": A.tolist(), "B": B.tolist()}
    if C is not None:
        data["C"] = C.tolist()
    path.write_text(json.dumps(data))


def desk_analysis(lc, seed, work: Path):
    spec = inputs.desk_inputs(seed)
    systems = spec["systems"]
    sysdir, outdir = work / "systems", work / "verdicts"
    sysdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (A, B, C, _) in systems.items():
        write_system(sysdir / f"{name}.json", name, A, B, C)

    def cli_op(command, name, *extra):
        argv = [command, str(sysdir / f"{name}.json"), "--out-dir", str(outdir), *extra]

        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = lc.cli.main(argv)
            return code, buf.getvalue()
        return op

    def cli_output(out):
        """(exit code, manifest, verdict results or None, bytes emitted)."""
        code, stdout = out
        manifest = json.loads(stdout)
        files = [Path(p).read_bytes() for p in manifest["outputs"]]
        results = json.loads(files[0])["results"] if files else None
        return code, manifest, results, stdout.encode() + b"".join(files)

    def cli_task(command, name, kind, extra, verdict):
        """verdict(exit code, manifest, verdict results) -> problem or None."""
        return Task(
            name=f"{command}:{name}", kind=kind, run=cli_op(command, name, *extra),
            check=lambda out: verdict(*cli_output(out)[:3]),
            fingerprint=lambda out: cli_output(out)[3],
            counters=lambda out: {"cli.bytes_written": len(cli_output(out)[3])},
        )

    def succeeds(check):
        return lambda code, manifest, results: (
            f"exit {code}: {manifest['errors']}" if code != 0 else check(results))

    def refused(code, manifest, results):
        return oracles.refusal(code, manifest, "UncontrollableError")

    def roots_flag(n):
        return "--roots=" + ",".join(repr(r) for r in inputs.target_roots(n))

    tasks = []
    for name, (A, B, C, rank) in systems.items():
        n = A.shape[0]
        roots = inputs.target_roots(n)
        family = name.partition("-")[0]
        if family in ("ctrl", "planted"):
            tasks.append(cli_task("analyze", name, "analyze", (), succeeds(
                lambda r, A=A, rank=rank: oracles.analysis(r, A, rank))))
        elif family == "gram":
            tasks.append(cli_task("gramian", name, "analyze", ("--t1", "1"), succeeds(
                lambda r, A=A, B=B: oracles.gramian(A, B, 1.0, np.array(r["gramian"])))))
        elif family == "place":
            tasks.append(cli_task("place", name, "synth", (roots_flag(n),), succeeds(
                lambda r, A=A, B=B, roots=roots: oracles.placement(A, B, np.array(r["F"]), roots))))
        elif family == "obs":
            tasks.append(cli_task("observer", name, "synth", (roots_flag(n),), succeeds(
                lambda r, A=A, C=C, roots=roots: oracles.observer(A, C, np.array(r["L"]), roots))))
        elif family == "stab":
            lam = spec["stab"][name]
            tasks.append(cli_task("gramian-stab", name, "synth", (f"--lambda={lam!r}",), succeeds(
                lambda r, A=A, B=B, lam=lam: oracles.stabilizer(
                    A, B, lam, np.array(r["K"]), np.array(r["P"]), np.array(r["Q"])))))
    # The refusal path: synthesis on planted uncontrollable pairs must exit 3.
    small, large = [name for name in systems if name.startswith("planted-")]
    tasks.append(cli_task("place", small, "synth",
                          (roots_flag(systems[small][0].shape[0]),), refused))
    tasks.append(cli_task("gramian-stab", large, "synth", ("--lambda=2.0",), refused))

    for n, A, R in spec["lyap"]:
        tasks.append(Task(
            name=f"lyapunov-n{n}", kind="certify",
            run=lambda A=A, R=R: lc.stability.lyapunov_certificate(A, R),
            check=lambda rep, A=A, R=R: oracles.lyapunov(A, R, rep.lyapunov_Q),
            fingerprint=lambda rep: digest(rep.lyapunov_Q),
        ))
    for n, kind, A, C, expected in spec["detect"]:
        tasks.append(Task(
            name=f"detect-n{n}-{kind}", kind="certify",
            run=lambda A=A, C=C: lc.observability.detectability_test(A, C),
            check=lambda rep, A=A, C=C, e=expected: oracles.detectability(
                A, C, e, rep.detectable, rep.witness_L),
            fingerprint=lambda rep: bytes([rep.detectable]) + (
                b"" if rep.witness_L is None else digest(rep.witness_L)),
        ))
    return tasks


WORKLOADS = {
    "are-limit": are_limit,
    "trajectories": trajectories,
    "desk-analysis": desk_analysis,
}
