import contextlib
import dataclasses
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import lincontrol
from lincontrol import cli, kernels, reachability
from lincontrol.cli import main
from lincontrol.errors import DecayRateTooSmallError, DivergenceError
from lincontrol.fields import pendulum

import helpers

PEND = {
    "name": "pendulum-upright",
    "A": [[0, 1], [1, 0]],
    "B": [[0], [1]],
    "C": [[1, 0]],
}
SCALAR = {"name": "scalar", "A": [[0]], "B": [[1]], "C": [[1]]}
DI = {"name": "di", "A": [[0, 1], [0, 0]], "B": [[0], [1]]}
UNCONTROLLABLE = {"name": "stuck", "A": [[1, 0], [0, 2]], "B": [[1], [0]]}
CHAIN = [[0, 1, 0], [0, 0, 1], [-1, 0, 0]]
TWO_INPUTS = {"name": "two-inputs", "A": CHAIN, "B": [[1, 0], [0, 0], [0, 1]]}
TWO_OUTPUTS = {"name": "two-outputs", "A": CHAIN, "B": [[0], [0], [1]],
               "C": [[1, 0, 0], [0, 0, 1]]}


def write(tmp_path, payload, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main(args)


def _in_a_fresh_interpreter(probe):
    """The stdout of `python -c probe` with this checkout's lincontrol first on the path."""
    src = str(Path(lincontrol.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


@pytest.fixture(scope="module")
def scipy_at_import():
    """The `scipy*` modules that `import lincontrol, lincontrol.cli` loads,
    probed once in a fresh interpreter for the import tests below."""
    return _in_a_fresh_interpreter(
        f"import sys, lincontrol, lincontrol.cli; print(*{SCIPY_LOADED})").split()


def test_import_loads_no_scipy(scipy_at_import):
    # a one-shot CLI run starts with no scipy module at all: scipy.linalg
    # is fetched by the first call that needs it
    assert scipy_at_import == []


def test_import_leaves_scipy_integrate_unloaded(scipy_at_import):
    # the CLI's one-shot start pays for no integrator it does not run
    assert "scipy.integrate" not in scipy_at_import


def test_import_leaves_the_heavy_scipy_subpackages_unloaded(scipy_at_import):
    # each of these adds to the start of every CLI run; a function that
    # needs one imports it where it runs
    heavy = ["scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.signal"]
    assert [m for m in heavy if m in scipy_at_import] == []


def test_place_and_observer_run_without_scipy(tmp_path):
    data = Path(__file__).parents[1] / "scripts" / "data"
    runs = [["place", str(data / "double_integrator.json"), "--roots=-1,-2"],
            ["observer", str(data / "pendulum.json"), "--roots=-2,-3"]]
    probe = (
        "import contextlib, io, sys\n"
        "from lincontrol import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv + ['--out-dir', {str(tmp_path)!r}]) for argv in {runs!r}]\n"
        f"print(codes, {SCIPY_LOADED})"
    )
    assert _in_a_fresh_interpreter(probe) == "[0, 0] []"


@pytest.mark.parametrize("command", ["place", "observer"])
def test_a_reduction_lost_to_rounding_exits_4(tmp_path, capsys, command):
    # the pair is controllable (observable); the refusal is numerical
    sys_obj, roots = helpers.reduction_losing_draw(32, 0)
    path = write(tmp_path, {"name": "draw", "A": sys_obj.A.tolist(),
                            "B": sys_obj.B.tolist(), "C": sys_obj.C.tolist()})
    argv = [command, path, "--roots=" + ",".join(map(repr, roots.tolist())),
            "--out-dir", str(tmp_path)]
    assert run(argv) == 4
    error, = json.loads(capsys.readouterr().out)["errors"]
    assert error["type"] == "ConditioningError"
    assert error["message"].startswith("the single-input reduction (A + B F1, B v)")


@pytest.mark.parametrize("argv, expected", [
    (["place", "double_integrator.json", "--roots=-1,-2"], (1, 3, 1, 2, 2)),
    (["observer", "pendulum.json", "--roots=-2,-3"], (1, 3, 1, 2, 2)),
    (["analyze", "pendulum.json"], (0, 2, 4, 1, 0)),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_a_run_decides_once(tmp_path, capsys, monkeypatch, argv, expected):
    # counts of (is_controllable, kalman_matrix, svd, eigvals, inv): the
    # single-input gate is the controller form's, its inverse is reused,
    # the placed spectrum is taken once, observer is place on the dual
    # pair, and analyze reads the spectral abscissa off the Hautus eigenvalues
    command, system, *rest = argv
    path = str(Path(__file__).parents[1] / "scripts" / "data" / system)
    counts = helpers.count_decisions(monkeypatch)
    assert run([command, path, *rest, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert tuple(counts.values()) == expected


@pytest.mark.parametrize("payload, argv", [
    (DI, ["place", "--roots=-1,-2"]),
    (TWO_INPUTS, ["place", "--roots=-1,-2,-3"]),
    (PEND, ["observer", "--roots=-2,-3"]),
    (TWO_OUTPUTS, ["observer", "--roots=-1,-2,-3"]),
    (PEND, ["gramian-stab", "--lambda", "2"]),
], ids=["place-p1", "place-p2", "observer-m1", "observer-m2", "gramian-stab"])
def test_the_controllability_gate_runs_once_per_call(tmp_path, capsys, monkeypatch,
                                                     payload, argv):
    # several inputs' reduced pair (A + B F1, B v) is checked by is_controllable,
    # not by the gate: its failure is a ConditioningError, not the input's fault
    counts = helpers.count_calls(monkeypatch, gate=(reachability, "require_controllable"))
    command, *rest = argv
    assert run([command, write(tmp_path, payload), *rest, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert counts == {"gate": 1}


class TestAnalyze:
    @pytest.mark.parametrize("family, n", [("heat", 8), ("heat", 16), ("heat", 32),
                                           ("wave", 16), ("wave", 32), ("wave", 48)])
    def test_semi_discrete_pdes_are_refused_not_contradicted(self, tmp_path, capsys, family, n):
        # controllable pairs whose Kalman rank drops while every PBH rank is
        # full; heat n = 8 and wave n = 16 fail the observability cross-check
        sys_obj = getattr(helpers, f"{family}_pair")(n)
        path = write(tmp_path, {"name": f"{family}{n}", "A": sys_obj.A.tolist(),
                                "B": sys_obj.B.tolist(), "C": sys_obj.C.tolist()})
        assert run(["analyze", path, "--out-dir", str(tmp_path)]) == 4
        error, = json.loads(capsys.readouterr().out)["errors"]
        assert error["type"] == "NumericalInconsistencyError"
        if (family, n) not in (("heat", 8), ("wave", 16)):
            assert error["message"] == ("Kalman verdict (False) and Hautus verdict (True) "
                                        "disagree; the pair is too ill-conditioned to classify")
        assert not list(tmp_path.glob("*__analyze.json"))

    def test_pendulum_report(self, tmp_path, capsys):
        path = write(tmp_path, PEND)
        code = run(["analyze", path, "--out-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["errors"] == []
        verdict_file = tmp_path / "pendulum-upright__analyze.json"
        assert str(verdict_file) in manifest["outputs"]
        data = json.loads(verdict_file.read_text())
        res = data["results"]
        assert res["controllable"] is True
        assert res["kalman_rank"] == 2
        assert res["observable"] is True
        assert res["stable"] is False
        assert res["spectral_abscissa"] == pytest.approx(1.0)

    def test_batch_directory(self, tmp_path, capsys):
        sub = tmp_path / "batch"
        sub.mkdir()
        write(sub, PEND, "a.json")
        write(sub, SCALAR, "b.json")
        code = run(["analyze", str(sub), "--out-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        verdict = json.loads((tmp_path / "batch__analyze.json").read_text())
        assert set(verdict["results"]) == {"pendulum-upright", "scalar"}


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, PEND)
        blobs = []
        for run_dir in ("r1", "r2"):
            out = tmp_path / run_dir
            assert run(["analyze", path, "--out-dir", str(out)]) == 0
            capsys.readouterr()
            blobs.append((out / "pendulum-upright__analyze.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_are_and_steer_reruns(self, tmp_path, capsys):
        spath = write(tmp_path, SCALAR, "scalar.json")
        dpath = write(tmp_path, DI, "di.json")
        pairs = []
        for run_dir in ("r1", "r2"):
            out = tmp_path / run_dir
            assert run(["are", spath, "--out-dir", str(out)]) == 0
            assert run(["steer", dpath, "--t1", "1", "--x0", "0,0",
                        "--x1", "1,0", "--out-dir", str(out)]) == 0
            capsys.readouterr()
            pairs.append((out / "scalar__are.json").read_bytes()
                         + (out / "di__steer.csv").read_bytes())
        assert pairs[0] == pairs[1]

    def test_a_rerun_replaces_its_outputs(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        out = tmp_path / "out"
        argv = ["simulate", path, "--t1", "1", "--points", "5", "--x0", "1",
                "--out-dir", str(out)]
        files = [out / "scalar__simulate.json", out / "scalar__simulate.csv"]
        assert run(argv) == 0
        first = [f.read_bytes() for f in files]
        links = [tmp_path / f.name for f in files]
        for f, link in zip(files, links):
            os.link(f, link)
        assert run(argv) == 0
        assert [f.read_bytes() for f in files] == first
        assert all(f.stat().st_ino != link.stat().st_ino for f, link in zip(files, links))
        write(tmp_path, {**SCALAR, "A": [[-1]]})
        assert run(argv) == 0
        capsys.readouterr()
        # a truncating rewrite would have changed the linked bytes too
        assert [link.read_bytes() for link in links] == first
        assert all(f.read_bytes() != old for f, old in zip(files, first))

    def test_a_link_at_an_output_path_is_replaced_not_followed(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        out = tmp_path / "out"
        out.mkdir()
        files = [out / "scalar__simulate.json", out / "scalar__simulate.csv"]
        targets = [tmp_path / f"target-{f.name}" for f in files]
        for f, target in zip(files, targets):
            target.write_text("keep")
            f.symlink_to(target)
        assert run(["simulate", path, "--t1", "1", "--points", "5", "--x0", "1",
                    "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert not any(f.is_symlink() for f in files)
        assert json.loads(files[0].read_text())["command"] == "simulate"
        assert [target.read_text() for target in targets] == ["keep", "keep"]

    def test_parser_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        path = write(tmp_path, SCALAR)
        assert run(["gramian", path, "--t1", "1", "--out-dir", str(tmp_path)]) == 0
        assert run(["gramian", path]) == 2  # --t1 required
        assert "required: --t1" in capsys.readouterr().err
        assert len(built) == 1


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The argument lists of the README's command-line block, run from the
    repository root."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines()]


def parsed(argv):
    """The parsed arguments of argv, less the command and the output directory."""
    return {k: v for k, v in vars(cli.build_parser().parse_args(argv)).items()
            if k not in ("command", "out_dir")}


class TestRunRecord:
    """The verdict's inputs and the manifest's parameters are one record:
    the parsed arguments, less the command and the output directory."""

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_inputs_are_the_parsed_arguments(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(README.parent)
        argv = [*argv, "--out-dir", str(tmp_path)]
        assert run(argv) == 0
        manifest = json.loads(capsys.readouterr().out)
        verdict = json.loads(Path(manifest["outputs"][0]).read_text())
        assert verdict["inputs"] == manifest["parameters"] == parsed(argv)
        assert "out_dir" not in verdict["inputs"]

    def test_steer_nl_records_its_reference_and_config(self, tmp_path, capsys):
        config = tmp_path / "tol.json"
        config.write_text(json.dumps({"ode_step": 0.002}))
        assert run(["steer-nl", "--field", "pendulum", "--x0", f"{math.pi + 0.05},0",
                    "--x1", f"{math.pi - 0.05},0", f"--xeq={math.pi},0", "--ueq", "0",
                    "--points", "11", "--config", str(config),
                    "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        inputs = json.loads((tmp_path / "pendulum__steer-nl.json").read_text())["inputs"]
        assert inputs == manifest["parameters"]
        assert {key: inputs[key] for key in ("xeq", "ueq", "points", "config")} == {
            "xeq": f"{math.pi},0", "ueq": "0", "points": 11, "config": str(config)}

    @pytest.mark.parametrize("payload, argv, code, want", [
        (UNCONTROLLABLE, ["steer", "--t1", "1", "--x0", "0,0", "--x1", "1,1"], 3,
         {"t0": 0.0, "t1": 1.0, "x0": "0,0", "x1": "1,1", "points": 1001}),
        ({"name": "slow", "A": [[0.01]], "B": [[1]], "C": [[1]]},
         ["are", "--initial-horizon", "0.25", "--max-doublings", "1"], 4,
         {"initial_horizon": 0.25, "max_doublings": 1}),
    ], ids=["steer-3", "are-4"])
    def test_a_refused_run_records_its_parameters(self, tmp_path, capsys, payload, argv,
                                                  code, want):
        path = write(tmp_path, payload)
        assert run([argv[0], path, *argv[1:], "--out-dir", str(tmp_path)]) == code
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["verdicts"] == {"ok": False}
        assert manifest["parameters"] == {"system": path, "config": None, **want}


class TestWitnesses:
    """A refusal's manifest error carries the numeric fields of its exception."""

    def refusal(self, tmp_path, capsys, payload, argv, code):
        path = write(tmp_path, payload)
        assert run([argv[0], path, *argv[1:], "--out-dir", str(tmp_path)]) == code
        (error,) = json.loads(capsys.readouterr().out)["errors"]
        return error

    def test_min_eigenvalue(self, tmp_path, capsys):
        error = self.refusal(tmp_path, capsys, UNCONTROLLABLE,
                             ["steer", "--t1", "1", "--x0", "0,0", "--x1", "1,1"], 3)
        assert error["type"] == "UncontrollableIntervalError"
        assert abs(error["min_eigenvalue"]) <= 1e-12

    def test_bad_eigenvalue(self, tmp_path, capsys):
        # mode 2 is unstable and out of reach of B
        error = self.refusal(tmp_path, capsys, UNCONTROLLABLE, ["are"], 3)
        assert error["type"] == "FiniteCostViolationError"
        assert error["bad_eigenvalue"] == pytest.approx([2.0, 0.0], abs=1e-12)

    def test_minimal_rate(self, tmp_path, capsys):
        error = self.refusal(tmp_path, capsys, {"name": "fast", "A": [[-3]], "B": [[1]]},
                             ["gramian-stab", "--lambda", "1"], 3)
        assert error["type"] == "DecayRateTooSmallError"
        assert error["minimal_rate"] == pytest.approx(3.0)

    def test_history(self, tmp_path, capsys):
        # x2' = 10 x1^2 + x1 + u: the fixed-point iterate leaves the trust ball
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fields": {"quad": {
            "state_dim": 2, "control_dim": 1,
            "rhs": [[{"coeff": 1.0, "x": [0, 1], "u": [0]}],
                    [{"coeff": 10.0, "x": [2, 0], "u": [0]},
                     {"coeff": 1.0, "x": [1, 0], "u": [0]},
                     {"coeff": 1.0, "x": [0, 0], "u": [1]}]],
        }}}))
        assert run(["steer-nl", "--field", "quad", "--x0", "0.3,0", "--x1", "0.3,0",
                    "--xeq", "0,0", "--ueq", "0", "--delta", "0.35", "--config", str(config),
                    "--out-dir", str(tmp_path)]) == 4
        (error,) = json.loads(capsys.readouterr().out)["errors"]
        assert error["type"] == "DivergenceError"
        assert len(error["history"]) >= 1
        assert all(isinstance(e, float) and e > 0 for e in error["history"])

    @pytest.mark.parametrize("payload, argv", [
        (SCALAR, ["are", "--initial-horizon", "1e308"]),
        ({"name": "slow", "A": [[0.01]], "B": [[1]], "C": [[1]]},
         ["are", "--initial-horizon", "0.25", "--max-doublings", "1"]),
    ], ids=["float-range", "unsettled"])
    def test_are_history_is_empty(self, tmp_path, capsys, payload, argv):
        # the horizon doubling keeps no per-pass errors
        error = self.refusal(tmp_path, capsys, payload, argv, 4)
        assert list(error) == ["type", "message", "history"]
        assert error["type"] == "ConvergenceError" and error["history"] == []

    def test_linearization_min_eigenvalue(self, tmp_path, capsys):
        assert run(["steer-nl", "--field", "pendulum", "--t1", "1e-300", "--x0", "3.15,0",
                    "--x1", "3.14,0", "--out-dir", str(tmp_path)]) == 3
        (error,) = json.loads(capsys.readouterr().out)["errors"]
        assert list(error) == ["type", "message", "min_eigenvalue"]
        assert error["type"] == "LinearTestInapplicableError"
        assert abs(error["min_eigenvalue"]) <= 1e-12

    @pytest.mark.parametrize("exc, code, field, want", [
        (DecayRateTooSmallError("no rate", minimal_rate=math.nan), 3, "minimal_rate", "NaN"),
        (DivergenceError("diverged", history=[0.5, math.inf, -math.inf]), 4, "history",
         [0.5, "Infinity", "-Infinity"]),
    ], ids=["nan-3", "inf-4"])
    def test_a_witness_that_is_not_finite_is_a_string(self, tmp_path, capsys, monkeypatch,
                                                      exc, code, field, want):
        def refuse(args, cfg, extra_fields):
            raise exc

        monkeypatch.setitem(cli.HANDLERS, "are", refuse)
        path = write(tmp_path, SCALAR)
        assert run(["are", path, "--out-dir", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["errors"][0][field] == want


class TestCommands:
    def test_are_scalar_unit(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        assert run(["are", path, "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "scalar__are.json").read_text())
        assert data["results"]["P"][0][0] == pytest.approx(1.0, abs=1e-8)

    def test_steer_reaches_target(self, tmp_path, capsys):
        path = write(tmp_path, DI)
        assert run(["steer", path, "--t1", "1", "--x0", "0,0", "--x1", "1,0",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "di__steer.csv").read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,u1"
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[1] - 1.0) <= 1e-6 and abs(last[2]) <= 1e-6

    def test_gramian(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        assert run(["gramian", path, "--t1", "1", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "scalar__gramian.json").read_text())
        assert data["results"]["gramian"][0][0] == pytest.approx(1.0, abs=1e-9)
        assert data["results"]["invertible"] is True

    def test_gramian_reports_its_lyapunov_residual(self, tmp_path, capsys):
        path = write(tmp_path, PEND)
        assert run(["gramian", path, "--t1", "5", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "pendulum-upright__gramian.json").read_text())
        assert 0.0 <= data["results"]["lyapunov_residual"] <= 1e-14

    def test_place_double_integrator(self, tmp_path, capsys):
        path = write(tmp_path, DI)
        assert run(["place", path, "--poly=-1,-2",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "di__place.json").read_text())
        F = np.array(data["results"]["F"])
        assert np.abs(F - [[-1.0, -2.0]]).max() < 1e-9

    def test_place_by_roots(self, tmp_path, capsys):
        path = write(tmp_path, DI)
        assert run(["place", path, "--roots=-1,-1",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "di__place.json").read_text())
        F = np.array(data["results"]["F"])
        assert np.abs(F - [[-1.0, -2.0]]).max() < 1e-9

    def test_observer(self, tmp_path, capsys):
        path = write(tmp_path, PEND)
        assert run(["observer", path, "--roots=-2,-3",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "pendulum-upright__observer.json").read_text())
        assert data["results"]["closed_loop_abscissa"] == pytest.approx(-2.0, abs=1e-6)

    @pytest.mark.parametrize("m", [1, 2])
    def test_observer_is_place_on_the_dual_file(self, tmp_path, capsys, rng, m):
        # L = F^T and the abscissa read off the placed spectrum, exactly
        for i in range(15):
            n = int(rng.integers(1, 6))
            A, C = helpers.random_observable(rng, n, m)
            roots = "--roots=" + ",".join(map(repr, (-rng.uniform(0.5, 3.0, n)).tolist()))
            primal = write(tmp_path, {"name": f"obs{i}", "A": A.tolist(),
                                      "B": np.zeros((n, 1)).tolist(), "C": C.tolist()})
            dual = write(tmp_path, {"name": f"dual{i}", "A": A.T.tolist(), "B": C.T.tolist()},
                         "dual.json")
            assert run(["observer", primal, roots, "--out-dir", str(tmp_path)]) == 0
            assert run(["place", dual, roots, "--out-dir", str(tmp_path)]) == 0
            capsys.readouterr()
            obs = json.loads((tmp_path / f"obs{i}__observer.json").read_text())["results"]
            placed = json.loads((tmp_path / f"dual{i}__place.json").read_text())["results"]
            assert np.array(obs["L"]).tolist() == np.array(placed["F"]).T.tolist()
            assert obs["closed_loop_abscissa"] == max(re for re, _ in placed["achieved_spectrum"])

    def test_lqr_emits_value_and_trajectory(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        assert run(["lqr", path, "--horizon", "1", "--xi", "1",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "scalar__lqr.json").read_text())
        assert data["results"]["value_at_0"][0][0] == pytest.approx(
            math.tanh(1.0), abs=1e-8)
        assert data["results"]["cost"] == pytest.approx(math.tanh(1.0), abs=1e-6)
        assert (tmp_path / "scalar__lqr_value.csv").exists()
        assert (tmp_path / "scalar__lqr_trajectory.csv").exists()

    def test_lqr_writes_no_negative_zero(self, tmp_path, capsys):
        # the last control of the README run, -P(T) x(T) with P(T) = 0, read -0
        path = write(tmp_path, SCALAR)
        assert run(["lqr", path, "--horizon", "1", "--xi", "1",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        last = (tmp_path / "scalar__lqr_trajectory.csv").read_text().split("\n")[-2]
        assert last == "1,0.64805427366395296,0"

    def test_lqr_reports_the_value_beside_the_cost(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        assert run(["lqr", path, "--horizon", "1", "--xi", "2",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        res = json.loads((tmp_path / "scalar__lqr.json").read_text())["results"]
        assert res["value"] == 4.0 * res["value_at_0"][0][0]
        assert res["cost"] == pytest.approx(res["value"], rel=1e-12)

    def test_lqr_unresolved_closed_loop_is_4(self, tmp_path, capsys):
        # x' = u, C = 1e3: the closed loop decays by e^{-1/2} per Riccati
        # sample, and Simpson's rule misses the value xi^T P(0) xi
        path = write(tmp_path, {"name": "stiff", "A": [[0]], "B": [[1]], "C": [[1e3]]})
        assert run(["lqr", path, "--horizon", "1", "--xi", "1",
                    "--out-dir", str(tmp_path)]) == 4
        error = json.loads(capsys.readouterr().out)["errors"][0]
        assert error["type"] == "NumericalInconsistencyError"
        assert "value identity" in error["message"]
        assert not (tmp_path / "stiff__lqr_trajectory.csv").exists()

    def test_gramian_stab(self, tmp_path, capsys):
        payload = {"name": "unstable", "A": [[1]], "B": [[1]]}
        path = write(tmp_path, payload)
        assert run(["gramian-stab", path, "--lambda", "2",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "unstable__gramian-stab.json").read_text())
        assert data["results"]["P"][0][0] == pytest.approx(6.0, abs=1e-9)

    def test_simulate_constant_control(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        assert run(["simulate", path, "--t1", "1", "--x0", "0", "--u", "1",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "scalar__simulate.csv").read_text().strip().split("\n")
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == pytest.approx(1.0, abs=1e-10)

    def test_steer_nl_pendulum(self, tmp_path, capsys):
        assert run(["steer-nl", "--field", "pendulum", "--t1", "1",
                    "--x0", f"{math.pi + 0.05},0", "--x1", f"{math.pi - 0.05},0",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "pendulum__steer-nl.json").read_text())
        assert data["results"]["converged"] is True
        assert data["results"]["terminal_error"] <= 1e-8
        assert 0.0 <= data["results"]["flow_error"] < 1e-9

    def test_steer_nl_polynomial_field_from_config(self, tmp_path, capsys):
        config = {
            "fields": {
                "cubic": {
                    "state_dim": 2, "control_dim": 1,
                    "rhs": [
                        [{"coeff": 1.0, "x": [0, 1], "u": [0]}],
                        [{"coeff": -0.5, "x": [3, 0], "u": [0]},
                         {"coeff": 1.0, "x": [0, 0], "u": [1]}],
                    ],
                }
            }
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        assert run(["steer-nl", "--field", "cubic", "--t1", "1",
                    "--x0", "0.02,0", "--x1", "0,0.01",
                    "--xeq", "0,0", "--ueq", "0",
                    "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "cubic__steer-nl.json").read_text())
        assert data["results"]["converged"] is True

    def test_lqr_subsample_ends_at_the_horizon(self, tmp_path, capsys):
        # every 333rd of 2,001 samples stops at t = 0.999, short of P(T) = P0 = 0
        path = write(tmp_path, SCALAR)
        assert run(["lqr", path, "--horizon", "1", "--xi", "1", "--points", "7",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        for name in ("scalar__lqr_value.csv", "scalar__lqr_trajectory.csv"):
            rows = (tmp_path / name).read_text().strip().split("\n")[1:]
            times = [float(r.split(",")[0]) for r in rows]
            assert times == pytest.approx([0.0, 0.1665, 0.333, 0.4995, 0.666, 0.8325, 0.999, 1.0])
            assert times[-1] == 1.0
        last = (tmp_path / "scalar__lqr_value.csv").read_text().strip().split("\n")[-1]
        assert float(last.split(",")[1]) == 0.0

    def test_steer_nl_subsample_ends_at_the_target(self, tmp_path, capsys):
        # every 166th of 1,001 grid points stops at t = 0.996, 4.9e-7 off x1
        assert run(["steer-nl", "--field", "pendulum", "--x0", "3.15,0", "--x1", "3.14,0",
                    "--points", "7", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = (tmp_path / "pendulum__steer-nl.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 8
        t, x1, x2, _ = (float(v) for v in rows[-1].split(","))
        assert t == 1.0
        assert abs(x1 - 3.14) <= 1e-9 and abs(x2) <= 1e-9


class TestVerdictIsTheReport:
    """The results of are, place, observer and gramian-stab are the fields
    of the library's report, in declaration order."""

    @pytest.mark.parametrize("argv, report, lead", [
        (["are"], lincontrol.AreSolution, ["finite_cost_condition"]),
        (["place", "--roots=-1,-2"], lincontrol.FeedbackGain, []),
        (["observer", "--roots=-1,-2"], lincontrol.ObserverGain, []),
        (["gramian-stab", "--lambda", "2"], lincontrol.GramianStabilizer, []),
    ], ids=["are", "place", "observer", "gramian-stab"])
    def test_results_keys_are_the_report_fields(self, tmp_path, capsys, argv, report, lead):
        path = write(tmp_path, PEND)
        assert run([argv[0], path, *argv[1:], "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / f"pendulum-upright__{argv[0]}.json").read_text())
        fields = [f.name for f in dataclasses.fields(report)]
        assert list(data["results"]) == lead + fields

    def test_real_spectrum_is_written_as_pairs(self, tmp_path, capsys):
        path = write(tmp_path, DI)
        assert run(["place", path, "--roots=-1,-2", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "di__place.json").read_text())
        spectrum = sorted(data["results"]["achieved_spectrum"])
        assert [len(v) for v in spectrum] == [2, 2]
        assert np.abs(np.array(spectrum) - [[-2.0, 0.0], [-1.0, 0.0]]).max() < 1e-9

    def test_library_spectrum_is_complex(self):
        gain = lincontrol.pole_place(np.array(DI["A"], float), np.array(DI["B"], float),
                                     lincontrol.MonicPolynomial.from_roots([-1.0, -2.0]))
        assert gain.achieved_spectrum.dtype == complex


class TestFloatTypes:
    def test_integral_floats_stay_floats(self, tmp_path, capsys):
        # each of these values is integral on the scalar system
        path = str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json")
        assert run(["gramian", path, "--t1", "1", "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert type(manifest["parameters"]["t0"]) is float
        gramian = json.loads((tmp_path / "scalar__gramian.json").read_text())
        assert gramian["results"]["gramian"] == [[1.0]]
        assert type(gramian["results"]["gramian"][0][0]) is float
        assert run(["steer", path, "--t1", "1", "--x0", "1", "--x1", "0",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        steer = json.loads((tmp_path / "scalar__steer.json").read_text())
        assert steer["results"]["predicted_cost"] == 1.0
        assert type(steer["results"]["predicted_cost"]) is float

    def test_floats_round_trip(self):
        values = [0.1, 1 / 3, 1e-300, 2.5e300, -0.0, 1.0, np.float32(0.5)]
        assert json.loads(cli.dumps(values)) == [float(v) for v in values]
        assert cli.dumps({"a": [], "b": {}, "z": 1 + 2j}) == (
            '{\n  "a": [],\n  "b": {},\n  "z": [\n    1.0,\n    2.0\n  ]\n}\n')
        with pytest.raises(cli.NumericalError, match="overflowed"):
            cli.dumps({"x": np.array([1.0, np.inf])})


@dataclasses.dataclass
class Report:
    gain: object
    spectrum: object


def stdlib_dumps(value):
    """The layout `cli.dumps` reproduces, by the standard `json` encoder."""
    return json.dumps(value, indent=2, allow_nan=False, default=cli._encode) + "\n"


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, 1e308, 0.1]))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FINITE, st.text(),
    st.sampled_from(["\u00e9\u2211\U0001f600", "\x00\x1f\"\\\n\t\x7f"]),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
               elements=FINITE),
)
PAYLOADS = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(), children, max_size=4),
    st.builds(Report, children, children),
), max_leaves=24)
NON_FINITE = st.builds(
    lambda x, form: form(x), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([float, np.float64, np.float32, np.array, lambda x: complex(0.0, x),
                     lambda x: np.array([[0.5, x]]), lambda x: [0.5, x],
                     lambda x: Report(x, 1)]))
# a payload holding one non-finite value at any depth
OVERFLOWED = st.recursive(NON_FINITE, lambda inner: st.one_of(
    st.builds(lambda left, bad, right: [*left, bad, *right],
              st.lists(PAYLOADS, max_size=2), inner, st.lists(PAYLOADS, max_size=2)),
    st.builds(lambda d, key, bad: {**d, key: bad},
              st.dictionaries(st.text(), PAYLOADS, max_size=2), st.text(), inner),
), max_leaves=4)


class TestEncoder:
    @settings(max_examples=200, deadline=None)
    @given(value=PAYLOADS)
    def test_dumps_is_the_stdlib_layout(self, value):
        assert cli.dumps(value) == stdlib_dumps(value)

    @settings(max_examples=100, deadline=None)
    @given(value=OVERFLOWED)
    def test_a_non_finite_value_is_refused(self, value):
        with pytest.raises(ValueError):
            stdlib_dumps(value)
        with pytest.raises(cli.NumericalError, match="overflowed to a non-finite value"):
            cli.dumps(value)


class TestExitCodes:
    def test_malformed_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["analyze", str(path), "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_unknown_key_is_2(self, tmp_path, capsys):
        path = write(tmp_path, {**SCALAR, "D": [[0]]})
        assert run(["analyze", path, "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_ragged_matrix_is_2(self, tmp_path, capsys):
        path = write(tmp_path, {"name": "x", "A": [[0, 1], [1]], "B": [[1], [0]]})
        assert run(["analyze", path, "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_missing_flag_is_2(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        assert run(["gramian", path]) == 2  # --t1 required
        capsys.readouterr()

    def test_uncontrollable_steer_is_3(self, tmp_path, capsys):
        path = write(tmp_path, UNCONTROLLABLE)
        code = run(["steer", path, "--t1", "1", "--x0", "0,0", "--x1", "1,1",
                    "--out-dir", str(tmp_path)])
        assert code == 3
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["errors"][0]["type"] == "UncontrollableIntervalError"

    def test_place_uncontrollable_is_3(self, tmp_path, capsys):
        path = write(tmp_path, UNCONTROLLABLE)
        assert run(["place", path, "--roots=-1,-2",
                    "--out-dir", str(tmp_path)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("C", [[[1, 0, 0]], [[1, 0, 0], [0, 1, 0]]], ids=["m=1", "m=2"])
    def test_observer_unobservable_is_3(self, tmp_path, capsys, C):
        path = write(tmp_path, {"name": "hidden", "A": np.diag([1, 2, 3]).tolist(),
                                "B": [[1], [1], [1]], "C": C})
        assert run(["observer", path, "--roots=-1,-2,-3", "--out-dir", str(tmp_path)]) == 3
        error, = json.loads(capsys.readouterr().out)["errors"]
        assert (error["type"], error["message"]) == ("UnobservableError",
                                                     "(A, C) is not observable")

    def test_place_overflow_is_4(self, tmp_path, capsys):
        payload = {"name": "huge", "A": [[0, 1], [1e308, 0]], "B": [[0], [1]]}
        path = write(tmp_path, payload)
        assert run(["place", path, "--poly=-1.7e308,0",
                    "--out-dir", str(tmp_path)]) == 4
        out, err = capsys.readouterr()
        assert json.loads(out)["errors"][0]["type"] == "ConditioningError"
        assert "Traceback" not in err

    def test_lambda_too_small_is_3(self, tmp_path, capsys):
        payload = {"name": "fast", "A": [[-3]], "B": [[1]]}
        path = write(tmp_path, payload)
        assert run(["gramian-stab", path, "--lambda", "1",
                    "--out-dir", str(tmp_path)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("lam", ["1e154", "1e200", "1e307", "1e308"])
    def test_huge_decay_rate_is_0_or_4_without_warning(self, tmp_path, capsys, lam):
        # P B = 2 lam on A = 0, B = 1 squares past the float range
        path = write(tmp_path, SCALAR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["gramian-stab", path, "--lambda", lam, "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code in (0, 4) and "Traceback" not in err
        if code == 4:
            assert json.loads(out)["errors"][0]["type"] in ("ConditioningError", "NumericalError")

    @pytest.mark.parametrize("lam", ["1e200", "1e300"])
    def test_huge_decay_rate_is_0_with_the_exact_gain(self, tmp_path, capsys, lam):
        path = write(tmp_path, SCALAR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["gramian-stab", path, "--lambda", lam, "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        gain = json.loads((tmp_path / "scalar__gramian-stab.json").read_text())["results"]["K"]
        assert abs(gain[0][0] + 2.0 * float(lam)) <= 1e-12 * 2.0 * float(lam)

    def test_are_nonconvergence_is_4(self, tmp_path, capsys):
        payload = {"name": "slow", "A": [[0.01]], "B": [[1]], "C": [[1]]}
        path = write(tmp_path, payload)
        code = run(["are", path, "--initial-horizon", "0.25",
                    "--max-doublings", "1", "--out-dir", str(tmp_path)])
        assert code == 4
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["errors"][0]["type"] == "ConvergenceError"

    def test_are_horizon_past_the_float_range_is_4(self, tmp_path, capsys):
        # P = 1 had converged, and horizon_used = 2e308 overflowed the verdict
        path = str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json")
        assert run(["are", path, "--initial-horizon", "1e308",
                    "--out-dir", str(tmp_path)]) == 4
        out, err = capsys.readouterr()
        error = json.loads(out)["errors"][0]
        assert error["type"] == "ConvergenceError"
        assert "horizon 1e+308" in error["message"] and "float range" in error["message"]
        assert "Traceback" not in err

    def test_are_horizon_that_doubles_once_is_0(self, tmp_path, capsys):
        path = str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json")
        assert run(["are", path, "--initial-horizon", "1e307",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        results = json.loads((tmp_path / "scalar__are.json").read_text())["results"]
        assert results["horizon_used"] == 2e307

    @pytest.mark.parametrize("delta", ["-1", "0"])
    def test_trust_radius_not_positive_is_2(self, tmp_path, capsys, delta):
        # these ran the steering setup and exited 3 with TrustRegionError
        assert run(["steer-nl", "--field", "pendulum", "--x0", "3.15,0", "--x1", "3.14,0",
                    f"--delta={delta}", "--out-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert not out and "trust radius must be positive" in err and "Traceback" not in err
        vf = pendulum()
        ref = lincontrol.equilibrium_reference(vf, [math.pi, 0.0], [0.0], 0.0, 1.0)
        with pytest.raises(lincontrol.DomainError):
            lincontrol.steer_nonlinear(vf, ref, [0.0, 0.0], [math.pi, 0.0], delta=float(delta))

    def test_overflowed_lqr_value_is_4(self, tmp_path, capsys):
        # this blamed the Riccati spacing for a cost and value of inf
        path = str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json")
        assert run(["lqr", path, "--horizon", "1", "--xi", "1e200",
                    "--out-dir", str(tmp_path)]) == 4
        out, err = capsys.readouterr()
        error = json.loads(out)["errors"][0]
        assert error["type"] == "NumericalError" and "overflows" in error["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "pendulum.json", "--x0", "1,0"],
        ["steer", "scalar.json", "--x0", "0", "--x1", "1"]])
    def test_path_past_the_budget_is_2(self, tmp_path, capsys, monkeypatch, argv):
        # at --t1 1e9 these allocated 7 TiB (simulate) or grew the adjoint
        # until killed (steer); the budget is lowered here so that a missing
        # check costs 10^5 substeps, not 10^12
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 10 ** 4)
        command, system, *rest = argv
        path = str(Path(__file__).parents[1] / "scripts" / "data" / system)
        assert run([command, path, "--t1", "100", *rest, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "entries, over MAX_PATH_ENTRIES = 10000" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["simulate", "--x0", "1", "--t1", "1e300"],
        ["steer", "--x0", "0", "--x1", "1", "--t1", "1e300"],
        ["lqr", "--horizon", "1e300"]], ids=lambda argv: argv[0])
    def test_float_range_budget_refusal_is_short(self, tmp_path, capsys, argv):
        # counts of 10^303 steps print in e-notation, not as 300 digits
        command, *rest = argv
        path = str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json")
        assert run([command, path, *rest, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "e+303 entries" in err and len(err.encode()) < 200

    def test_constant_gramian_past_the_budget_is_0(self, tmp_path, capsys, monkeypatch):
        # the flow-triple Gramian stores nothing per node
        monkeypatch.setattr(kernels, "MAX_PATH_ENTRIES", 10 ** 4)
        path = str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json")
        assert run(["gramian", path, "--t1", "1e9", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag, lengths", [
        (["--ueq", "0,0"], "got 2 and 2"),
        (["--xeq", "0,0,0"], "got 3 and 1"),
        (["--ueq", "1,2"], "got 2 and 2")])
    def test_wrong_length_equilibrium_is_2(self, tmp_path, capsys, flag, lengths):
        # --ueq 0,0 used to exit 0 with a two-column control for one input
        assert run(["steer-nl", "--field", "pendulum", "--x0", "3.2,0", "--x1", "3.1,0",
                    *flag, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"x_eq and u_eq must have lengths 2 and 1, {lengths}" in err
        assert not list(tmp_path.iterdir())

    def test_steer_nl_nonconvergence_is_4(self, tmp_path, capsys):
        # one pass of the README swing leaves 4.1e-6 against fixed_point_tol 1e-9
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({"max_iter": 1}))
        assert run(["steer-nl", "--field", "pendulum", "--t1", "1",
                    "--x0", f"{math.pi + 0.05},0", "--x1", f"{math.pi - 0.05},0",
                    "--config", str(cpath), "--out-dir", str(tmp_path)]) == 4
        error = json.loads(capsys.readouterr().out)["errors"][0]
        assert error["type"] == "ConvergenceError"
        for part in ("max_iter = 1 ", "terminal error 4.", "fixed_point_tol = 1.0e-09"):
            assert part in error["message"]
        assert len(error["history"]) == 1 and error["history"][0] > 1e-9
        assert not (tmp_path / "pendulum__steer-nl.json").exists()

    def test_config_overrides_tolerances(self, tmp_path, capsys):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({"ode_step": 0.01}))
        path = write(tmp_path, SCALAR)
        assert run(["simulate", path, "--t1", "1", "--x0", "1",
                    "--config", str(cpath), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_unknown_config_key_is_2(self, tmp_path, capsys):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({"bogus": 1}))
        path = write(tmp_path, SCALAR)
        assert run(["simulate", path, "--t1", "1", "--x0", "1",
                    "--config", str(cpath), "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [
        "--initial-horizon=0", "--initial-horizon=nan", "--initial-horizon=inf",
        "--initial-horizon=-1", "--max-doublings=-3",
    ])
    def test_are_degenerate_argument_is_2(self, tmp_path, capsys, flag):
        path = write(tmp_path, SCALAR)
        assert run(["are", path, flag, "--out-dir", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_are_tiny_initial_horizon_is_4(self, tmp_path, capsys):
        # exact P = 2; from T = 1e-12 the doublings stop at P = 1
        path = write(tmp_path, {"name": "gain2", "A": [[0]], "B": [[1]], "C": [[2]]})
        assert run(["are", path, "--initial-horizon", "1e-12",
                    "--out-dir", str(tmp_path)]) == 4
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["errors"][0]["type"] == "NumericalInconsistencyError"

    @pytest.mark.parametrize("system, argv", [
        (PEND, ["place", "--roots=abc"]),
        (DI, ["steer", "--t1", "1", "--x0", "0,0,0", "--x1", "1,0"]),
        (DI, ["steer", "--t1", "1", "--x0", "nan,0", "--x1", "1,0"]),
        (PEND, ["simulate", "--t1", "1", "--x0", "0,0", "--u", "nan"]),
        (None, ["steer-nl", "--field", "pendulum", "--x0", "3.1", "--x1", "3.14,0"]),
    ], ids=["place-roots-abc", "steer-x0-length", "steer-x0-nan", "simulate-u-nan",
            "steer-nl-x0-length"])
    def test_bad_vector_argument_is_2(self, tmp_path, capsys, system, argv):
        if system is not None:
            argv = [argv[0], write(tmp_path, system), *argv[1:]]
        assert run([*argv, "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()
        assert not list(tmp_path.glob("*__*"))

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t1", "nan", "--x0", "0,0"],
        ["steer", "--t1", "inf", "--x0", "0,0", "--x1", "0,0"],
        ["gramian-stab", "--lambda", "nan"],
    ], ids=["simulate-t1-nan", "steer-t1-inf", "gramian-stab-lambda-nan"])
    def test_nonfinite_number_flag_is_2(self, tmp_path, capsys, argv):
        argv = [argv[0], write(tmp_path, PEND), *argv[1:]]
        assert run([*argv, "--out-dir", str(tmp_path)]) == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_simulate_overflow_is_4(self, tmp_path, capsys):
        path = write(tmp_path, PEND)
        assert run(["simulate", path, "--t1", "1", "--x0", "1e308,1e308",
                    "--out-dir", str(tmp_path)]) == 4
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["errors"][0]["type"] == "NumericalError"

    def test_overflowed_run_leaves_no_file(self, tmp_path, capsys):
        path = write(tmp_path, PEND)
        out = tmp_path / "out"
        assert run(["simulate", path, "--t1", "1", "--x0", "1e308,1e308",
                    "--out-dir", str(out)]) == 4
        assert json.loads(capsys.readouterr().out)["outputs"] == []
        assert list(out.iterdir()) == []

    def test_out_dir_that_is_a_file_is_2(self, tmp_path, capsys):
        path = str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json")
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run(["analyze", path, "--out-dir", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {blocker}: ")

    @pytest.mark.parametrize("argv, output", [
        (["analyze"], "scalar__analyze.json"),
        (["simulate", "--t1", "1", "--points", "5", "--x0", "1"], "scalar__simulate.csv"),
    ])
    def test_a_directory_at_an_output_path_is_2(self, tmp_path, capsys, argv, output):
        path = str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json")
        blocker = tmp_path / output
        blocker.mkdir()
        assert run([argv[0], path, *argv[1:], "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {blocker}: ")
        assert blocker.is_dir()

    def test_an_unwritable_verdict_leaves_no_csv(self, tmp_path, capsys):
        # the CSV is written before the verdict, and removed when the
        # verdict cannot be written
        path = str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json")
        blocker = tmp_path / "scalar__simulate.json"
        blocker.mkdir()
        assert run(["simulate", path, "--t1", "1", "--x0", "1", "--points", "5",
                    "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker}: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [blocker] and blocker.is_dir()

    @pytest.mark.parametrize("A, argv", [
        ([[5, 1], [0, 4]], ["gramian", "--t1", "200"]),
        ([[5, 1], [0, 4]], ["steer", "--t1", "200", "--x0", "1,0", "--x1", "0,0"]),
        ([[5]], ["steer", "--t1", "200", "--x0", "1", "--x1", "0"]),
    ])
    def test_gramian_overflow_is_4(self, tmp_path, capsys, A, argv):
        n = len(A)
        payload = {"name": "fast", "A": A, "B": [[0]] * (n - 1) + [[1]]}
        path = write(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([argv[0], path, *argv[1:], "--out-dir", str(tmp_path)])
        assert code == 4
        out, err = capsys.readouterr()
        error = json.loads(out)["errors"][0]
        assert error["type"] == "NumericalError"
        assert "[0.0, 200.0]" in error["message"]
        assert "Traceback" not in err
        assert not (tmp_path / f"fast__{argv[0]}.json").exists()

    def test_steer_nl_unresolved_flow_is_4(self, tmp_path, capsys):
        # x' = 20 x + u amplifies the flow's error by e^20 over [0, 1]; the
        # fixed point converges on a flow that a finer one does not reproduce
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fields": {"unstable": {
            "state_dim": 1, "control_dim": 1,
            "rhs": [[{"coeff": 20.0, "x": [1], "u": [0]},
                     {"coeff": 1.0, "x": [0], "u": [1]}]]}}}))
        assert run(["steer-nl", "--field", "unstable", "--x0", "0.01", "--x1", "0.02",
                    "--xeq", "0", "--ueq", "0", "--config", str(config),
                    "--out-dir", str(tmp_path)]) == 4
        error = json.loads(capsys.readouterr().out)["errors"][0]
        assert error["type"] == "FlowAccuracyError"
        assert error["flow_error"] >= 1e-9
        assert "not below fixed_point_tol = 1.0e-09" in error["message"]
        assert not (tmp_path / "unstable__steer-nl.json").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", str(Path(__file__).parents[1] / "scripts" / "data" / "scalar.json"),
         "--x0", "1"],
        ["steer-nl", "--field", "pendulum", "--xeq", "0,0", "--ueq", "0",
         "--x0", "0.01,0", "--x1", "0,0.01"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("t0, t1", [("-1e308", "1e308"), ("-8e307", "8e307")])
    def test_float_range_horizon_is_2(self, tmp_path, capsys, argv, t0, t1):
        # t1 - t0 overflows, or its count of ode_step substeps does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, f"--t0={t0}", "--t1", t1, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        assert not list(tmp_path.iterdir())

    def test_steer_nl_overflow_is_4(self, tmp_path, capsys):
        # the upright pendulum's linearization grows like e^t: on [0, 800]
        # its transition matrix overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["steer-nl", "--field", "pendulum", "--t1", "800", "--x0", "3.1,0",
                        "--x1", "3.2,0", "--out-dir", str(tmp_path)]) == 4
        error = json.loads(capsys.readouterr().out)["errors"][0]
        assert error["type"] == "NumericalError"
        assert "[0.0, 800.0]" in error["message"]

    @pytest.mark.parametrize("power", [1.5, True, -1], ids=["fraction", "boolean", "negative"])
    def test_steer_nl_non_integer_power_is_2(self, tmp_path, capsys, power):
        # a power cast to int would steer x2' = x2 or x2' = 1, not this field
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fields": {"bad": {
            "state_dim": 2, "control_dim": 1,
            "rhs": [[{"coeff": 1.0, "x": [0, 1], "u": [0]}],
                    [{"coeff": -1.0, "x": [0, power], "u": [0]},
                     {"coeff": 1.0, "x": [0, 0], "u": [1]}]],
        }}}))
        assert run(["steer-nl", "--field", "bad", "--x0", "0.01,0", "--x1", "0,0.01",
                    "--xeq", "0,0", "--ueq", "0", "--config", str(config),
                    "--out-dir", str(tmp_path)]) == 2
        assert "nonnegative integers" in capsys.readouterr().err
        assert not (tmp_path / "bad__steer-nl.json").exists()

    @pytest.mark.parametrize("rhs, message", [
        (5, "list of 2 term lists"),
        ([[[1]], []], "must be an object"),
        ([[{"x": [0, 1], "u": [0]}], []], "coeff must be a finite number, got None"),
        ([[{"coeff": None, "x": [0, 1], "u": [0]}], []], "got None"),
        ([[{"coeff": True, "x": [0, 1], "u": [0]}], []], "got True"),
        ([[{"coeff": math.inf, "x": [0, 1], "u": [0]}], []], "got inf"),
        ([[{"coeff": math.nan, "x": [0, 1], "u": [0]}], []], "got nan"),
        ([[{"coeff": 10**400, "x": [0, 1], "u": [0]}], []], "finite number"),
    ], ids=["rhs-number", "term-list", "coeff-missing", "coeff-null", "coeff-boolean",
            "coeff-inf", "coeff-nan", "coeff-huge-int"])
    def test_steer_nl_malformed_terms_are_2(self, tmp_path, capsys, rhs, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fields": {"bad": {
            "state_dim": 2, "control_dim": 1, "rhs": rhs}}}))
        assert run(["steer-nl", "--field", "bad", "--x0", "0.01,0", "--x1", "0,0.01",
                    "--xeq", "0,0", "--ueq", "0", "--config", str(config),
                    "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "bad__steer-nl.json").exists()

    @pytest.mark.parametrize("decl, message", [
        ({"state_dim": None, "control_dim": 1, "rhs": []}, "state_dim must be a positive integer, got None"),
        (5, "a field declaration must be an object"),
        ({"state_dim": 2.7, "control_dim": 1, "rhs": []}, "state_dim must be a positive integer, got 2.7"),
        ({"control_dim": 1, "rhs": []}, "field declaration is missing 'state_dim'"),
        ({"state_dim": 2, "control_dim": True, "rhs": []}, "control_dim must be a positive integer, got True"),
        ({"state_dim": 2, "control_dim": 1}, "field declaration is missing 'rhs'"),
    ], ids=["dim-null", "not-an-object", "dim-fraction", "dim-missing", "dim-boolean", "rhs-missing"])
    def test_steer_nl_malformed_declaration_is_2(self, tmp_path, capsys, decl, message):
        # a fraction cast to int would steer a field of a different size
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fields": {"bad": decl}}))
        assert run(["steer-nl", "--field", "bad", "--x0", "0.01,0", "--x1", "0,0.01",
                    "--xeq", "0,0", "--ueq", "0", "--config", str(config),
                    "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "bad__steer-nl.json").exists()

    def test_fields_that_are_not_an_object_are_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fields": 5}))
        assert run(["steer-nl", "--field", "bad", "--x0", "0.01,0", "--x1", "0,0.01",
                    "--xeq", "0,0", "--ueq", "0", "--config", str(config),
                    "--out-dir", str(tmp_path)]) == 2
        assert "fields must be an object" in capsys.readouterr().err

    def test_lqr_horizon_past_the_sample_budget_is_2(self, tmp_path, capsys):
        # 10^14 steps of 1e-3: without the budget the sample arrays fail
        # to allocate with MemoryError, a traceback
        path = write(tmp_path, {"name": "decay", "A": [[-1]], "B": [[1]]})
        assert run(["lqr", path, "--horizon", "1e11", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "MAX_PATH_ENTRIES" in err and "Traceback" not in err
        assert not (tmp_path / "decay__lqr.json").exists()

    def test_steer_nl_huge_power_overflow_is_4(self, tmp_path, capsys):
        # x2' = u + 1 - x1^(10^6) rests at x1 = 1; from x1 = 1.05 the
        # monomial overflows at the start, which the flow refuses
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fields": {"steep": {
            "state_dim": 2, "control_dim": 1,
            "rhs": [[{"coeff": 1.0, "x": [0, 1], "u": [0]}],
                    [{"coeff": 1.0, "x": [0, 0], "u": [1]},
                     {"coeff": 1.0, "x": [0, 0], "u": [0]},
                     {"coeff": -1.0, "x": [10**6, 0], "u": [0]}]],
        }}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["steer-nl", "--field", "steep", "--x0", "1.05,0", "--x1", "1,0.01",
                        "--xeq", "1,0", "--ueq", "0", "--config", str(config),
                        "--out-dir", str(tmp_path)]) == 4
        out, err = capsys.readouterr()
        error = json.loads(out)["errors"][0]
        assert error["type"] == "NumericalError"
        assert "flow state is not finite at t = 0" in error["message"]
        assert "Warning" not in err

    def test_gramian_stab_sylvester_norms_do_not_overflow(self, tmp_path, capsys):
        # B B^T reaches 1e160: an unscaled Frobenius norm squares past the
        # float range, so the residual check would pass any solution
        A = np.array([[-1.272, 0.614], [-1.197, -0.322]])
        B = np.array([[-0.00676], [1e80]])
        path = write(tmp_path, {"name": "wide", "A": A.tolist(), "B": B.tolist()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["gramian-stab", path, "--lambda", "1", "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert "Warning" not in err
        assert code == 0

        def norm(M):
            s = np.abs(M).max()
            return np.linalg.norm(M / s) * s

        Q = np.array(json.loads((tmp_path / "wide__gramian-stab.json").read_text())
                     ["results"]["Q"])
        shifted, BBt = A + np.eye(2), B @ B.T
        residual = norm(shifted @ Q + Q @ shifted.T - BBt)
        assert residual <= 1e-10 * (1.0 + norm(BBt))

    def test_observation_gramian_overflow_is_4(self, tmp_path, capsys):
        # e^{800} overflows on analyze's unit horizon: the overflow is
        # reported, not a rank/Gramian disagreement
        path = write(tmp_path, {"name": "fast", "A": [[800]], "B": [[1]], "C": [[1]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["analyze", path, "--out-dir", str(tmp_path)]) == 4
        error = json.loads(capsys.readouterr().out)["errors"][0]
        assert error["type"] == "NumericalError"
        assert "overflows" in error["message"]

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["gramian", "--t1", "1"],
        ["steer", "--t1", "1", "--x0", "1,0", "--x1", "0,0"],
        ["place", "--roots=-1,-2"],
        ["observer", "--roots=-1,-2"],
        ["lqr", "--horizon", "1", "--xi", "1,0"],
        ["are"],
        ["gramian-stab", "--lambda", "1"],
        ["simulate", "--t1", "1", "--x0", "1,0"],
        ["steer-nl", "--field", "huge", "--x0", "0.01,0", "--x1", "0,0.01",
         "--xeq", "0,0", "--ueq", "0"],
    ], ids=lambda argv: argv[0])
    def test_overflowing_intermediates_exit_with_a_code(self, tmp_path, capsys, argv):
        # e^{hA}, A B and B B^T overflow; steer-nl linearizes to the same pair
        path = write(tmp_path, {"name": "big", "A": [[1e200, 0], [0, 1e200]],
                                "B": [[1e200], [1.0]]})
        term = {"coeff": 1e200, "u": [0]}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fields": {"huge": {
            "state_dim": 2, "control_dim": 1,
            "rhs": [[{**term, "x": [1, 0]}, {**term, "x": [0, 0], "u": [1]}],
                    [{**term, "x": [0, 1]}, {"coeff": 1.0, "x": [0, 0], "u": [1]}]],
        }}}))
        if argv[0] != "steer-nl":
            argv = [argv[0], path, *argv[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*argv, "--config", str(config), "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code in (2, 3, 4)
        assert "Traceback" not in err and "Warning" not in err

    def test_are_zero_doublings_is_4(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        assert run(["are", path, "--max-doublings", "0",
                    "--out-dir", str(tmp_path)]) == 4
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["errors"][0]["type"] == "ConvergenceError"

    @pytest.mark.parametrize("points", ["1", "0", "-5"])
    def test_lqr_too_few_points_is_2(self, tmp_path, capsys, points):
        path = write(tmp_path, SCALAR)
        assert run(["lqr", path, "--horizon", "1", f"--points={points}",
                    "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()
        assert not (tmp_path / "scalar__lqr.json").exists()

    @pytest.mark.parametrize("points", ["1", "0", "-5"])
    def test_steer_nl_too_few_points_is_2(self, tmp_path, capsys, points):
        assert run(["steer-nl", "--field", "pendulum", "--t1", "1",
                    "--x0", f"{math.pi + 0.05},0", "--x1", f"{math.pi - 0.05},0",
                    f"--points={points}", "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()
        assert not (tmp_path / "pendulum__steer-nl.json").exists()

    @pytest.mark.parametrize("lam, code", [(-50, 0), (-200, 4), (-800, 4), (-3000, 4)])
    def test_steer_refuses_a_missed_endpoint(self, tmp_path, capsys, lam, code):
        # the Gramian is exact at every rate and the Magnus run exact in A,
        # but the Hermite control is not resolved: the run misses x1 = 1 by
        # 3.7e-6 ... 9.9e-2 at -200 ... -3000
        path = write(tmp_path, {"name": "stiff", "A": [[lam]], "B": [[1]]})
        assert run(["steer", path, "--t1", "1", "--x0", "0", "--x1", "1",
                    "--out-dir", str(tmp_path)]) == code
        manifest = json.loads(capsys.readouterr().out)
        if code:
            assert manifest["errors"][0]["type"] == "NumericalInconsistencyError"
            assert "misses x1" in manifest["errors"][0]["message"]
            assert not (tmp_path / "stiff__steer.json").exists()
        else:
            data = json.loads((tmp_path / "stiff__steer.json").read_text())["results"]
            assert data["endpoint_error"] <= cli.STEER_ENDPOINT_TOL
            assert data["predicted_cost"] == pytest.approx(-2.0 * lam / -math.expm1(2.0 * lam),
                                                           rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t1", "1", "--x0=--"],
        ["simulate", "--t1=--", "--x0", "0"],
        ["place", "--roots=--"],
    ])
    def test_a_dropped_value_is_2(self, tmp_path, capsys, argv):
        # argparse drops the value "--" and stores an empty list
        path = write(tmp_path, SCALAR)
        assert run([argv[0], path, *argv[1:], "--out-dir", str(tmp_path)]) == 2
        assert "needs a value" in capsys.readouterr().err

    def test_two_points_accepted(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        assert run(["lqr", path, "--horizon", "1", "--xi", "1", "--points", "2",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = (tmp_path / "scalar__lqr_value.csv").read_text().strip().split("\n")
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.0, 1.0]

    @pytest.mark.parametrize("config", [{"max_iter": 2.5}, {"max_iter": 1e9},
                                        {"ode_step": True}])
    def test_non_integer_or_bool_tolerance_is_2(self, tmp_path, capsys, config):
        # max_iter = 2.5 reached range() as a float, a TypeError
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run(["steer-nl", "--field", "pendulum", "--t1", "1",
                    "--x0", "3.191592653589793,0", "--x1", "3.091592653589793,0",
                    "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "bad tolerance values" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["rank_rtol", "residual_tol", "ode_step",
                                       "fixed_point_tol"])
    def test_infinite_tolerance_is_2(self, tmp_path, capsys, field):
        # JSON's 1e999 parses as inf; a rank_rtol of inf made analyze exit 0
        # with kalman_rank 0, a fixed_point_tol of inf made steer-nl "converge"
        path = tmp_path / "config.json"
        path.write_text(f'{{"{field}": 1e999}}')
        assert run(["analyze", write(tmp_path, PEND), "--config", str(path),
                    "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "bad tolerance values" in err and "Traceback" not in err
        assert not list(tmp_path.glob("*__*"))

    @pytest.mark.parametrize("where", ["system", "config"])
    def test_integer_past_the_digit_limit_is_2(self, tmp_path, capsys, where):
        digits = "1" + "0" * 5000
        system = tmp_path / "sys.json"
        config = tmp_path / "config.json"
        if where == "system":
            system.write_text('{"name": "big", "A": [[' + digits + ']], "B": [[1]]}')
            argv = ["analyze", str(system)]
        else:
            config.write_text('{"max_iter": ' + digits + '}')
            argv = ["analyze", write(tmp_path, SCALAR), "--config", str(config)]
        assert run([*argv, "--out-dir", str(tmp_path)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon, config", [
        ("1e306", None), ("1e-321", None), ("1", {"ode_step": 1e-320})],
        ids=["count-overflows", "spacing-underflows", "step-underflows"])
    def test_lqr_step_count_of_no_finite_value_is_2(self, tmp_path, capsys, horizon, config):
        argv = ["lqr", write(tmp_path, SCALAR), "--horizon", horizon]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        assert run([*argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no finite count of steps" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--x0", "1"], ["steer", "--x0", "1", "--x1", "0"]],
        ids=lambda argv: argv[0])
    def test_grid_past_the_budget_is_2(self, tmp_path, capsys, argv):
        # 10^15 points asked numpy for 7 PiB before any budget check
        assert run([argv[0], write(tmp_path, SCALAR), "--t1", "1", *argv[1:],
                    "--points", "1000000000000000", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "a uniform grid: 1000000000000000 entries, over MAX_PATH_ENTRIES" in err

    def test_flow_triple_step_past_2_to_1023_halvings(self, tmp_path, capsys):
        # the doubling count s passes 1023 and 2.0 ** s overflowed
        path = write(tmp_path, {"name": "fast", "A": [[-1e6]], "B": [[1]]})
        assert run(["gramian", path, "--t1", "1e304", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "fast__gramian.json").read_text())
        assert data["results"]["gramian"][0][0] == pytest.approx(5e-7, rel=1e-9)
        path = write(tmp_path, SCALAR)
        assert run(["are", path, "--initial-horizon", "1e308", "--out-dir", str(tmp_path)]) == 4
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("t1", ["1e-300", "1e-321", "5e-324"])
    def test_steer_nl_on_a_vanishing_interval_is_3(self, tmp_path, capsys, t1):
        # the reference's difference step 1e-5 t1 underflowed and warned
        assert run(["steer-nl", "--field", "pendulum", "--t1", t1, "--x0", "3.15,0",
                    "--x1", "3.14,0", "--out-dir", str(tmp_path)]) == 3
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["errors"][0]["type"] == "LinearTestInapplicableError"


VECTOR_TEXT = st.one_of(st.text(max_size=12),
                        st.text(alphabet="0123456789.,+-eEinfatj ", max_size=16))


@settings(max_examples=60, deadline=None)
@given(flag=st.sampled_from(["x0", "u", "roots"]), text=VECTOR_TEXT)
def test_arbitrary_vector_text_exits_with_a_code(tmp_path_factory, flag, text):
    out = tmp_path_factory.mktemp("fuzz")
    path = write(out, PEND)
    if flag == "roots":
        argv = ["place", path, f"--roots={text}"]
    else:
        argv = ["simulate", path, "--t1", "0.01", "--points", "3",
                "--x0=0,0", "--u=0", f"--{flag}={text}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out-dir", str(out)])
    assert code in (0, 2, 3, 4)
