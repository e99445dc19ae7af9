import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lincontrol import cli
from lincontrol.cli import main

PEND = {
    "name": "pendulum-upright",
    "A": [[0, 1], [1, 0]],
    "B": [[0], [1]],
    "C": [[1, 0]],
}
SCALAR = {"name": "scalar", "A": [[0]], "B": [[1]], "C": [[1]]}
DI = {"name": "di", "A": [[0, 1], [0, 0]], "B": [[0], [1]]}
UNCONTROLLABLE = {"name": "stuck", "A": [[1, 0], [0, 2]], "B": [[1], [0]]}


def write(tmp_path, payload, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main(args)


class TestAnalyze:
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

    def test_are_nonconvergence_is_4(self, tmp_path, capsys):
        payload = {"name": "slow", "A": [[0.01]], "B": [[1]], "C": [[1]]}
        path = write(tmp_path, payload)
        code = run(["are", path, "--initial-horizon", "0.25",
                    "--max-doublings", "1", "--out-dir", str(tmp_path)])
        assert code == 4
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["errors"][0]["type"] == "ConvergenceError"

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

    def test_steer_nl_huge_power_overflow_is_4(self, tmp_path, capsys):
        # x2' = u + 1 - x1^(10^6) rests at x1 = 1; from x1 = 1.05 the first
        # stage's monomial overflows, which the flow refuses
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
        assert "flow state is not finite at t = 0.001" in error["message"]
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

    def test_two_points_accepted(self, tmp_path, capsys):
        path = write(tmp_path, SCALAR)
        assert run(["lqr", path, "--horizon", "1", "--xi", "1", "--points", "2",
                    "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = (tmp_path / "scalar__lqr_value.csv").read_text().strip().split("\n")
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.0, 1.0]


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
