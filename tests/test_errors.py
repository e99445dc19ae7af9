"""Refusals are plain data: every library error pickles and copies with its
witnesses, so one raised in a worker process reaches the caller intact.
A precondition shared by several routines is refused in one message form."""

import copy
import math
import multiprocessing
import pickle
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lincontrol import ControlSignal, errors, lqr, nonlinear, reachability, synthesis, systems
from lincontrol.fields import pendulum
from lincontrol.systems import LtiSystem, LtvSystem

# the witness each refusal carries where it is raised; any other error has none
WITNESSES = {
    "UncontrollableIntervalError": {"min_eigenvalue": 0.0},
    "FiniteCostViolationError": {"bad_eigenvalue": 2 + 0j},
    "DecayRateTooSmallError": {"minimal_rate": 3.000001},
    "LinearTestInapplicableError": {"min_eigenvalue": -1e-17},
    "ConvergenceError": {"history": ()},
    "FlowAccuracyError": {"flow_error": 1.0},
    "DivergenceError": {"history": (0.5, 2.0)},
}
ERRORS = sorted((cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.LinControlError)),
                key=lambda cls: cls.__name__)


def test_every_witness_names_an_error():
    assert set(WITNESSES) <= {cls.__name__ for cls in ERRORS}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("roundtrip", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_roundtrip_keeps_type_message_and_witness(cls, roundtrip):
    witness = WITNESSES.get(cls.__name__, {})
    back = roundtrip(cls("refused", **witness))
    assert type(back) is cls
    assert str(back) == "refused" and back.args == ("refused",)
    assert vars(back) == witness and list(vars(back)) == list(witness)


def test_witnesses_keep_the_order_given():
    exc = errors.LinControlError("m", b=1.0, a=2.0)
    assert list(vars(exc).items()) == [("b", 1.0), ("a", 2.0)]


def test_refusals_cross_a_process_pool():
    # an error that could not be unpickled broke the pool (BrokenProcessPool)
    uncontrollable = LtiSystem(np.diag([1.0, 2.0]), [[1.0], [0.0]])
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        steer = pool.submit(reachability.min_energy_control, uncontrollable, 0.0, 1.0,
                            np.zeros(2), np.ones(2))
        with pytest.raises(errors.UncontrollableIntervalError) as exc:
            steer.result(timeout=120)
        assert exc.value.min_eigenvalue == 0.0
        stabilize = pool.submit(synthesis.gramian_stabilizer, [[-3.0]], [[1.0]], 1.0)
        with pytest.raises(errors.DecayRateTooSmallError) as exc:
            stabilize.result(timeout=120)
        assert exc.value.minimal_rate == pytest.approx(3.0, abs=1e-5)


def _pendulum_steer(x0, x1):
    ref = nonlinear.equilibrium_reference(pendulum(), [math.pi, 0.0], [0.0], 0.0, 1.0)
    return nonlinear.steer_nonlinear(pendulum(), ref, x0, x1)


def _scalar_lqr_run(xi):
    prob = lqr.LqrProblem(LtiSystem([[0.0]], [[1.0]], [[1.0]]), None, 1.0)
    return lqr.lqr_trajectory(prob, lqr.riccati_finite(prob), xi)


DOUBLE_INTEGRATOR = LtiSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])


# each state a routine takes is refused by `kernels.as_state`, under its own name
@pytest.mark.parametrize("call, message", [
    (lambda: reachability.min_energy_control(DOUBLE_INTEGRATOR, 0.0, 1.0, [0.0, 0.0],
                                             [1.0, 0.0, 0.0]), "x1 must have length 2, got 3"),
    (lambda: nonlinear.integrate_field(pendulum(), [0.1], ControlSignal.zero(1, 0.0, 1.0),
                                       np.linspace(0.0, 1.0, 11)),
     "x0 must have length 2, got 1"),
    (lambda: _pendulum_steer([3.2, 0.0, 0.0], [3.1, 0.0]), "x0 must have length 2, got 3"),
    (lambda: systems.simulate(DOUBLE_INTEGRATOR, [1.0, 0.0, 0.0], None, [0.0, 1.0]),
     "x0 must have length 2, got 3"),
    (lambda: _scalar_lqr_run([1.0, 2.0]), "xi must have length 1, got 2"),
    (lambda: synthesis.controller_form(DOUBLE_INTEGRATOR.A, [0.0, 1.0, 0.0]),
     "b must have length 2, got 3"),
], ids=["min_energy_control", "integrate_field", "steer_nonlinear", "simulate",
        "lqr_trajectory", "controller_form"])
def test_a_state_of_the_wrong_length_names_itself(call, message):
    with pytest.raises(errors.DimensionError, match=f"^{re.escape(message)}$"):
        call()


# every interval is refused by `kernels.require_interval`, as a DomainError
@pytest.mark.parametrize("t1", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("build", [
    lambda t1: reachability.controllability_gramian(DOUBLE_INTEGRATOR, 0.0, t1),
    lambda t1: LtvSystem(0.0, t1, lambda t: np.zeros((1, 1)), lambda t: np.ones((1, 1))),
    lambda t1: nonlinear.ReferenceTrajectory(pendulum(), 0.0, t1,
                                             lambda t: np.array([math.pi, 0.0]),
                                             lambda t: np.array([0.0])),
], ids=["controllability_gramian", "LtvSystem", "ReferenceTrajectory"])
def test_an_empty_interval_is_a_domain_error_naming_it(build, t1):
    message = f"need t0 < t1, got [0.0, {t1}]"
    with pytest.raises(errors.DomainError, match=f"^{re.escape(message)}$"):
        build(t1)
