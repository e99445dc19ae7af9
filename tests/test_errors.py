"""Refusals are plain data: every library error pickles and copies with its
witnesses, so one raised in a worker process reaches the caller intact."""

import copy
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lincontrol import errors, reachability, synthesis
from lincontrol.systems import LtiSystem

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
