"""Package errors survive pickling, so a training worker can report them."""

import inspect
import pickle

import pytest

from fedfall import errors

INSTANCES = [
    errors.FedfallError("base"),
    errors.ShapeMismatchError("global vector (7,) vs client model (40,)"),
    errors.NumericalFailureError("non-finite gradient", layer="adam"),
    errors.AggregationInfeasibleError(2, 0.4, 1),
    errors.ConfigError("batch_size must be >= 2"),
    errors.MissingSensorError("no ankle stream"),
    errors.PrivacyViolationError("read of client 'A' windows from scope 'server'"),
]


def test_every_error_class_is_covered():
    declared = {
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.FedfallError)
    }
    assert declared == {type(e) for e in INSTANCES}


@pytest.mark.parametrize("error", INSTANCES, ids=lambda e: type(e).__name__)
def test_pickle_round_trip_keeps_type_message_and_attributes(error):
    twin = pickle.loads(pickle.dumps(error))
    assert type(twin) is type(error)
    assert str(twin) == str(error)
    assert twin.args == error.args
    assert vars(twin) == vars(error)


def test_attributes_survive():
    twin = pickle.loads(pickle.dumps(errors.AggregationInfeasibleError(5, 0.45, 3)))
    assert (twin.n, twin.beta, twin.m) == (5, 0.45, 3)
    assert pickle.loads(pickle.dumps(errors.NumericalFailureError("x", "bn"))).layer == "bn"
