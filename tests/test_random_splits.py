"""Random small splits through ``simulate_full``: every one either returns
a report or is refused with a package ``ValueError`` before round 0 trains.

The space is the one that found the late failures fixed so far: 1-4
clients, 0-12 windows per label and split, the four scenarios, feedback on
and off, SMOTE 0-0.45 and beta 0-0.3, at hidden 2 and 2 rounds.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fedfall import simulate
from fedfall.config import ExperimentConfig
from fedfall.data.split import DatasetSplit
from fedfall.data.windows import SequenceWindow
from fedfall.errors import FedfallError
from fedfall.metrics import MetricsReport
from fedfall.simulate import SCENARIOS, simulate_full

T, F = 6, 3
COUNTS = st.integers(min_value=0, max_value=12)


@st.composite
def runs(draw):
    """A split, a config and a scenario."""
    clients = "ABCD"[: draw(st.integers(min_value=1, max_value=4))]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    split = DatasetSplit(train=[], test=[])
    for cid in clients:
        for part, sequence in (("train", f"{cid}01"), ("test", f"{cid}02")):
            windows = [
                SequenceWindow(
                    values=rng.normal(loc=label, size=(T, F)), label=label, origin=(cid, sequence, i)
                )
                for label in (0, 1)
                for i in range(draw(COUNTS))
            ]
            getattr(split, part).extend(windows)
            getattr(split, f"{part}_by_client")[cid] = windows
    config = ExperimentConfig(
        hidden_size=2,
        global_epochs=2,
        client_epochs=1,
        batch_size=4,
        lr=0.01,
        smote_target=draw(st.floats(min_value=0.0, max_value=0.45)),
        beta=draw(st.floats(min_value=0.0, max_value=0.3)),
        feedback_enabled=draw(st.booleans()),
        monitor_windows_per_round=2,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    return split, config, draw(st.sampled_from(SCENARIOS))


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(runs())
def test_a_random_split_runs_or_is_refused_before_round_0(run):
    split, config, scenario = run
    rounds = []
    real = simulate.run_round

    def counted(*args, **kwargs):
        rounds.append(kwargs.get("round_index"))
        return real(*args, **kwargs)

    with mock.patch.object(simulate, "run_round", counted):
        try:
            result = simulate_full(split, config, scenario)
        except ValueError as exc:
            assert isinstance(exc, FedfallError), repr(exc)
            assert rounds == [], f"{exc!r} raised after round {rounds[-1]} trained"
            event(f"refused: {type(exc).__name__}")
            return
    assert isinstance(result.metrics, MetricsReport)
    assert result.rounds_run == len(rounds) >= 1
    event("ran")
