"""Random small splits through ``simulate_full``: every valid one either
returns a report or is refused with a package ``ValueError`` before round 0
trains, and every corrupt one is refused when its ``DatasetSplit`` is built.

The space is the one that found the late failures fixed so far: 1-4
clients, 0-12 windows per label and split, the four scenarios, feedback on
and off, SMOTE 0-0.45 and beta 0-0.3, at hidden 2 and 2 rounds. Half the
draws carry one corruption: a NaN, an infinity, a window one step short, or
a client with only a test entry.
"""

from dataclasses import replace
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
CORRUPTIONS = ("nan", "inf", "short", "test_only")


@st.composite
def runs(draw):
    """Training and test windows by client, a corruption, a config and a
    scenario."""
    clients = "ABCD"[: draw(st.integers(min_value=1, max_value=4))]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    parts = {"train": {}, "test": {}}
    for cid in clients:
        for part, sequence in (("train", f"{cid}01"), ("test", f"{cid}02")):
            parts[part][cid] = [
                SequenceWindow(
                    values=rng.normal(loc=label, size=(T, F)), label=label, origin=(cid, sequence, i)
                )
                for label in (0, 1)
                for i in range(draw(COUNTS))
            ]
    train, test = parts["train"], parts["test"]
    # half the draws stay valid, so about 100 splits still run
    corruption = draw(st.sampled_from(("none",) * len(CORRUPTIONS) + CORRUPTIONS))
    windows = [
        (part, cid, i) for part in parts for cid in clients for i, _ in enumerate(parts[part][cid])
    ]
    # a lone window has no other shape to differ from
    if len(windows) < (2 if corruption == "short" else 1) and corruption != "none":
        corruption = "test_only"
    if corruption == "test_only":
        test["Z"] = [SequenceWindow(values=rng.normal(size=(T, F)), label=0, origin=("Z", "Z02", 0))]
    elif corruption != "none":
        part, cid, i = draw(st.sampled_from(windows))
        values = parts[part][cid][i].values.copy()
        if corruption == "short":
            values = values[1:]
        else:
            values[draw(st.integers(0, T - 1)), draw(st.integers(0, F - 1))] = (
                np.nan if corruption == "nan" else np.inf
            )
        parts[part][cid][i] = replace(parts[part][cid][i], values=values)
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
    return train, test, corruption, config, draw(st.sampled_from(SCENARIOS))


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(runs())
def test_a_random_split_runs_or_is_refused_before_round_0(run):
    train, test, corruption, config, scenario = run
    rounds = []
    real = simulate.run_round

    def counted(*args, **kwargs):
        rounds.append(kwargs.get("round_index"))
        return real(*args, **kwargs)

    with mock.patch.object(simulate, "run_round", counted):
        try:
            split = DatasetSplit(train, test)
        except ValueError as exc:
            assert corruption != "none", repr(exc)
            assert isinstance(exc, FedfallError), repr(exc)
            event(f"refused when built: {corruption}")
            return
        assert corruption == "none", f"a split with a {corruption} corruption was built"
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
