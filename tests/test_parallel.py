"""Client-parallel rounds: forked training workers give the serial loop's
results byte for byte, report failures as the serial loop would, and leave
no process behind.

Each path is forced by replacing ``fedfall.federation._worker_count``: one
process runs the serial loop, three split five clients into uneven shares.
"""

import logging
import multiprocessing
import os
import threading

import pytest

import fedfall.federation as federation
from fedfall.cli import _write_run_outputs
from fedfall.config import ExperimentConfig
from fedfall.data.synthetic import make_synthetic_dataset
from fedfall.errors import NumericalFailureError
from fedfall.federation import local_train, run_round
from fedfall.nn import params_to_vector
from fedfall.simulate import SCENARIOS, simulate_full

from test_federation import make_client, small_config

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="training workers are forked",
)

SERIAL = lambda jobs: 1  # noqa: E731
PARALLEL = lambda jobs: min(jobs, 3)  # noqa: E731


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(
        seed=3, n_clients=5, sequences_per_client=3, sequence_length=200, window=20, stride=4
    )


def config(**kw):
    values = dict(
        hidden_size=4,
        window=20,
        stride=4,
        global_epochs=3,
        client_epochs=2,
        batch_size=16,
        lr=0.01,
        smote_target=0.25,
        early_stop_patience=3,
        seed=3,
    )
    values.update(kw)
    return ExperimentConfig(**values)


RUNS = [(scenario, {}) for scenario in SCENARIOS] + [
    ("fl_fedavg", dict(encrypt_transport=True, he_key_bits=256)),
    ("epfl_swa", dict(feedback_enabled=True, monitor_windows_per_round=6)),
]


def artifacts(dataset, cfg, scenario, out_dir):
    result = simulate_full(dataset, cfg, scenario)
    _write_run_outputs(result, cfg, out_dir)
    vectors = [params_to_vector(result.global_params)]
    vectors += [params_to_vector(result.client_params[c]) for c in sorted(result.client_params)]
    files = {
        name: (out_dir / name).read_bytes()
        for name in ("metrics.json", "round_log.jsonl", "loss_curve.csv", "predictions.json")
    }
    return files, b"".join(v.tobytes() for v in vectors), result


@pytest.mark.parametrize(
    "scenario, overrides", RUNS, ids=[s + "".join(f"-{k}" for k in o) for s, o in RUNS]
)
def test_parallel_artifacts_equal_serial(dataset, scenario, overrides, tmp_path, monkeypatch):
    cfg = config(**overrides)
    monkeypatch.setattr(federation, "_worker_count", SERIAL)
    serial_files, serial_vectors, serial = artifacts(dataset, cfg, scenario, tmp_path / "serial")
    monkeypatch.setattr(federation, "_worker_count", PARALLEL)
    files, vectors, result = artifacts(dataset, cfg, scenario, tmp_path / "parallel")
    assert files == serial_files
    assert vectors == serial_vectors
    assert multiprocessing.active_children() == []
    assert serial.rounds_run == cfg.global_epochs
    if overrides.get("encrypt_transport"):
        assert all(e["encrypted"] for e in result.round_log if "loss" in e)
    if overrides.get("feedback_enabled"):
        assert result.feedback_events


def five_clients():
    return [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABCDE")]


def client_state(client):
    return (
        client.local_params.vec.tobytes(),
        None if client.adam is None
        else (client.adam.t, client.adam.m.tobytes(), client.adam.v.tobytes()),
        client.rng.bit_generator.state,
        dict(client.last_train_log),
        dict(client.dataset.access_log),
    )


def test_each_share_trains_in_its_own_process(monkeypatch):
    real = federation.local_train

    def stamped(client, global_params, cfg):
        update = real(client, global_params, cfg)
        client.last_train_log["pid"] = os.getpid()
        return update

    monkeypatch.setattr(federation, "local_train", stamped)
    monkeypatch.setattr(federation, "_worker_count", PARALLEL)
    clients = five_clients()
    run_round(params_to_vector(clients[0].local_params), clients, small_config())
    pids = [c.last_train_log["pid"] for c in clients]
    # shares are client i mod 3; this process trains share 0
    assert pids[0] == pids[3] == os.getpid()
    assert pids[1] == pids[4] != pids[2]
    assert len(set(pids)) == 3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count", [SERIAL, PARALLEL], ids=["serial", "parallel"])
def test_round_leaves_clients_as_local_train_does(monkeypatch, count):
    reference = five_clients()
    g = params_to_vector(reference[0].local_params)
    for client in reference:
        local_train(client, g, small_config())
    monkeypatch.setattr(federation, "_worker_count", count)
    clients = five_clients()
    run_round(g, clients, small_config())
    assert [client_state(c) for c in clients] == [client_state(c) for c in reference]
    assert [c.dataset.access_log for c in clients] == [{c: 1} for c in "ABCDE"]


@pytest.mark.parametrize(
    "failing, raised",
    [
        ({"B"}, "B"),  # a child's first client
        ({"C", "E"}, "C"),  # two children: the lower index wins
        ({"B", "D"}, "B"),  # a child's client against this process's
        ({"A", "C"}, "A"),  # this process's client against a child's
    ],
)
@pytest.mark.parametrize("count", [SERIAL, PARALLEL], ids=["serial", "parallel"])
def test_lowest_index_failure_raised_and_no_client_changed(monkeypatch, failing, raised, count):
    real = federation.local_train

    def failing_train(client, global_params, cfg):
        update = real(client, global_params, cfg)
        if client.client_id in failing:
            raise NumericalFailureError(f"client {client.client_id} diverged", layer=client.client_id)
        return update

    monkeypatch.setattr(federation, "local_train", failing_train)
    monkeypatch.setattr(federation, "_worker_count", count)
    clients = five_clients()
    before = [client_state(c) for c in clients]
    with pytest.raises(NumericalFailureError, match=f"client {raised} diverged") as info:
        run_round(params_to_vector(clients[0].local_params), clients, small_config())
    assert info.value.layer == raised
    assert multiprocessing.active_children() == []
    assert [client_state(c) for c in clients] == before


def test_worker_that_dies_is_reported(monkeypatch):
    caller = os.getpid()
    real = federation.local_train

    def dying_train(client, global_params, cfg):
        if client.client_id == "B" and os.getpid() != caller:
            os._exit(3)
        return real(client, global_params, cfg)

    monkeypatch.setattr(federation, "local_train", dying_train)
    monkeypatch.setattr(federation, "_worker_count", PARALLEL)
    clients = five_clients()
    before = [client_state(c) for c in clients]
    with pytest.raises(RuntimeError, match="exited with code 3 before reporting client 'B'"):
        run_round(params_to_vector(clients[0].local_params), clients, small_config())
    assert multiprocessing.active_children() == []
    assert [client_state(c) for c in clients] == before


def test_skip_is_decided_and_logged_in_this_process(monkeypatch, caplog):
    monkeypatch.setattr(federation, "_worker_count", PARALLEL)
    clients = five_clients()
    clients[1] = make_client("B", n_windows=0)
    clients[3] = make_client("D", n_windows=1)
    with caplog.at_level(logging.WARNING, logger="fedfall.federation"):
        result = run_round(params_to_vector(clients[0].local_params), clients, small_config())
    messages = [r.getMessage() for r in caplog.records]
    assert "client B has no training windows; skipped" in messages
    assert "client D has 1 training window; skipped" in messages
    assert [e["client"] for e in result.entries if e.get("skipped")] == ["B", "D"]
    assert [e["client"] for e in result.entries if "loss" in e] == ["A", "C", "E"]
    assert clients[1].dataset.access_log == {} and clients[3].dataset.access_log == {}


def test_worker_count_bounded_by_cores_and_clients():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert threading.active_count() == 1
    assert federation._worker_count(1) == 1
    assert federation._worker_count(5) == min(cores, 5)
    assert federation._worker_count(10_000) == cores


def test_no_fork_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert federation._worker_count(10_000) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
