"""Client-parallel work: forked workers train, screen and score clients
with the serial loop's results byte for byte, report failures as the serial
loop would, and leave no process behind.

Each path is forced by replacing ``fedfall.federation._worker_count``: one
process runs the serial loop, two or three split five clients into uneven
shares, and five give each client its own process. The real rule is tested
against a replaced core count.
"""

import logging
import multiprocessing
import os
import threading
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler

import pytest

import fedfall.federation as federation
import fedfall.simulate as simulate
from fedfall.cli import _write_run_outputs
from fedfall.config import ExperimentConfig
from fedfall.data.synthetic import make_synthetic_dataset
from fedfall.data.windows import SequenceWindow
from fedfall.errors import NumericalFailureError
from fedfall.federation import local_train, run_round
from fedfall.nn import params_to_vector
from fedfall.simulate import SCENARIOS, simulate_full

from test_federation import client_state, make_client, make_windows, small_config

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="client workers are forked",
)

SERIAL = lambda jobs: 1  # noqa: E731
PAIR = lambda jobs: min(jobs, 2)  # noqa: E731
PARALLEL = lambda jobs: min(jobs, 3)  # noqa: E731
ONE_PER_JOB = lambda jobs: jobs  # noqa: E731


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


def without_training_windows(dataset, cid):
    """``dataset`` with client ``cid``'s training windows removed."""
    return replace(dataset, train_by_client={**dataset.train_by_client, cid: ()})


FEEDBACK = dict(feedback_enabled=True, monitor_windows_per_round=6)
# id -> (scenario, config overrides, client left with no training windows)
RUNS = {scenario: (scenario, {}, None) for scenario in SCENARIOS}
RUNS.update(
    {
        "fl_fedavg-encrypt_transport-he_key_bits": (
            "fl_fedavg", dict(encrypt_transport=True, he_key_bits=256), None
        ),
        "epfl_swa-feedback_enabled-monitor_windows_per_round": ("epfl_swa", FEEDBACK, None),
        # a noisy oracle shows any reordering of alerts or oracle queries
        "epfl_swa-feedback-noisy_oracle": ("epfl_swa", dict(FEEDBACK, feedback_noise_p=0.3), None),
        "epfl_swa-feedback-no_monitor_windows": (
            "epfl_swa", dict(FEEDBACK, monitor_windows_per_round=0), None
        ),
        # B is not trained or screened, so the other shares shift
        "epfl_swa-feedback-client_without_training_windows": ("epfl_swa", FEEDBACK, "B"),
    }
)


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


@pytest.mark.parametrize("scenario, overrides, emptied", RUNS.values(), ids=list(RUNS))
def test_parallel_artifacts_equal_serial(
    dataset, scenario, overrides, emptied, tmp_path, monkeypatch
):
    cfg = config(**overrides)
    if emptied is not None:
        dataset = without_training_windows(dataset, emptied)
    monkeypatch.setattr(simulate, "MAPPED_SCORING_WORK", 0)  # these runs score little
    monkeypatch.setattr(federation, "_worker_count", SERIAL)
    serial_files, serial_vectors, serial = artifacts(dataset, cfg, scenario, tmp_path / "serial")
    assert serial.rounds_run == cfg.global_epochs
    for workers, count in ((2, PAIR), (3, PARALLEL), (5, ONE_PER_JOB)):
        monkeypatch.setattr(federation, "_worker_count", count)
        files, vectors, result = artifacts(dataset, cfg, scenario, tmp_path / f"w{workers}")
        assert files == serial_files, f"{workers} workers"
        assert vectors == serial_vectors, f"{workers} workers"
        assert multiprocessing.active_children() == []
    if overrides.get("encrypt_transport"):
        assert all(e["encrypted"] for e in result.round_log if "loss" in e)
    if overrides.get("feedback_enabled"):
        feedback = [e for e in result.round_log if e.get("event") == "feedback"]
        assert len(feedback) == cfg.global_epochs * (4 if emptied else 5)
        assert all(e["client"] != emptied for e in feedback)
        if cfg.monitor_windows_per_round:
            assert result.feedback_events
        else:
            assert not result.feedback_events


def five_clients():
    return [make_client(c, seed=i, data_seed=i) for i, c in enumerate("ABCDE")]


def set_cores(monkeypatch, cores):
    """Make ``_worker_count`` see ``cores`` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def test_each_share_trains_in_its_own_process(monkeypatch):
    real = federation.local_train

    def stamped(client, global_params, cfg):
        update, state = real(client, global_params, cfg)
        return update, replace(state, last_train_log={**state.last_train_log, "pid": os.getpid()})

    monkeypatch.setattr(federation, "local_train", stamped)
    set_cores(monkeypatch, 2)  # the real rule puts 5 clients on 2 cores in 3 processes
    clients = five_clients()
    result = run_round(params_to_vector(clients[0].local_params), clients, small_config())
    pids = [c.last_train_log["pid"] for c in result.clients]
    # shares are client i mod 3; this process trains share 0
    assert pids[0] == pids[3] == os.getpid()
    assert pids[1] == pids[4] != pids[2]
    assert len(set(pids)) == 3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count", [SERIAL, PARALLEL], ids=["serial", "parallel"])
def test_round_leaves_clients_as_local_train_does(monkeypatch, count):
    """Two rounds return the states of a serial chain of ``local_train``
    calls, and leave the states they were given as they were."""
    cfg = small_config()
    chained = five_clients()
    g = params_to_vector(chained[0].local_params)
    monkeypatch.setattr(federation, "_worker_count", count)
    clients = five_clients()
    for round_index in range(2):
        chained = [local_train(client, g, cfg)[1] for client in chained]
        before = [client_state(c) for c in clients]
        result = run_round(g, clients, cfg, round_index=round_index)
        assert [client_state(c) for c in clients] == before
        assert [client_state(c) for c in result.clients] == [client_state(c) for c in chained]
        clients, g = result.clients, result.global_params
    assert [c.dataset.access_log for c in clients] == [{c: 2} for c in "ABCDE"]


@pytest.mark.parametrize("count", [SERIAL, PARALLEL], ids=["serial", "parallel"])
def test_appending_to_next_state_leaves_input_dataset(monkeypatch, count):
    """A confirmed alert appended to a round's next state does not grow the
    state the round was given."""
    monkeypatch.setattr(federation, "_worker_count", count)
    clients = five_clients()
    result = run_round(params_to_vector(clients[0].local_params), clients, small_config())
    with federation.client_scope("A"):
        result.clients[0].dataset.append(make_windows(1, seed=9)[0])
    assert (len(clients[0].dataset), len(result.clients[0].dataset)) == (8, 9)


def test_no_window_crosses_a_pipe(monkeypatch):
    def refuse_windows(pickler, obj):
        if isinstance(obj, (federation.PrivateDataset, SequenceWindow)):
            raise TypeError(f"{type(obj).__name__} sent through a pipe")
        return NotImplemented

    monkeypatch.setattr(ForkingPickler, "reducer_override", refuse_windows, raising=False)
    monkeypatch.setattr(federation, "_worker_count", PARALLEL)
    clients = five_clients()
    result = run_round(params_to_vector(clients[0].local_params), clients, small_config())
    # clients 1, 2, 4 and 5 train in the two children; their datasets stay here
    assert [c.dataset.access_log for c in result.clients] == [{c: 1} for c in "ABCDE"]
    assert [len(c.dataset) for c in result.clients] == [8] * 5
    assert multiprocessing.active_children() == []


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
        trained = real(client, global_params, cfg)
        if client.client_id in failing:
            raise NumericalFailureError(f"client {client.client_id} diverged", layer=client.client_id)
        return trained

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


def test_worker_count_keeps_every_core_busy(monkeypatch):
    assert threading.active_count() == 1
    table = {(5, 2): 3, (4, 2): 2, (7, 2): 4, (5, 4): 5, (10, 4): 5, (3, 8): 3}
    table.update({(1, cores): 1 for cores in (1, 2, 4, 8)})
    for (jobs, cores), workers in table.items():
        set_cores(monkeypatch, cores)
        assert federation._worker_count(jobs) == workers, (jobs, cores)
    for cores in range(1, 17):
        set_cores(monkeypatch, cores)
        for jobs in range(1, 201):
            workers = federation._worker_count(jobs)
            assert min(jobs, cores) <= workers <= jobs, (jobs, cores)
            # round-robin shares of floor and ceil(jobs / workers) jobs end together
            assert jobs % workers == 0 or jobs % workers >= cores, (jobs, cores)
            if jobs % cores == 0:
                assert workers == cores, (jobs, cores)
            if jobs > cores:  # and no fewer processes would do
                assert all(0 < jobs % w < cores for w in range(cores, workers)), (jobs, cores)


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


def stamp_eval_forwards(monkeypatch, log):
    """Append the pid and batch size of every eval forward to the file
    ``log``, from whichever process makes it."""
    real = federation.model_forward

    def stamped(params, batch, mode="train"):
        if mode == "eval":
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {len(batch)}\n")
        return real(params, batch, mode=mode)

    monkeypatch.setattr(federation, "model_forward", stamped)
    monkeypatch.setattr(simulate, "model_forward", stamped)


def stamped_pids(log, single):
    """The pids of the batch-1 (``single``) or bulk eval forwards in ``log``."""
    lines = log.read_text(encoding="utf-8").splitlines()
    return [int(pid) for pid, size in map(str.split, lines) if (size == "1") == single]


@pytest.mark.parametrize(
    "workers, count", [(1, SERIAL), (2, PAIR), (3, PARALLEL)], ids=["w1", "w2", "w3"]
)
def test_screening_forwards_stay_batch_one_and_in_the_calling_process(
    dataset, workers, count, tmp_path, monkeypatch
):
    log = tmp_path / "pids"
    stamp_eval_forwards(monkeypatch, log)
    monkeypatch.setattr(simulate, "MAPPED_SCORING_WORK", 0)  # this run scores little
    monkeypatch.setattr(federation, "_worker_count", count)
    cfg = config(**FEEDBACK)
    simulate_full(dataset, cfg, "epfl_swa")
    pids = stamped_pids(log, single=True)
    per_client = 2 * cfg.monitor_windows_per_round * cfg.global_epochs  # two forwards a window
    assert len(pids) == 5 * per_client
    # this process screens share 0: clients 0, W, 2W, ...
    assert pids.count(os.getpid()) == len(range(0, 5, workers)) * per_client
    assert bool(set(pids) - {os.getpid()}) == (workers > 1)


@pytest.mark.parametrize("threshold, mapped", [(None, False), (0, True)], ids=["small", "mapped"])
def test_scoring_is_mapped_only_above_the_work_threshold(
    dataset, threshold, mapped, tmp_path, monkeypatch
):
    log = tmp_path / "pids"
    stamp_eval_forwards(monkeypatch, log)
    if threshold is not None:
        monkeypatch.setattr(simulate, "MAPPED_SCORING_WORK", threshold)
    monkeypatch.setattr(federation, "_worker_count", PARALLEL)
    cfg = config()
    # the global model alone, the ensemble, then the ensemble screening too
    runs = (("pfl_swa", cfg), ("epfl_swa", cfg), ("epfl_swa", config(**FEEDBACK)))
    for scenario, run_cfg in runs:
        simulate_full(dataset, run_cfg, scenario)
    bulk, single = stamped_pids(log, single=False), stamped_pids(log, single=True)
    scored = (cfg.global_epochs + 1) * 5  # every client, each round and once for the test
    assert len(bulk) == scored * 5  # one forward per client under pfl_swa, two under epfl_swa
    assert len(single) == 2 * FEEDBACK["monitor_windows_per_round"] * cfg.global_epochs * 5
    assert (bulk.count(os.getpid()) < len(bulk)) == mapped
    assert (single.count(os.getpid()) < len(single)) == mapped


def test_a_feedback_round_scores_every_client_in_one_map(dataset, monkeypatch):
    maps = []
    real = federation.map_clients

    def counted(fn, jobs, *args):
        maps.append(fn.__name__)
        return real(fn, jobs, *args)

    monkeypatch.setattr(federation, "map_clients", counted)
    monkeypatch.setattr(simulate, "map_clients", counted)
    monkeypatch.setattr(simulate, "MAPPED_SCORING_WORK", 0)
    monkeypatch.setattr(federation, "_worker_count", PARALLEL)
    cfg = config(**FEEDBACK)
    result = simulate_full(dataset, cfg, "epfl_swa")
    assert result.rounds_run == cfg.global_epochs == 3
    # each round trains and then scores; the test windows are scored once
    assert maps == ["_train_one", "_score"] * 3 + ["_score"]
    assert result.feedback_events


def fail_in_children(monkeypatch, phase, fail):
    """Call ``fail`` in every eval forward of ``phase`` made outside this
    process: batch-1 forwards screen, bulk ones validate. Scoring is mapped
    at any size."""
    monkeypatch.setattr(simulate, "MAPPED_SCORING_WORK", 0)
    caller = os.getpid()
    real = federation.model_forward

    def failing(params, batch, mode="train"):
        if mode == "eval" and (len(batch) == 1) == (phase == "screening"):
            if os.getpid() != caller:
                fail()
        return real(params, batch, mode=mode)

    monkeypatch.setattr(federation, "model_forward", failing)


def record_appends(monkeypatch):
    """The owner of every ``PrivateDataset`` that gains a window."""
    owners = []
    real = federation.PrivateDataset.append

    def recording(self, window):
        owners.append(self.owner)
        real(self, window)

    monkeypatch.setattr(federation.PrivateDataset, "append", recording)
    return owners


def diverge():
    raise NumericalFailureError("eval forward diverged", layer="eval")


PHASES = pytest.mark.parametrize("phase", ["screening", "validation"])
PARALLEL_COUNTS = pytest.mark.parametrize("count", [PAIR, PARALLEL], ids=["w2", "w3"])


@PHASES
@PARALLEL_COUNTS
def test_forward_failure_in_a_worker_raises_lowest_index_client(
    dataset, monkeypatch, phase, count
):
    fail_in_children(monkeypatch, phase, diverge)
    appended = record_appends(monkeypatch)
    monkeypatch.setattr(federation, "_worker_count", count)
    with pytest.raises(NumericalFailureError, match="eval forward diverged") as info:
        simulate_full(dataset, config(**FEEDBACK), "epfl_swa")
    if hasattr(info.value, "add_note"):
        # every child's first client fails; B, client 1, has the lowest index
        (note,) = info.value.__notes__
        assert note.startswith("raised in the worker process for client 'B':\nTraceback")
        assert "in failing" in note
    assert multiprocessing.active_children() == []
    assert appended == []


@PHASES
@PARALLEL_COUNTS
def test_worker_that_dies_mid_forward_is_reported(dataset, monkeypatch, phase, count):
    fail_in_children(monkeypatch, phase, lambda: os._exit(3))
    appended = record_appends(monkeypatch)
    monkeypatch.setattr(federation, "_worker_count", count)
    with pytest.raises(RuntimeError, match="exited with code 3 before reporting client 'B'"):
        simulate_full(dataset, config(**FEEDBACK), "epfl_swa")
    assert multiprocessing.active_children() == []
    assert appended == []
