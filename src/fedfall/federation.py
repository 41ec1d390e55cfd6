"""Client/server round mechanics.

One communication round: every client trains its own model against the
frozen incoming global parameters (cross-entropy plus a proximal penalty
pulling toward the global), the server collects one ClientUpdate per
client at a barrier, and the configured aggregation rule produces the next
global vector. Rounds read the protocol (local epochs, batch size, lr, mu,
the SWA settings, the alert threshold) from the run's ``ExperimentConfig``.

Raw windows never leave a client: ``PrivateDataset`` raises when touched
outside its owner's execution scope and counts every access, so tests can
audit the boundary. Only ClientUpdate objects cross to the server. A
client's state is a value: ``local_train`` returns the next one beside the
update, so a round that raises leaves every client as it was.

Per-client work runs in parallel where the platform can fork, through one
client map, ``map_clients``: the calling process runs one share of the
clients and forked children run the rest. There may be more shares than
cores (``_worker_count``), so that no core idles while the last share
finishes: 5 clients on 2 cores run in 3 shares. A round trains through
it, each client against the same frozen global vector, and a worker pipes
back each client's update and next state without its windows;
``fedfall.simulate`` scores through it on the same shares: one job per
client per round for its monitor and validation windows, and one for its
test windows. A client's job reads only that client's state and the
shared models, so the results do not depend on the number of processes,
and the server side of the round runs in client order as before.
"""

from __future__ import annotations

import copy
import logging
import os
import threading
import traceback
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np

from fedfall.aggregation import ClientUpdate, fedavg, swa_aggregate
from fedfall.config import ExperimentConfig
from fedfall.data.windows import SequenceWindow, stack_windows
from fedfall.errors import ConfigError, PrivacyViolationError, ShapeMismatchError
from fedfall.nn import (
    COMPUTE_DTYPE,
    AdamState,
    ModelParams,
    adam_step,
    bce_loss,
    commit_batchnorm_stats,
    manifest_for,
    model_backward,
    model_forward,
    params_to_vector,
)
from fedfall.secure_transport import FixedPointCodec, HeKeyPair, decrypt_vector, encrypt_vector

logger = logging.getLogger(__name__)

_ACTIVE_CLIENT: ContextVar = ContextVar("fedfall_active_client", default=None)


@contextmanager
def client_scope(client_id: str):
    """Marks the dynamic extent in which one client's code is running."""
    token = _ACTIVE_CLIENT.set(client_id)
    try:
        yield
    finally:
        _ACTIVE_CLIENT.reset(token)


class PrivateDataset:
    """A client's windows, readable only inside that client's scope.

    Every access attempt is tallied in ``access_log`` (scope -> count),
    including rejected ones, so tests can assert the boundary held. Length
    is shared metadata (it crosses the boundary legitimately inside each
    ClientUpdate as the sample count).
    """

    def __init__(self, owner: str, windows: list[SequenceWindow]):
        self.owner = owner
        self._windows = list(windows)
        self.access_log: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._windows)

    def _check(self, action: str) -> None:
        scope = _ACTIVE_CLIENT.get() or "server"
        self.access_log[scope] = self.access_log.get(scope, 0) + 1
        if scope != self.owner:
            raise PrivacyViolationError(
                f"{action} of client {self.owner!r} windows from scope {scope!r}"
            )

    def __copy__(self) -> PrivateDataset:
        """A copy with its own windows list and ``access_log``, so appending
        to one never grows the other."""
        twin = PrivateDataset(self.owner, self._windows)
        twin.access_log = dict(self.access_log)
        return twin

    def windows(self) -> list[SequenceWindow]:
        self._check("read")
        return list(self._windows)

    def append(self, window: SequenceWindow) -> None:
        self._check("append")
        self._windows.append(window)


@dataclass(frozen=True)
class ClientState:
    """Everything one client owns across rounds. Training returns the next
    state; only the dataset grows in place, by confirmed alerts."""

    client_id: str
    dataset: PrivateDataset
    local_params: ModelParams
    adam: AdamState | None
    rng: np.random.Generator
    last_train_log: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FeedbackEvent:
    """One confirmed alert, created only when the alert actually fired."""

    window: SequenceWindow
    alert_probability: float
    response: int
    round_index: int


@dataclass(frozen=True)
class TransportConfig:
    """Encrypt updates on the client->server path; server decrypts before
    aggregating (sorting-based rules need plaintext)."""

    key: HeKeyPair
    codec: FixedPointCodec
    rng: object  # random.Random


def local_train(
    state: ClientState, global_params: np.ndarray, config: ExperimentConfig
) -> tuple[ClientUpdate | None, ClientState]:
    """Run ``config.client_epochs`` epochs against the frozen global anchor;
    returns the update and the client's next state, and leaves ``state`` as
    it was.

    Minimizes BCE plus the proximal penalty (trainable coordinates only;
    batch statistics are data, not weights, and cannot be pulled toward the
    anchor). Returns ``(None, state)`` for a client with fewer than 2
    windows, which the round skips (``_skipped``).

    Trains copies of the weights, Adam moments and generator, and reads
    through a copy of the dataset with its own windows list and
    ``access_log``, so a window later appended to the next state's dataset
    never grows ``state``'s. Forward and backward run on a float32 shadow
    of the weights; each step upcasts the gradient, applies the proximal
    term mu*||w - w_global||^2 (computed in place) and Adam to the float64
    master, and refreshes the shadow from it.
    """
    if _skipped(state):
        return None, state
    n = len(state.dataset)
    dataset = copy.copy(state.dataset)
    rng = copy.deepcopy(state.rng)
    with client_scope(state.client_id):
        windows = dataset.windows()
        batch_all, labels_all = stack_windows(windows, dtype=COMPUTE_DTYPE)

        # Adam moves the float64 flat vector in place; the shadow follows it.
        params = state.local_params.copy()
        vec = params.vec
        shadow = params.astype(COMPUTE_DTYPE)
        grads = np.empty_like(vec)
        manifest = manifest_for(params.input_size, params.hidden_size)
        global_params = np.asarray(global_params, dtype=np.float64)
        if global_params.shape != vec.shape:
            raise ShapeMismatchError(
                f"global vector {global_params.shape} vs client model {vec.shape}"
            )
        adam = copy.deepcopy(state.adam)
        if adam is None or adam.dim != manifest.dim:
            adam = AdamState(dim=manifest.dim, lr=config.lr)
        slices = manifest.trainable_slices
        diff = np.empty(max(hi - lo for lo, hi in slices))

        epoch_losses = []
        for _ in range(config.client_epochs):
            order = rng.permutation(n)
            batch_losses = []
            for s in range(0, n, config.batch_size):
                idx = order[s : s + config.batch_size]
                if len(idx) < 2:
                    continue  # train-mode batch statistics need >= 2 windows
                probs, cache = model_forward(shadow, batch_all[idx], mode="train")
                data_loss, dprobs = bce_loss(probs, labels_all[idx])
                np.copyto(grads, model_backward(cache, dprobs).vec)
                penalty = 0.0
                if config.mu != 0.0:
                    # mu*||d||^2 and its gradient 2*mu*d (d = w - w_global), in
                    # the operation order of the penalty oracle in tests/oracles.py
                    for lo, hi in slices:
                        d = diff[: hi - lo]
                        np.subtract(vec[lo:hi], global_params[lo:hi], out=d)
                        penalty += config.mu * float(d @ d)
                        d *= 2.0 * config.mu
                        grads[lo:hi] += d
                adam_step(adam, vec, grads)
                commit_batchnorm_stats(params, cache)
                np.copyto(shadow.vec, vec)
                batch_losses.append(data_loss + penalty)
            epoch_losses.append(float(np.mean(batch_losses)))

    update = ClientUpdate(
        client_id=state.client_id,
        params=params_to_vector(params),
        epochs_trained=config.client_epochs,
        sample_count=n,
    )
    train_log = {"loss": epoch_losses[-1], "epoch_losses": epoch_losses}
    return update, replace(
        state, dataset=dataset, local_params=params, adam=adam, rng=rng, last_train_log=train_log
    )


def _skipped(client: ClientState) -> bool:
    """True, with a warning, for a client that cannot train: train-mode batch
    statistics need at least 2 windows."""
    n = len(client.dataset)
    if n >= 2:
        return False
    logger.warning(
        "client %s has %s; skipped",
        client.client_id,
        "no training windows" if n == 0 else "1 training window",
    )
    return True


def _train_one(
    client: ClientState, global_params: np.ndarray, config: ExperimentConfig
) -> tuple[ClientUpdate, ClientState, dict]:
    """``local_train`` as the client map's step: the update, the next state
    without its dataset, and that dataset's ``access_log``. No window
    crosses a worker's pipe; ``run_round`` re-attaches the dataset."""
    update, state = local_train(client, global_params, config)
    return update, replace(state, dataset=None), state.dataset.access_log


def _run_share(fn, jobs: list, args: tuple) -> list:
    """``fn(job, *args)`` for each job in order, ending with the exception
    of the first job that raised."""
    outcomes: list = []
    for _, job in jobs:
        try:
            outcomes.append(fn(job, *args))
        except Exception as exc:  # map_clients re-raises it once every share is in
            outcomes.append(exc)
            break
    return outcomes


def _run_in_child(conn, fn, jobs: list, args: tuple) -> None:
    """A forked child's whole life: run its share and send the outcomes."""
    with conn:
        for (client_id, _), outcome in zip(jobs, _run_share(fn, jobs, args)):
            if isinstance(outcome, Exception) and hasattr(outcome, "add_note"):
                # the traceback does not survive pickling; its text does
                outcome.add_note(
                    f"raised in the worker process for client {client_id!r}:\n"
                    + "".join(traceback.format_exception(outcome))
                )
            conn.send(outcome)


def _receive(child, conn, jobs: list) -> list:
    """A child's outcomes, as ``_run_share`` returned them."""
    received: list = []
    for client_id, _ in jobs:
        try:
            outcome = conn.recv()
        except EOFError:
            child.join()
            outcome = RuntimeError(
                f"worker exited with code {child.exitcode} "
                f"before reporting client {client_id!r}"
            )
        received.append(outcome)
        if isinstance(outcome, Exception):
            break
    return received


def _worker_count(jobs: int) -> int:
    """Processes to run ``jobs`` client jobs in, on c usable cores: one per
    job when jobs <= c, else the smallest W >= c for which jobs mod W is 0
    or at least c. Shares then hold floor(jobs/W) or ceil(jobs/W) jobs, and
    with the cores shared fairly every core stays busy until the step ends,
    so it takes jobs/c job-times rather than ceil(jobs/c). Only the calling
    process where it cannot fork, or runs other threads, which a forked
    child would inherit in an unknown state."""
    if jobs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    workers = min(cores, jobs)
    while 0 < jobs % workers < cores:
        workers += 1
    return workers


def map_clients(fn, jobs: list[tuple[str, object]], *args) -> list:
    """``[fn(job, *args) for client_id, job in jobs]``, over the usable cores.

    With W = ``_worker_count`` processes, job i goes to share i mod W; W may
    exceed the core count, and the OS then shares the cores among them. This
    process runs share 0; a forked child runs each other share, reading the
    jobs and ``args`` from its copy of this process's memory, and pipes its
    results back. Results come back in job order. When jobs raise, the
    lowest-index one's exception is raised, after every child has exited;
    ``client_id`` names the job in a worker's traceback note and in the
    error for a worker that died.

    ``fn`` must give a result that does not depend on the process it runs
    in, and must change nothing this process reads afterwards: a child's
    changes stay in the child.
    """
    workers = _worker_count(len(jobs))
    shares = [jobs[k::workers] for k in range(workers)]
    children = []
    done = False
    try:
        if workers > 1:
            import multiprocessing  # here, not at the top: it adds ~9 ms to importing fedfall

            ctx = multiprocessing.get_context("fork")
            for share in shares[1:]:
                recv, send = ctx.Pipe(duplex=False)
                child = ctx.Process(
                    target=_run_in_child, args=(send, fn, share, args), daemon=True
                )
                child.start()
                send.close()
                children.append((child, recv))
        outcomes = [_run_share(fn, shares[0], args)]
        for (child, recv), share in zip(children, shares[1:]):
            outcomes.append(_receive(child, recv, share))
        done = True
    finally:
        for child, recv in children:
            recv.close()
            if not done:
                child.terminate()
            child.join()

    by_index = {
        k + pos * workers: outcome
        for k, share in enumerate(outcomes)
        for pos, outcome in enumerate(share)
    }
    for i in sorted(by_index):
        if isinstance(by_index[i], Exception):
            raise by_index[i]
    return [by_index[i] for i in range(len(jobs))]


@dataclass
class RoundResult:
    global_params: np.ndarray
    entries: list[dict]
    clients: list[ClientState]  # the next states, in input order


def run_round(
    global_params: np.ndarray,
    clients: list[ClientState],
    config: ExperimentConfig,
    strategy: str = "swa",
    round_index: int = 0,
    update_transform=None,
    transport: TransportConfig | None = None,
) -> RoundResult:
    """One barrier-synchronized communication round.

    Every client trains against the same incoming global vector; the new
    global depends only on this round's updates and the incoming global.
    Clients train in parallel (``map_clients``), and the result carries
    their next states; a skipped client's is its input. The input states
    are never written to, so a round that raises leaves every client as it
    was.
    ``update_transform`` intercepts each ClientUpdate before transport
    (used to inject adversarial corruption in experiments); ``transport``
    encrypts each update and has the server decrypt before aggregation. An
    update that cannot be encrypted, a non-finite one say, raises naming
    its client before its ciphertext is made.
    """
    if strategy not in ("fedavg", "swa"):
        raise ConfigError(f"strategy must be 'fedavg' or 'swa', got {strategy!r}")
    global_params = np.asarray(global_params, dtype=np.float64)
    skipped = [_skipped(client) for client in clients]
    trained = iter(
        map_clients(
            _train_one,
            [(c.client_id, c) for c, skip in zip(clients, skipped) if not skip],
            global_params,
            config,
        )
    )
    updates: list[ClientUpdate] = []
    entries: list[dict] = []
    next_clients: list[ClientState] = []
    for client, skip in zip(clients, skipped):
        if skip:
            entries.append(
                {"round": round_index, "client": client.client_id, "skipped": True}
            )
            next_clients.append(client)
            continue
        update, state, access_log = next(trained)
        dataset = copy.copy(client.dataset)
        dataset.access_log = access_log
        next_clients.append(replace(state, dataset=dataset))
        if update_transform is not None:
            update = update_transform(update)
        if transport is not None:
            try:
                enc = encrypt_vector(update.params, transport.key, transport.codec, transport.rng)
            except ValueError as exc:
                raise type(exc)(f"update {update.client_id!r}: {exc}") from None
            received = decrypt_vector(enc, transport.key, transport.codec)
            update = replace(update, params=received)
        entries.append(
            {
                "round": round_index,
                "client": client.client_id,
                "loss": state.last_train_log["loss"],
                "update_norm": float(np.linalg.norm(update.params - global_params)),
                "epochs": update.epochs_trained,
                "n_samples": update.sample_count,
                "encrypted": transport is not None,
            }
        )
        updates.append(update)
    if not updates:
        raise ConfigError(f"round {round_index}: no client produced an update")
    if strategy == "fedavg":
        new_global = fedavg(updates)
    else:
        new_global = swa_aggregate(global_params, updates, config)
    return RoundResult(global_params=new_global, entries=entries, clients=next_clients)


def ensemble_predict(
    global_model: ModelParams, client_model: ModelParams, batch
) -> np.ndarray:
    """Arithmetic mean of the two models' fall probabilities per window.

    Each pass runs in the dtype of its model; callers hand in float32 copies
    (``ModelParams.astype``), cast once for all the batches they score. The
    mean is taken, and returned, in float64.
    """
    pg = model_forward(global_model, batch, mode="eval")[0]
    pi = model_forward(client_model, batch, mode="eval")[0]
    return (pg.astype(np.float64) + pi) / 2.0


def alert_and_feedback(
    client: ClientState,
    window: SequenceWindow,
    ensemble_prob: float,
    oracle_rng: np.random.Generator,
    config: ExperimentConfig,
    round_index: int,
) -> FeedbackEvent | None:
    """Fire an alert when the ensemble probability exceeds theta.

    A fired alert is confirmed by a label oracle standing in for the human
    who confirms or dismisses it: the window's true label, flipped at
    probability ``config.feedback_noise_p``. The flip draws one uniform from
    ``oracle_rng`` per alert, and none when the noise is zero. The window,
    so labeled, is appended to the client's own dataset (size +1 exactly).
    Below-threshold probabilities change nothing, draw nothing and return
    None.
    """
    if not ensemble_prob > config.alert_threshold:
        return None
    response = int(window.label)
    noise_p = config.feedback_noise_p
    if noise_p > 0.0 and oracle_rng.uniform() < noise_p:
        response = 1 - response
    confirmed = SequenceWindow(
        values=window.values.copy(),
        label=response,
        origin=(client.client_id, "feedback", round_index),
    )
    with client_scope(client.client_id):
        client.dataset.append(confirmed)
    return FeedbackEvent(
        window=window,
        alert_probability=float(ensemble_prob),
        response=response,
        round_index=round_index,
    )


def early_stop_check(history: list[float], patience: int) -> bool:
    """Stop when the best score is ``patience`` or more evaluations old.

    ``history`` holds one validation score per evaluation (higher is
    better); ties keep the earliest occurrence as best.
    """
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    if not history:
        return False
    best = int(np.argmax(history))
    return (len(history) - 1 - best) >= patience
