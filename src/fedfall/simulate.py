"""End-to-end experiment scenarios.

Four scenarios share one data path (per-client validation split, then
minority oversampling of the remaining train windows) and one model:

* ``central``   - one model on the pooled train windows, plain BCE.
* ``fl_fedavg`` - sample-weighted averaging rounds; clients restart from
                  the incoming global each round; global-only inference.
* ``pfl_swa``   - persistent local models with a proximal pull toward the
                  global, robust weighted aggregation; global inference.
* ``epfl_swa``  - pfl_swa plus two-model ensemble inference and the
                  optional alert-driven feedback loop.

Each scenario trains under the caller's ``ExperimentConfig`` with its own
overrides (``central``: ``mu=0``, one epoch per round; ``fl_fedavg``:
``mu=0``); the report keeps the caller's fingerprint.

All four run through one round loop. ``RunState`` holds what changes
from round to round, each fact once; ``_round`` advances it by one round
in four phases: train (one ``run_round`` call: FedAvg for ``central`` and
``fl_fedavg``, SWA for the other two), score, alerts (the feedback loop)
and validate (the round's score, the best round, early stopping). The
score history and the loss curve are read back from ``round_log``.
``central`` is a one-client FedAvg round over a single trainer holding
every client's train windows (sorted by client); FedAvg returns a lone
update exactly, so the trainer's model becomes the global model, and its
update travels without transport. Every report, validation and test, comes
from ``metrics.report_from_probabilities``.

Each round scores every client in one job on the client map that training
uses (``federation.map_clients``): its monitor windows, one batch-1
forward pair each, then its validation windows; test scoring is the same
call. Scoring too small to repay a fork stays in the calling process
(``MAPPED_SCORING_WORK``). A window group larger than one chunk
(``SCORING_GATE_BYTES``) goes through the model in near-equal chunks, so
scoring memory depends on the model, not on the data. Each client's
forwards see the same batches as in a serial loop, and monitor draws,
alerts and oracle draws stay in the calling process in client order, so
the results do not depend on the worker count.

Every random choice flows from one seed through spawned generator
streams, so a scenario rerun with the same config is bit-identical.
"""

from __future__ import annotations

import logging
import random as _random
from dataclasses import dataclass, field, replace

import numpy as np

from fedfall.aggregation import trim_count
from fedfall.config import ExperimentConfig
from fedfall.data.smote import smote_oversample
from fedfall.data.split import DatasetSplit
from fedfall.data.windows import SequenceWindow, stack_windows
from fedfall.errors import ConfigError
from fedfall.federation import (
    ClientState,
    FeedbackEvent,
    PrivateDataset,
    alert_and_feedback,
    early_stop_check,
    ensemble_predict,
    map_clients,
    run_round,
    TransportConfig,
)
from fedfall.metrics import MetricsReport, report_from_probabilities
from fedfall.nn import (
    COMPUTE_DTYPE,
    ModelParams,
    init_params,
    model_forward,
)
from fedfall.secure_transport import FixedPointCodec, keygen

logger = logging.getLogger(__name__)

SCENARIOS = ("central", "fl_fedavg", "pfl_swa", "epfl_swa")
# Where a scenario's training protocol departs from the caller's config.
_SCENARIO_OVERRIDES = {"central": {"mu": 0.0, "client_epochs": 1}, "fl_fedavg": {"mu": 0.0}}

VALIDATION_FRACTION = 0.15

# Scoring below this many window-coordinates (windows times model
# coordinates, over every model run) stays in the calling process, where a
# fork costs more than it saves. On a 2-core host a scoring fork added about
# 10 ms: scoring 0.1 to 0.2 million (hidden 1) ran slower forked, and 15 to
# 25 million (a hidden-16 ensemble) ran faster.
MAPPED_SCORING_WORK = 4_000_000

# An eval forward's (T, B, 4H) gate buffer, one per LSTM layer, stays within
# this many bytes: groups are scored in near-equal chunks of at most
# SCORING_GATE_BYTES // (T * 4H * itemsize) windows. At window 20 in float32
# that is 204 windows at hidden 128 and 1,638 at hidden 16.
SCORING_GATE_BYTES = 8 << 20


@dataclass
class SimulationResult:
    metrics: MetricsReport
    round_log: list
    loss_curve: list
    feedback_events: list
    rounds_run: int
    best_round: int
    global_params: ModelParams
    client_params: dict
    test_probabilities: dict
    test_labels: dict


@dataclass
class RunState:
    """What one round hands the next, each fact once; every input fixed for
    the run is an argument of ``_round``. ``best`` is the best round's
    global model and client models, set in round 0."""

    global_model: ModelParams
    clients: list[ClientState]
    monitor_rngs: dict[str, np.random.Generator] = field(default_factory=dict)
    oracle_rng: np.random.Generator | None = None
    transport: TransportConfig | None = None  # with its random.Random
    round_log: list = field(default_factory=list)
    feedback_events: list[FeedbackEvent] = field(default_factory=list)
    best: tuple[ModelParams, dict[str, ModelParams]] | None = None


def stratified_validation_split(
    windows: list[SequenceWindow], fraction: float, rng: np.random.Generator
) -> tuple[list[SequenceWindow], list[SequenceWindow]]:
    """Hold out ``fraction`` of the windows per label for early stopping."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0,1), got {fraction}")
    train: list[SequenceWindow] = []
    val: list[SequenceWindow] = []
    by_label: dict[int, list[int]] = {}
    for i, w in enumerate(windows):
        by_label.setdefault(w.label, []).append(i)
    val_idx: set[int] = set()
    for label in sorted(by_label):
        idx = np.asarray(by_label[label])
        n_val = int(np.floor(fraction * len(idx)))
        if n_val > 0:
            chosen = rng.permutation(len(idx))[:n_val]
            val_idx.update(int(idx[c]) for c in chosen)
    for i, w in enumerate(windows):
        (val if i in val_idx else train).append(w)
    return train, val


def _labels_of(windows: list[SequenceWindow]) -> np.ndarray:
    return np.asarray([w.label for w in windows], dtype=np.float64)


def _probabilities(
    groups_by_client: dict[str, list[list[SequenceWindow]]],
    global_model: ModelParams,
    client_models: dict[str, ModelParams] | None,
) -> dict[str, list[np.ndarray]]:
    """Per-client float64 fall probabilities of each window group: the
    two-model ensemble when client models are given, the global model alone
    otherwise.

    Clients are scored over the same shares as training (``map_clients``),
    unless the work is below ``MAPPED_SCORING_WORK``. Each chunk of a group
    (``_chunks``) goes through one forward per model, as in a serial loop,
    so a group of one window is a batch-1 forward, as a live monitor scores
    a window when it arrives. The passes run in float32; the global model is
    cast once per call and each client model once, in the process that
    scores that client."""
    cids = sorted(groups_by_client)
    jobs = [
        (cid, (groups_by_client[cid], None if client_models is None else client_models[cid]))
        for cid in cids
    ]
    global_model = global_model.astype(COMPUTE_DTYPE)
    runs = 1 if client_models is None else 2
    n_windows = sum(len(g) for groups in groups_by_client.values() for g in groups)
    if runs * global_model.vec.size * n_windows < MAPPED_SCORING_WORK:
        return {cid: _score(job, global_model) for cid, job in jobs}
    return dict(zip(cids, map_clients(_score, jobs, global_model)))


def _score(job, global_model: ModelParams) -> list[np.ndarray]:
    groups, client_model = job
    if client_model is not None:
        client_model = client_model.astype(COMPUTE_DTYPE)
    probs = []
    for windows in groups:
        parts = []
        for chunk in _chunks(windows, global_model):
            batch, _ = stack_windows(chunk, dtype=COMPUTE_DTYPE)
            if client_model is None:
                parts.append(model_forward(global_model, batch, mode="eval")[0].astype(np.float64))
            else:
                parts.append(ensemble_predict(global_model, client_model, batch))
        probs.append(np.concatenate(parts) if parts else np.zeros(0))
    return probs


def _chunks(windows: list[SequenceWindow], model: ModelParams) -> list[list[SequenceWindow]]:
    """``windows`` in consecutive near-equal chunks (sizes differ by at most
    one) whose gate buffers fit ``SCORING_GATE_BYTES``, in as few chunks as
    that allows, but never more chunks than pairs of windows: a chunk is
    one window only when the group is."""
    n = len(windows)
    if n == 0:
        return []
    per_window = windows[0].values.shape[0] * 4 * model.hidden_size * model.vec.itemsize
    cap = max(1, SCORING_GATE_BYTES // per_window)
    k = min(-(-n // cap), max(1, n // 2))
    bounds = [n * i // k for i in range(k + 1)]
    return [windows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _make_monitor_window(
    base: SequenceWindow, client_id: str, round_index: int, rng: np.random.Generator
) -> SequenceWindow:
    spread = float(np.std(base.values))
    noise = rng.normal(0.0, 0.05 * (spread + 1e-12), size=base.values.shape)
    return SequenceWindow(
        values=base.values + noise,
        label=base.label,
        origin=(client_id, "monitor", round_index),
    )


def _round(
    state: RunState, r: int, config: ExperimentConfig, scenario: str, val_by_client, real_by_client
) -> bool:
    """Advance ``state`` by round ``r``; True when the run stops early.

    Phases, in order: 1. train (``run_round``: local training, transport,
    aggregation); 2. score (one pass: each client's monitor windows, a group
    of one each, then its validation windows as one group); 3. alerts (in
    client order; none fires before every forward has run, so a failing
    forward changes no client); 4. validate (the round's score, the best
    round, early stopping). ``val_by_client`` and ``real_by_client`` hold
    each client's validation and real (not oversampled) training windows."""
    clients = state.clients
    if scenario == "fl_fedavg":  # a value: local_train trains a copy
        clients = [replace(c, local_params=state.global_model, adam=None) for c in clients]
    result = run_round(
        state.global_model.vec,
        clients,
        config,
        strategy="swa" if scenario in ("pfl_swa", "epfl_swa") else "fedavg",
        round_index=r,
        transport=state.transport,
    )
    state.global_model = ModelParams(
        result.global_params, state.global_model.input_size, config.hidden_size
    )
    state.clients = result.clients
    state.round_log.extend(result.entries)
    groups = {cid: [windows] for cid, windows in val_by_client.items()}
    monitored: list = []  # (client, its monitor windows)
    for c in state.clients:
        real = real_by_client[c.client_id] if c.client_id in state.monitor_rngs else None
        if not real:
            continue
        rng = state.monitor_rngs[c.client_id]
        windows = [
            _make_monitor_window(real[int(rng.integers(0, len(real)))], c.client_id, r, rng)
            for _ in range(config.monitor_windows_per_round)
        ]
        monitored.append((c, windows))
        groups[c.client_id] = [[w] for w in windows] + groups[c.client_id]
    models = {c.client_id: c.local_params for c in state.clients}  # alerts change no model
    probs = _probabilities(groups, state.global_model, models if scenario == "epfl_swa" else None)
    for c, windows in monitored:
        alerts = 0
        for window, prob in zip(windows, probs[c.client_id]):
            event = alert_and_feedback(c, window, float(prob[0]), state.oracle_rng, config, r)
            if event is not None:
                state.feedback_events.append(event)
                alerts += 1
        state.round_log.append(
            {
                "round": r,
                "client": c.client_id,
                "event": "feedback",
                "alerts": alerts,
                "dataset_size": len(c.dataset),
            }
        )
    val_metrics = report_from_probabilities(
        {cid: client_probs[-1] for cid, client_probs in probs.items()},
        {cid: _labels_of(windows) for cid, windows in val_by_client.items()},
        config.classification_threshold,
    )
    state.round_log.append(
        {
            "round": r,
            "event": "validation",
            "inference": "ensemble" if scenario == "epfl_swa" else "global",
            "val_recall": val_metrics.recall,
            "val_f1": val_metrics.f1,
            "score": val_metrics.recall + val_metrics.f1,
        }
    )
    scores = [e["score"] for e in state.round_log if e.get("event") == "validation"]
    # argmax keeps the earliest of tied scores: only a strict improvement moves it
    best = int(np.argmax(scores))
    if best == r:  # always so in round 0; the central trainer's model is the global model
        state.best = (state.global_model, {} if scenario == "central" else models)
    if early_stop_check(scores, config.early_stop_patience):
        state.round_log.append({"round": r, "event": "early_stop", "best_round": best})
        return True
    return False


def simulate_full(
    dataset: DatasetSplit, config: ExperimentConfig, scenario: str
) -> SimulationResult:
    """Run one scenario end to end and return metrics plus diagnostics.

    A client whose training tuple is empty trains nothing, and its test
    windows are still scored (under ``epfl_swa``, with its untrained model)."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    fingerprint = config.fingerprint()
    config = config.replace(**_SCENARIO_OVERRIDES.get(scenario, {}))
    client_ids = dataset.clients
    if not any(dataset.train_by_client.values()):
        raise ConfigError("dataset has no training windows")
    if not any(dataset.test_by_client.values()):
        raise ConfigError("dataset has no test windows")

    root = np.random.SeedSequence(config.seed)
    ss_init, ss_smote, ss_val, ss_feedback, ss_transport = root.spawn(5)
    client_seeds = root.spawn(len(client_ids))
    init = init_params(dataset.window_shape[1], config.hidden_size, np.random.default_rng(ss_init))

    # Per-client data path: hold out validation first so oversampling
    # never leaks synthetic neighbors into the early-stopping score, and
    # monitor windows are drawn from the real training windows alone, so
    # no alert feeds a near-copy of a validation window into training.
    smote_streams = ss_smote.spawn(len(client_ids))
    val_streams = ss_val.spawn(len(client_ids))
    val_by_client: dict[str, list[SequenceWindow]] = {}
    real_by_client: dict[str, list[SequenceWindow]] = {}
    clients: list[ClientState] = []
    pooled: list[SequenceWindow] = []  # every trainer's windows, by client
    for i, (cid, raw) in enumerate(dataset.train_by_client.items()):
        tr, va = stratified_validation_split(
            raw, VALIDATION_FRACTION, np.random.default_rng(val_streams[i])
        )
        real_by_client[cid] = tr
        if config.smote_target > 0.0:
            tr = smote_oversample(
                tr,
                target_minority_fraction=config.smote_target,
                k=config.smote_k,
                rng=np.random.default_rng(smote_streams[i]),
            )
        val_by_client[cid] = va
        pooled += tr
        clients.append(
            ClientState(
                client_id=cid,
                dataset=PrivateDataset(cid, tr),
                local_params=init,  # a value: local_train trains a copy
                adam=None,
                rng=np.random.default_rng(client_seeds[i]),
            )
        )
    if not any(val_by_client.values()):
        raise ConfigError(
            "validation split came out empty; provide more training windows per client"
        )
    if scenario == "central":  # one trainer on every client's windows, seeded as the first
        trainer = replace(clients[0], client_id="central", dataset=PrivateDataset("central", pooled))
        clients = [trainer]

    if scenario in ("pfl_swa", "epfl_swa") and config.trim_enabled:
        # Training needs 2 windows, and feedback only adds windows, so a trim
        # that is feasible over these clients stays feasible all run.
        trainable = sum(len(c.dataset) >= 2 for c in clients)
        if trainable:
            trim_count(trainable, config.beta)

    state = RunState(global_model=init, clients=clients)
    if config.encrypt_transport and scenario != "central":
        key = keygen(config.he_key_bits, seed=config.seed)
        codec = FixedPointCodec(scale_bits=config.fixed_point_bits, clip_range=config.clip_range)
        state.transport = TransportConfig(key=key, codec=codec, rng=_random.Random(int(ss_transport.generate_state(1)[0])))
    if scenario == "epfl_swa" and config.feedback_enabled:
        fb_streams = ss_feedback.spawn(len(client_ids) + 1)
        state.oracle_rng = np.random.default_rng(fb_streams[-1])
        state.monitor_rngs = {
            cid: np.random.default_rng(fb_streams[i]) for i, cid in enumerate(client_ids)
        }

    for r in range(config.global_epochs):
        if _round(state, r, config, scenario, val_by_client, real_by_client):
            break

    best_global, best_locals = state.best
    scored = _probabilities(
        {cid: [windows] for cid, windows in dataset.test_by_client.items()},
        best_global,
        best_locals if scenario == "epfl_swa" else None,
    )
    test_probs = {cid: probs for cid, (probs,) in scored.items()}
    test_labels = {cid: _labels_of(dataset.test_by_client[cid]) for cid in test_probs}
    metrics = report_from_probabilities(
        test_probs, test_labels, config.classification_threshold, scenario, fingerprint, config.seed
    )
    validations = [e for e in state.round_log if e.get("event") == "validation"]
    losses: dict[int, list[float]] = {}
    for e in state.round_log:
        if "loss" in e:
            losses.setdefault(e["round"], []).append(e["loss"])
    return SimulationResult(
        metrics=metrics,
        round_log=state.round_log,
        loss_curve=[
            {
                "round": v["round"],
                "train_loss": float(np.mean(losses[v["round"]])),
                "val_recall": v["val_recall"],
                "val_f1": v["val_f1"],
            }
            for v in validations
        ],
        feedback_events=state.feedback_events,
        rounds_run=len(validations),
        best_round=int(np.argmax([v["score"] for v in validations])),
        global_params=best_global,
        client_params=best_locals,
        test_probabilities=test_probs,
        test_labels=test_labels,
    )


def run_simulation(
    dataset: DatasetSplit, config: ExperimentConfig, scenario: str
) -> MetricsReport:
    """Contract entry point: scenario in, final MetricsReport out."""
    return simulate_full(dataset, config, scenario).metrics
