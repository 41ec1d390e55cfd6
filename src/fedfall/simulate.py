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

All four run through one round loop, and every round is one
``run_round`` call: FedAvg for ``central`` and ``fl_fedavg``, SWA for the
other two. ``central`` is a one-client FedAvg round over a single trainer
holding every client's train windows (sorted by client); FedAvg returns a
lone update exactly, so the trainer's model becomes the global model, and
its update travels without transport. Everything after the step is
shared: feedback, validation, the loss curve, best-round tracking, early
stopping and test scoring, and every report comes from
``metrics.report_from_probabilities``.

Each round scores every client in one job on the client map that training
uses (``federation.map_clients``): its monitor windows, one batch-1
forward pair each, then its validation windows; test scoring is the same
call. Scoring too small to repay a fork stays in the calling process
(``MAPPED_SCORING_WORK``). Each client's forwards see the same batches as
in a serial loop, and monitor draws, alerts and oracle draws stay in the
calling process in client order, so the results do not depend on the
worker count.

Every random choice flows from one seed through spawned generator
streams, so a scenario rerun with the same config is bit-identical.
"""

from __future__ import annotations

import logging
import random as _random
from dataclasses import dataclass

import numpy as np

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
    params_to_vector,
    vector_to_params,
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
    unless the work is below ``MAPPED_SCORING_WORK``. Each group goes
    through one forward per model, as in a serial loop, so a group of one
    window is a batch-1 forward, as a live monitor scores a window when it
    arrives. The passes run in float32; the global model is cast once per
    call and each client model once, in the process that scores that
    client."""
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
        if not windows:
            probs.append(np.zeros(0))
            continue
        batch, _ = stack_windows(windows, dtype=COMPUTE_DTYPE)
        if client_model is None:
            probs.append(model_forward(global_model, batch, mode="eval")[0].astype(np.float64))
        else:
            probs.append(ensemble_predict(global_model, client_model, batch))
    return probs


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


def simulate_full(
    dataset: DatasetSplit, config: ExperimentConfig, scenario: str
) -> SimulationResult:
    """Run one scenario end to end and return metrics plus diagnostics."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    fingerprint = config.fingerprint()
    config = config.replace(**_SCENARIO_OVERRIDES.get(scenario, {}))
    client_ids = dataset.clients
    if not dataset.train:
        raise ConfigError("dataset has no training windows")
    if not any(dataset.test_by_client.values()):
        raise ConfigError("dataset has no test windows")
    input_size = dataset.train[0].values.shape[1]

    root = np.random.SeedSequence(config.seed)
    ss_init, ss_smote, ss_val, ss_feedback, ss_transport = root.spawn(5)
    client_seeds = root.spawn(len(client_ids))

    # Per-client data path: hold out validation first so oversampling
    # never leaks synthetic neighbors into the early-stopping score, and
    # monitor windows are drawn from the real training windows alone, so
    # no alert feeds a near-copy of a validation window into training.
    smote_streams = ss_smote.spawn(len(client_ids))
    val_streams = ss_val.spawn(len(client_ids))
    train_by_client: dict[str, list[SequenceWindow]] = {}
    val_by_client: dict[str, list[SequenceWindow]] = {}
    real_by_client: dict[str, list[SequenceWindow]] = {}
    for i, cid in enumerate(client_ids):
        raw = dataset.train_by_client[cid]
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
        train_by_client[cid] = tr
        val_by_client[cid] = va
    if sum(len(v) for v in val_by_client.values()) == 0:
        raise ConfigError(
            "validation split came out empty; provide more training windows per client"
        )

    init = init_params(input_size, config.hidden_size, np.random.default_rng(ss_init))
    threshold = config.classification_threshold
    central = scenario == "central"
    ensemble = scenario == "epfl_swa"

    if central:
        pooled = [w for cid in sorted(train_by_client) for w in train_by_client[cid]]
        members = [("central", pooled)]
    else:
        members = [(cid, train_by_client[cid]) for cid in client_ids]
    clients = [
        ClientState(
            client_id=cid,
            dataset=PrivateDataset(cid, windows),
            local_params=init.copy(),
            adam=None,
            rng=np.random.default_rng(client_seeds[i]),
        )
        for i, (cid, windows) in enumerate(members)
    ]
    # The central trainer's model is the global model, so only federated
    # scenarios keep per-client models for inference and the result.
    local_clients = [] if central else clients

    transport = None
    if config.encrypt_transport and not central:
        key = keygen(config.he_key_bits, seed=config.seed)
        codec = FixedPointCodec(scale_bits=config.fixed_point_bits, clip_range=config.clip_range)
        transport = TransportConfig(key=key, codec=codec, rng=_random.Random(int(ss_transport.generate_state(1)[0])))

    feedback_on = ensemble and config.feedback_enabled
    oracle_rng = None
    monitor_rngs: dict[str, np.random.Generator] = {}
    if feedback_on:
        fb_streams = ss_feedback.spawn(len(client_ids) + 1)
        oracle_rng = np.random.default_rng(fb_streams[-1])
        monitor_rngs = {
            cid: np.random.default_rng(fb_streams[i]) for i, cid in enumerate(client_ids)
        }

    val_labels = {cid: _labels_of(windows) for cid, windows in val_by_client.items()}
    global_vec = params_to_vector(init)
    round_log: list = []
    loss_curve: list = []
    feedback_events: list[FeedbackEvent] = []
    history: list[float] = []  # one validation score per round run

    for r in range(config.global_epochs):
        if scenario == "fl_fedavg":
            for c in clients:
                c.local_params = vector_to_params(global_vec, input_size, config.hidden_size)
                c.adam = None
        result = run_round(
            global_vec,
            clients,
            config,
            strategy="swa" if scenario in ("pfl_swa", "epfl_swa") else "fedavg",
            round_index=r,
            transport=transport,
        )
        global_vec = result.global_params
        round_log.extend(result.entries)

        global_model = vector_to_params(global_vec, input_size, config.hidden_size)
        client_models = {c.client_id: c.local_params for c in clients} if ensemble else None

        # One scoring pass per round: each client's monitor windows, a group
        # of one each, then its validation windows as one group. The draws
        # and alerts stay here in client order, and no alert fires before
        # every forward has run, so a failing forward changes no client.
        groups = {cid: [windows] for cid, windows in val_by_client.items()}
        monitored: list = []  # (client, its monitor windows)
        for c in clients if feedback_on else ():
            real = real_by_client[c.client_id]
            if not real:
                continue
            rng = monitor_rngs[c.client_id]
            windows = [
                _make_monitor_window(real[int(rng.integers(0, len(real)))], c.client_id, r, rng)
                for _ in range(config.monitor_windows_per_round)
            ]
            monitored.append((c, windows))
            groups[c.client_id] = [[w] for w in windows] + groups[c.client_id]
        probs = _probabilities(groups, global_model, client_models)
        val_probs = {cid: client_probs[-1] for cid, client_probs in probs.items()}
        for c, windows in monitored:
            alerts = 0
            for window, prob in zip(windows, probs[c.client_id]):
                event = alert_and_feedback(c, window, float(prob[0]), oracle_rng, config, r)
                if event is not None:
                    feedback_events.append(event)
                    alerts += 1
            round_log.append(
                {
                    "round": r,
                    "client": c.client_id,
                    "event": "feedback",
                    "alerts": alerts,
                    "dataset_size": len(c.dataset),
                }
            )
        val_metrics = report_from_probabilities(val_probs, val_labels, threshold)
        score = val_metrics.recall + val_metrics.f1
        history.append(score)
        mean_loss = float(np.mean([e["loss"] for e in result.entries if "loss" in e]))
        round_log.append(
            {
                "round": r,
                "event": "validation",
                "inference": "ensemble" if ensemble else "global",
                "val_recall": val_metrics.recall,
                "val_f1": val_metrics.f1,
                "score": score,
            }
        )
        loss_curve.append(
            {
                "round": r,
                "train_loss": mean_loss,
                "val_recall": val_metrics.recall,
                "val_f1": val_metrics.f1,
            }
        )
        # argmax keeps the earliest of tied scores: only a strict improvement moves it
        best = int(np.argmax(history))
        if best == r:  # always so in round 0
            best_global = global_model
            best_locals = {c.client_id: c.local_params.copy() for c in local_clients}
        if early_stop_check(history, config.early_stop_patience):
            round_log.append({"round": r, "event": "early_stop", "best_round": best})
            break

    scored = _probabilities(
        {cid: [windows] for cid, windows in dataset.test_by_client.items()},
        best_global,
        best_locals if ensemble else None,
    )
    test_probs = {cid: probs for cid, (probs,) in scored.items()}
    test_labels = {cid: _labels_of(dataset.test_by_client[cid]) for cid in test_probs}
    metrics = report_from_probabilities(
        test_probs, test_labels, threshold, scenario, fingerprint, config.seed
    )
    return SimulationResult(
        metrics=metrics,
        round_log=round_log,
        loss_curve=loss_curve,
        feedback_events=feedback_events,
        rounds_run=len(history),
        best_round=best,
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
