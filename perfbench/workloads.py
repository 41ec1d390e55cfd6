"""The benchmark's workloads and the paper-scale projection formula.

Every workload trains on the synthetic corpus from ``make_synthetic_dataset``
(5 clients, window 20, stride 2: 12,000 train and 3,000 test windows) and
runs a fixed number of rounds. Early stopping is structurally impossible
(``early_stop_patience`` equals the round count), so every call does the
same work. The real UCI LDPA CSV is not in the repository; the synthetic
corpus stands in for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# make_synthetic_dataset's own defaults, spelled out so the projection
# below and the workload fingerprints do not depend on them silently.
CORPUS = dict(n_clients=5, sequences_per_client=5, sequence_length=1218, window=20, stride=2)
# A seconds-long corpus for the smoke test: same code path, 1/10 the windows.
SMOKE_CORPUS = dict(CORPUS, sequences_per_client=3, sequence_length=200)

# Paper-scale runbook: hidden 128, 60 rounds x 30 local epochs, stride 1.
RUNBOOK_ROUNDS = 60
RUNBOOK_EPOCHS = 30
RUNBOOK_STRIDE = 1


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    why: str
    config: dict
    # Layers (package modules) whose spans must record calls when traced.
    layers: tuple = ("data", "nn", "federation", "aggregation", "simulate")
    # Spans that carry this workload's mechanism and must record calls.
    spans: tuple = ()
    # Spans the workload bypasses: the prediction there is zero calls.
    bypassed: tuple = ()
    # Quality guard: the last round's train loss must beat the constant
    # predictor. It is a check, not a metric: at these short trainings the
    # loss spreads by a fifth or more from seed to seed.
    learns: bool = True
    smoke_config: dict = field(default_factory=dict)


_TRANSPORT_SPANS = (
    "secure_transport.keygen",
    "secure_transport.encrypt_vector",
    "secure_transport.decrypt_vector",
)

_COMMON = dict(window=20, stride=2, batch_size=32, lr=0.003, smote_target=0.25, client_epochs=1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="epfl_h16_feedback",
            scenario="epfl_swa",
            why=(
                "small LSTM where per-call overhead dominates; one layer used at batch 32, "
                "bulk batch and batch 1 (alert screening), with alerts every round"
            ),
            config=dict(
                _COMMON,
                hidden_size=16,
                global_epochs=2,
                feedback_enabled=True,
                feedback_noise_p=0.0,
                monitor_windows_per_round=100,
            ),
            spans=(
                "nn.model_forward.eval_single",
                "federation.ensemble_predict",
                "federation.alert_and_feedback",
                "aggregation.swa_aggregate",
            ),
            bypassed=_TRANSPORT_SPANS,
            smoke_config=dict(monitor_windows_per_round=5, lr=0.01, client_epochs=3),
        ),
        Workload(
            name="epfl_h128",
            scenario="epfl_swa",
            why="the paper's hidden 128: GEMM-bound LSTM forward and backward, no feedback",
            config=dict(_COMMON, hidden_size=128, global_epochs=1),
            spans=("aggregation.swa_aggregate",),
            bypassed=_TRANSPORT_SPANS + ("nn.model_forward.eval_single",),
            smoke_config=dict(hidden_size=8, lr=0.01, client_epochs=3),
        ),
        Workload(
            name="fedavg_he",
            scenario="fl_fedavg",
            why="Paillier transport of every client update at 1024 bits on a tiny model",
            config=dict(
                _COMMON, hidden_size=1, global_epochs=1, encrypt_transport=True, he_key_bits=1024
            ),
            layers=("data", "nn", "federation", "aggregation", "secure_transport", "simulate"),
            spans=_TRANSPORT_SPANS + ("aggregation.fedavg",),
            bypassed=("nn.model_forward.eval_single",),
            learns=False,  # one epoch of a 1-unit LSTM may not beat the prior
            smoke_config=dict(he_key_bits=256),
        ),
    )
}


def experiment_config(workload: Workload, seed: int, smoke: bool) -> dict:
    """ExperimentConfig keyword arguments for one workload at one seed."""
    values = dict(workload.config, seed=seed)
    if smoke:
        values.update(workload.smoke_config)
    values["early_stop_patience"] = values["global_epochs"]
    return values


def windows_per_sequence(sequence_length: int, window: int, stride: int) -> int:
    return (sequence_length - window) // stride + 1 if sequence_length >= window else 0


def paper_projection_h(epoch_windows: int, train_windows_per_s: float, corpus: dict) -> float:
    """PROJECTION, not a measurement: hours for the runbook at this throughput.

    runbook_windows = 60 rounds x 30 epochs x epoch_windows x stride_ratio
    projection_h    = runbook_windows / train_windows_per_s / 3600

    ``epoch_windows`` is the windows one epoch trains on in round 0 over all
    clients (after the validation hold-out and SMOTE), measured at the
    corpus stride. ``stride_ratio`` scales it to stride 1 by the count of
    windows per sequence; SMOTE keeps the minority share, so the trained
    count scales with it. The projection assumes time per trained window is
    fixed, which holds where training dominates (epfl_h128). Validation, test
    and transport run per round, not per epoch, so on the other workloads the
    figure is this workload's throughput applied to the runbook's windows.
    """
    length, window = corpus["sequence_length"], corpus["window"]
    stride_ratio = windows_per_sequence(length, window, RUNBOOK_STRIDE) / windows_per_sequence(
        length, window, corpus["stride"]
    )
    runbook_windows = RUNBOOK_ROUNDS * RUNBOOK_EPOCHS * epoch_windows * stride_ratio
    return runbook_windows / train_windows_per_s / 3600.0
