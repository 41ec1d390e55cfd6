"""Acceptance gate: every headline requirement, one pass/fail line each.

Each test prints ``ACCEPTANCE <criterion>: PASS|FAIL`` before asserting, so
a ``pytest -v -s tests/test_acceptance.py`` run reads as a checklist. The
paper-scale reproduction is conditional on a local copy of the source CSV
and reports soft comparisons instead of failing.
"""

import os
import time
import warnings

import numpy as np
import pytest

from fedfall.aggregation import (
    ClientUpdate,
    fedavg,
    swa_aggregate,
    trim_count,
    trimmed_mean,
)
from fedfall.config import ExperimentConfig
from fedfall.data.synthetic import make_synthetic_dataset
from fedfall.federation import ClientState, PrivateDataset, local_train
from fedfall.metrics import compute_metrics, counts_from_predictions
from fedfall.nn import (
    bce_loss,
    gradient_check,
    init_params,
    model_forward,
    params_to_vector,
    vector_to_params,
)
from fedfall.secure_transport import FixedPointCodec, keygen, secure_mean_demo
from fedfall.simulate import simulate_full

from oracles import scalar_trimmed_mean
from separable import make_separable_dataset

import random as _random


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for i in range(20):
        hidden = 4 if i % 2 == 0 else 8
        params = init_params(3, hidden, seed=100 + i)
        batch = rng.normal(size=(6, 5, 3))
        labels = (np.arange(6) % 2).astype(float)
        report = gradient_check(params, batch, labels, n_coords=30, tol=1e-4, rng=rng)
        worst = max(worst, report.max_rel_err)
        assert not report.failures, f"model {i}: {report.failures[:3]}"
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    _report("gradient-correctness", ok, f"max_rel_err={worst:.3e} over 20 models, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_aggregation_oracle_equivalence():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(3, 21))
        d = int(rng.integers(1, 51))
        rows = rng.normal(size=(n, d))
        if trial % 5 == 0:
            rows = np.round(rows, 1)  # force ties to exercise stable ordering
        beta = float(rng.uniform(0.0, 0.5))
        m = trim_count(n, beta)
        if n - 2 * m < 1:
            continue
        ours = trimmed_mean([rows[i] for i in range(n)], beta)
        oracle = np.asarray(scalar_trimmed_mean([list(r) for r in rows], m))
        assert np.array_equal(ours, oracle), f"trial {trial}: mismatch"
        checked += 1

    rng_med = np.random.default_rng(8)
    for _ in range(50):
        rows = rng_med.normal(size=(3, 17))
        ours = trimmed_mean([rows[0], rows[1], rows[2]], 0.1)
        assert np.array_equal(ours, np.median(rows, axis=0))

    _report(
        "aggregation-oracle-equivalence", True,
        f"{checked} random instances bit-for-bit, n=3 median exact",
    )


def _trained_updates(seed: int, global_vec: np.ndarray, split, config: ExperimentConfig):
    root = np.random.SeedSequence(seed)
    updates = []
    for cid, child in zip(sorted(split.train_by_client), root.spawn(5)):
        client = ClientState(
            client_id=cid,
            dataset=PrivateDataset(cid, split.train_by_client[cid]),
            local_params=vector_to_params(global_vec.copy(), 9, 8),
            adam=None,
            rng=np.random.default_rng(child),
        )
        updates.append(local_train(client, global_vec, config)[0])
    return updates


def _pooled_test_loss(vec: np.ndarray, split) -> float:
    model = vector_to_params(vec, 9, 8)
    batch = np.stack([w.values for w in split.test])
    labels = np.asarray([w.label for w in split.test], dtype=float)
    probs, _ = model_forward(model, batch, mode="eval")
    return bce_loss(probs, labels)[0]


def test_swa_robustness_against_scaled_client():
    started = time.perf_counter()
    wins = 0
    config = ExperimentConfig(
        global_epochs=1, client_epochs=1, batch_size=16, lr=0.01, mu=0.01,
    )
    for seed in range(10):
        split = make_separable_dataset(
            seed=seed, n_clients=5, train_per_client=40, test_per_client=20,
            window=10, features=9,
        )
        global_vec = params_to_vector(init_params(9, 8, seed=seed))
        updates = _trained_updates(seed, global_vec, split, config)
        corrupted = [
            ClientUpdate(
                client_id=u.client_id,
                params=u.params * 1000.0 if i == 0 else u.params,
                epochs_trained=u.epochs_trained,
                sample_count=u.sample_count,
            )
            for i, u in enumerate(updates)
        ]
        swa_loss = _pooled_test_loss(
            swa_aggregate(global_vec, corrupted, ExperimentConfig()), split
        )
        avg_loss = _pooled_test_loss(fedavg(corrupted), split)
        if swa_loss < avg_loss:
            wins += 1
    elapsed = time.perf_counter() - started
    ok = wins >= 9 and elapsed < 300.0
    _report("swa-robustness", ok, f"{wins}/10 seeds, {elapsed:.1f}s")
    assert wins >= 9
    assert elapsed < 300.0


def test_degeneracy_collapse_to_fedavg():
    split = make_separable_dataset(
        seed=3, n_clients=4, train_per_client=32, test_per_client=4,
        window=8, features=9,
    )
    config = ExperimentConfig(
        global_epochs=1, client_epochs=1, batch_size=16, lr=0.01, mu=0.0,
        beta=0.1, alpha=1.0, swa_mode="literal", trim_enabled=False,
    )
    global_vec = params_to_vector(init_params(9, 8, seed=11))
    root = np.random.SeedSequence(11)
    updates = []
    for cid, child in zip(sorted(split.train_by_client), root.spawn(4)):
        client = ClientState(
            client_id=cid,
            dataset=PrivateDataset(cid, split.train_by_client[cid]),
            local_params=vector_to_params(global_vec.copy(), 9, 8),
            adam=None,
            rng=np.random.default_rng(child),
        )
        updates.append(local_train(client, global_vec, config)[0])  # equal epoch counts
    assert len({u.sample_count for u in updates}) == 1  # equal sample counts
    gap = np.max(np.abs(swa_aggregate(global_vec, updates, config) - fedavg(updates)))
    ok = gap <= 1e-12
    _report("degeneracy-collapse", ok, f"L_inf gap {gap:.3e}")
    assert gap <= 1e-12


def test_he_demonstration_matches_plaintext():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    updates = [rng.uniform(-1.0, 1.0, size=1000) for _ in range(5)]
    key = keygen(256, seed=0)
    codec = FixedPointCodec(scale_bits=20, clip_range=100.0)
    secure = secure_mean_demo(updates, key, codec, _random.Random(1))
    plain = np.mean(np.stack(updates), axis=0)
    gap = float(np.max(np.abs(secure - plain)))
    elapsed = time.perf_counter() - started
    ok = gap <= 1e-5 and elapsed < 120.0
    _report("he-demonstration", ok, f"L_inf gap {gap:.3e}, {elapsed:.1f}s")
    assert gap <= 1e-5
    assert elapsed < 120.0


def test_metrics_exactness_against_recount():
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        n = int(rng.integers(1, 40))
        predicted = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        counts = counts_from_predictions(predicted, labels)
        tp = fp = tn = fn = 0
        for p, y in zip(predicted.tolist(), labels.tolist()):
            if p == 1 and y == 1:
                tp += 1
            elif p == 1 and y == 0:
                fp += 1
            elif p == 0 and y == 0:
                tn += 1
            else:
                fn += 1
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
        report = compute_metrics(counts)
        accuracy = (tp + tn) / n
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        assert report.accuracy == accuracy
        assert report.precision == precision
        assert report.recall == recall
        assert report.f1 == f1
    _report("metrics-exactness", True, "10000 random sets, exact")


def _recall_spread(per_client: dict) -> float:
    values = [v for v in per_client.values() if v is not None]
    return max(values) - min(values)


E2E_CONFIG = dict(
    seed=0,
    hidden_size=16,
    global_epochs=60,
    client_epochs=3,
    batch_size=32,
    lr=0.003,
    smote_target=0.25,
    early_stop_patience=10,
)


def test_synthetic_end_to_end():
    config = ExperimentConfig(**E2E_CONFIG)
    dataset = make_synthetic_dataset(seed=config.seed, window=config.window, stride=2)
    started = time.perf_counter()
    epfl = simulate_full(dataset, config, "epfl_swa")
    elapsed = time.perf_counter() - started
    recall, f1 = epfl.metrics.recall, epfl.metrics.f1
    rounds = epfl.rounds_run

    fed = simulate_full(dataset, config, "fl_fedavg")
    epfl_spread = _recall_spread(epfl.metrics.per_client)
    fed_spread = _recall_spread(fed.metrics.per_client)

    ok = (
        recall >= 0.95 and f1 >= 0.90 and rounds <= 60 and elapsed < 900.0
        and epfl_spread <= fed_spread
    )
    _report(
        "synthetic-end-to-end", ok,
        f"recall={recall:.4f} f1={f1:.4f} rounds={rounds} {elapsed:.0f}s "
        f"spread {epfl_spread:.4f} vs fedavg {fed_spread:.4f}",
    )
    assert recall >= 0.95
    assert f1 >= 0.90
    assert rounds <= 60
    assert elapsed < 900.0
    assert epfl_spread <= fed_spread


def test_feedback_loop_growth_and_consumption():
    dataset = make_separable_dataset(
        seed=1, n_clients=3, train_per_client=24, test_per_client=8,
        window=6, features=3,
    )
    config = ExperimentConfig(
        hidden_size=4, global_epochs=4, client_epochs=1, batch_size=16,
        lr=0.01, smote_target=0.0, feedback_enabled=True, feedback_noise_p=0.0,
        monitor_windows_per_round=8, seed=1,
    )
    result = simulate_full(dataset, config, "epfl_swa")
    feedback_rows = [e for e in result.round_log if e.get("event") == "feedback"]
    train_rows = [e for e in result.round_log if "client" in e and "event" not in e]
    sizes = {}
    alerting = 0
    consumed = 0
    for row in feedback_rows:
        cid = row["client"]
        before = sizes.get(cid)
        if before is not None:
            grew = row["dataset_size"] - before["dataset_size"]
            assert grew == row["alerts"], f"{cid}: size moved {grew}, alerts {row['alerts']}"
        if row["alerts"] > 0:
            alerting += 1
            later = [
                t for t in train_rows
                if t["client"] == cid and t["round"] == row["round"] + 1
            ]
            for t in later:
                assert t["n_samples"] == row["dataset_size"]
                consumed += 1
        sizes[cid] = row
    assert alerting > 0, "scenario produced no alerts; nothing was exercised"
    assert consumed > 0, "no subsequent round trained on the grown dataset"
    _report(
        "feedback-loop", True,
        f"{alerting} alerting client-rounds, {consumed} consumptions verified",
    )


LDPA_ENV = "FEDFALL_LDPA_CSV"


@pytest.mark.skipif(
    LDPA_ENV not in os.environ,
    reason=f"paper-scale reproduction runs only when {LDPA_ENV} points at the source CSV",
)
def test_paper_scale_reproduction_runbook():
    """Conditional, not gating: compares against the published reference."""
    from fedfall.data.pipeline import prepare_dataset
    from fedfall.simulate import run_simulation

    split, _ = prepare_dataset(os.environ[LDPA_ENV], window=20, stride=1, seed=0)
    print(f"prepared {len(split.train)} train / {len(split.test)} test windows")
    config = ExperimentConfig()  # reference defaults
    reports = {}
    for scenario in ("fl_fedavg", "pfl_swa", "epfl_swa"):
        reports[scenario] = run_simulation(split, config, scenario)
        r = reports[scenario]
        print(f"{scenario}: recall={r.recall:.4f} f1={r.f1:.4f}")
    print("reference best row: recall=0.8831 f1=0.8994")
    f1 = {s: reports[s].f1 for s in reports}
    if not f1["epfl_swa"] >= f1["pfl_swa"] >= f1["fl_fedavg"]:
        warnings.warn(f"F1 ordering not reproduced at this scale: {f1}")
    _report("paper-scale-runbook", True, f"observed f1 {f1}")
