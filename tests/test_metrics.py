"""Metric formulas against brute-force recounts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfall.metrics import (
    ConfusionCounts,
    MetricsReport,
    compute_metrics,
    counts_from_predictions,
    per_client_recall,
    report_from_probabilities,
)


def brute_force(predicted, labels):
    """Scalar recount, no shared code with the package."""
    tp = tn = fp = fn = 0
    for p, y in zip(predicted, labels):
        if p and y:
            tp += 1
        elif p and not y:
            fp += 1
        elif not p and y:
            fn += 1
        else:
            tn += 1
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return acc, prec, rec, f1


class TestComputeMetrics:
    def test_recall_and_precision_direct(self):
        r = compute_metrics(ConfusionCounts(tp=88, fn=12, fp=0, tn=0))
        assert r.recall == 0.88
        assert r.precision == 1.0

    def test_all_correct(self):
        r = compute_metrics(ConfusionCounts(tp=10, tn=90, fp=0, fn=0))
        assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)
        assert r.degenerate == ()

    def test_reference_row(self):
        # integer counts that reproduce the published reference model's
        # four headline values at 4 decimal places
        r = compute_metrics(ConfusionCounts(tp=219, tn=6586, fp=20, fn=29))
        assert round(r.accuracy, 4) == 0.9929
        assert round(r.precision, 4) == 0.9163
        assert round(r.recall, 4) == 0.8831
        assert round(r.f1, 4) == 0.8994

    def test_zero_denominators_flagged(self):
        r = compute_metrics(ConfusionCounts(tp=0, tn=50, fp=0, fn=0))
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0
        assert set(r.degenerate) == {"precision", "recall", "f1"}
        assert r.accuracy == 1.0

    def test_no_positives_predicted(self):
        r = compute_metrics(ConfusionCounts(tp=0, tn=40, fp=0, fn=10))
        assert "precision" in r.degenerate
        assert "recall" not in r.degenerate
        assert r.recall == 0.0  # tp=0 with fn>0 is a defined zero, not degenerate
        assert r.f1 == 0.0 and "f1" in r.degenerate

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(ConfusionCounts(0, 0, 0, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)

    def test_f1_identity(self):
        r = compute_metrics(ConfusionCounts(tp=7, tn=80, fp=3, fn=5))
        assert r.f1 == pytest.approx(
            2 * r.precision * r.recall / (r.precision + r.recall), abs=1e-15
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        predicted = rng.uniform(size=n) > rng.uniform(0.05, 0.95)
        labels = rng.uniform(size=n) > rng.uniform(0.05, 0.95)
        counts = counts_from_predictions(predicted, labels)
        assert counts.total == n
        r = compute_metrics(counts)
        acc, prec, rec, f1 = brute_force(predicted.tolist(), labels.tolist())
        assert r.accuracy == acc
        assert r.precision == prec
        assert r.recall == rec
        assert r.f1 == f1


class TestPerClientRecall:
    def test_all_correct_client(self):
        out = per_client_recall({"A": (np.array([1, 0, 1]), np.array([1, 0, 1]))})
        assert out["A"] == 1.0

    def test_no_positive_windows_is_none(self):
        out = per_client_recall({"B": (np.array([0, 1]), np.array([0, 0]))})
        assert out["B"] is None

    def test_global_recall_is_weighted_average(self):
        rng = np.random.default_rng(3)
        parts = {}
        all_p, all_y = [], []
        for cid in "ABCDE":
            n = int(rng.integers(20, 60))
            y = (rng.uniform(size=n) < 0.3).astype(int)
            p = np.where(rng.uniform(size=n) < 0.8, y, 1 - y)
            parts[cid] = (p, y)
            all_p.append(p)
            all_y.append(y)
        per = per_client_recall(parts)
        weights = {cid: int(((parts[cid][1]) == 1).sum()) for cid in parts}
        weighted = sum(per[c] * weights[c] for c in parts if per[c] is not None) / sum(
            weights.values()
        )
        overall = compute_metrics(
            counts_from_predictions(np.concatenate(all_p), np.concatenate(all_y))
        )
        assert overall.recall == pytest.approx(weighted, abs=1e-12)


class TestReportFromProbabilities:
    def test_strict_threshold_pooled_and_per_client(self):
        probs = {"B": np.array([0.9, 0.3, 0.1]), "A": np.array([0.3, 0.8]), "C": np.zeros(0)}
        labels = {"A": np.array([1, 0]), "B": np.array([1, 1, 0]), "C": np.zeros(0)}
        r = report_from_probabilities(probs, labels, 0.3, "central", "fp", 4)
        # 0.3 is not above the threshold: predictions A=[0,1], B=[1,0,0]
        expected = brute_force([0, 1, 1, 0, 0], [1, 0, 1, 1, 0])
        assert (r.accuracy, r.precision, r.recall, r.f1) == expected
        assert r.per_client == {"A": 0.0, "B": 0.5, "C": None}
        assert (r.scenario, r.config_fingerprint, r.seed) == ("central", "fp", 4)


class TestReportRoundtrip:
    def test_dict_roundtrip(self):
        r = MetricsReport(
            accuracy=0.9,
            precision=0.8,
            recall=0.7,
            f1=0.746,
            degenerate=(),
            per_client={"A": 1.0, "B": None},
            scenario="epfl_swa",
            config_fingerprint="abc123",
            seed=7,
        )
        assert r.to_dict() == {
            "accuracy": 0.9,
            "precision": 0.8,
            "recall": 0.7,
            "f1": 0.746,
            "degenerate": [],
            "per_client": {"A": 1.0, "B": None},
            "scenario": "epfl_swa",
            "config_fingerprint": "abc123",
            "seed": 7,
        }
