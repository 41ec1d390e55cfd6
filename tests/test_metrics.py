"""Metric formulas against brute-force recounts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfall.metrics import MetricsReport, report_from_probabilities


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


def one_client(tp=0, fn=0, fp=0, tn=0):
    """Probabilities and labels of one client with the given confusion counts
    at a threshold of 0.5."""
    probs = np.array([0.9] * tp + [0.1] * fn + [0.9] * fp + [0.1] * tn)
    labels = np.array([1] * (tp + fn) + [0] * (fp + tn))
    return probs, labels


def report(tp=0, fn=0, fp=0, tn=0):
    probs, labels = one_client(tp=tp, fn=fn, fp=fp, tn=tn)
    return report_from_probabilities({"A": probs}, {"A": labels}, 0.5)


class TestComputeMetrics:
    def test_recall_and_precision_direct(self):
        r = report(tp=88, fn=12, fp=0, tn=0)
        assert r.recall == 0.88
        assert r.precision == 1.0

    def test_all_correct(self):
        r = report(tp=10, tn=90, fp=0, fn=0)
        assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)
        assert r.degenerate == ()

    def test_reference_row(self):
        # integer counts that reproduce the published reference model's
        # four headline values at 4 decimal places
        r = report(tp=219, tn=6586, fp=20, fn=29)
        assert round(r.accuracy, 4) == 0.9929
        assert round(r.precision, 4) == 0.9163
        assert round(r.recall, 4) == 0.8831
        assert round(r.f1, 4) == 0.8994

    def test_zero_denominators_flagged(self):
        r = report(tp=0, tn=50, fp=0, fn=0)
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0
        assert r.degenerate == ("precision", "recall", "f1")
        assert r.accuracy == 1.0

    def test_no_positives_predicted(self):
        r = report(tp=0, tn=40, fp=0, fn=10)
        assert "precision" in r.degenerate
        assert "recall" not in r.degenerate
        assert r.recall == 0.0  # tp=0 with fn>0 is a defined zero, not degenerate
        assert r.f1 == 0.0 and "f1" in r.degenerate

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no evaluated windows"):
            report()
        with pytest.raises(ValueError, match="no evaluated windows"):
            report_from_probabilities({}, {}, 0.5)

    def test_f1_identity(self):
        r = report(tp=7, tn=80, fp=3, fn=5)
        assert r.f1 == pytest.approx(
            2 * r.precision * r.recall / (r.precision + r.recall), abs=1e-15
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        threshold = float(rng.uniform(0.05, 0.95))
        probs = rng.uniform(size=n)
        labels = rng.uniform(size=n) > rng.uniform(0.05, 0.95)
        r = report_from_probabilities({"A": probs}, {"A": labels}, threshold)
        predicted = [p > threshold for p in probs.tolist()]
        acc, prec, rec, f1 = brute_force(predicted, labels.tolist())
        assert r.accuracy == acc
        assert r.precision == prec
        assert r.recall == rec
        assert r.f1 == f1


class TestPerClientRecall:
    def test_all_correct_client(self):
        probs, labels = one_client(tp=2, tn=1)
        out = report_from_probabilities({"A": probs}, {"A": labels}, 0.5).per_client
        assert out["A"] == 1.0

    def test_no_positive_windows_is_none(self):
        probs, labels = one_client(fp=1, tn=1)
        out = report_from_probabilities({"B": probs}, {"B": labels}, 0.5).per_client
        assert out["B"] is None

    def test_global_recall_is_weighted_average(self):
        rng = np.random.default_rng(3)
        probs, labels = {}, {}
        for cid in "ABCDE":
            n = int(rng.integers(20, 60))
            y = (rng.uniform(size=n) < 0.3).astype(int)
            p = np.where(rng.uniform(size=n) < 0.8, y, 1 - y)
            probs[cid] = np.where(p == 1, 0.9, 0.1)
            labels[cid] = y
        r = report_from_probabilities(probs, labels, 0.5)
        per = r.per_client
        weights = {cid: int((labels[cid] == 1).sum()) for cid in labels}
        weighted = sum(per[c] * weights[c] for c in labels if per[c] is not None) / sum(
            weights.values()
        )
        assert r.recall == pytest.approx(weighted, abs=1e-12)


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

    def test_mismatched_pair_names_the_client(self):
        probs = {"A": np.array([0.9]), "B": np.array([0.9, 0.1])}
        labels = {"A": np.array([1]), "B": np.array([1])}
        with pytest.raises(ValueError, match=r"client 'B': predicted \(2,\) vs labels \(1,\)"):
            report_from_probabilities(probs, labels, 0.5)

    def test_threshold_checked_before_the_windows(self):
        with pytest.raises(ValueError, match="threshold must be in"):
            report_from_probabilities({}, {}, 1.0)


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
