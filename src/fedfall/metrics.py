"""Classification metrics: one function, one counting pass.

``report_from_probabilities`` is the one way from fall probabilities to a
``MetricsReport``. It counts each client's windows once and sums the counts:
precision = TP/(TP+FP), recall = TP/(TP+FN), f1 = 2PR/(P+R), accuracy =
(TP+TN)/total. Zero denominators yield 0.0 and are flagged as degenerate
rather than raised, so parameter sweeps keep running through useless
corners of the grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: tuple[str, ...] = ()
    per_client: dict[str, float | None] = field(default_factory=dict)
    scenario: str = ""
    config_fingerprint: str = ""
    seed: int = 0

    def to_dict(self) -> dict:
        return {**asdict(self), "degenerate": list(self.degenerate)}


def report_from_probabilities(
    probs_by_client: dict[str, np.ndarray],
    labels_by_client: dict[str, np.ndarray],
    threshold: float,
    scenario: str = "",
    config_fingerprint: str = "",
    seed: int = 0,
) -> MetricsReport:
    """Pooled metrics plus per-client recall.

    A window is a fall when its probability is strictly above ``threshold``,
    which must lie in (0, 1). Clients are counted in sorted order; one with
    no positive windows has recall None. Training-time validation, final
    test scoring and the ``evaluate`` replay of saved predictions all go
    through here.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    tp = tn = fp = fn = 0
    per_client: dict[str, float | None] = {}
    for cid in sorted(probs_by_client):
        predicted = np.asarray(probs_by_client[cid]) > threshold
        labels = np.asarray(labels_by_client[cid]).astype(bool)
        if predicted.shape != labels.shape:
            raise ValueError(f"client {cid!r}: predicted {predicted.shape} vs labels {labels.shape}")
        c_tp = int(np.sum(predicted & labels))
        c_fn = int(np.sum(~predicted & labels))
        per_client[cid] = c_tp / (c_tp + c_fn) if c_tp + c_fn else None
        tp += c_tp
        fn += c_fn
        fp += int(np.sum(predicted & ~labels))
        tn += int(np.sum(~predicted & ~labels))
    total = tp + tn + fp + fn
    if total == 0:
        raise ValueError("no evaluated windows: all confusion counts are zero")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    denominators = (("precision", tp + fp), ("recall", tp + fn), ("f1", precision + recall))
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        degenerate=tuple(name for name, d in denominators if not d > 0),
        per_client=per_client,
        scenario=scenario,
        config_fingerprint=config_fingerprint,
        seed=seed,
    )
