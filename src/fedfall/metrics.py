"""Classification metrics and per-client breakdowns.

All four headline metrics come from one confusion-count pass. Zero
denominators yield 0.0 and are flagged as degenerate rather than raised, so
parameter sweeps keep running through useless corners of the grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def counts_from_predictions(predicted: np.ndarray, labels: np.ndarray) -> ConfusionCounts:
    """Confusion counts from binary predicted/true label arrays."""
    predicted = np.asarray(predicted).astype(bool)
    labels = np.asarray(labels).astype(bool)
    if predicted.shape != labels.shape:
        raise ValueError(f"predicted {predicted.shape} vs labels {labels.shape}")
    return ConfusionCounts(
        tp=int(np.sum(predicted & labels)),
        tn=int(np.sum(~predicted & ~labels)),
        fp=int(np.sum(predicted & ~labels)),
        fn=int(np.sum(~predicted & labels)),
    )


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


def compute_metrics(counts: ConfusionCounts) -> MetricsReport:
    """Accuracy, precision, recall, F1 from confusion counts.

    precision = TP/(TP+FP), recall = TP/(TP+FN), f1 = 2PR/(P+R),
    accuracy = (TP+TN)/total. A metric whose denominator is zero is
    reported as 0.0 and named in ``degenerate``.
    """
    if counts.total == 0:
        raise ValueError("no evaluated windows: all confusion counts are zero")
    degenerate = []
    accuracy = (counts.tp + counts.tn) / counts.total
    if counts.tp + counts.fp > 0:
        precision = counts.tp / (counts.tp + counts.fp)
    else:
        precision = 0.0
        degenerate.append("precision")
    if counts.tp + counts.fn > 0:
        recall = counts.tp / (counts.tp + counts.fn)
    else:
        recall = 0.0
        degenerate.append("recall")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        degenerate.append("f1")
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        degenerate=tuple(degenerate),
    )


def classify(probability, threshold: float):
    """1 iff probability strictly exceeds the threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    arr = np.asarray(probability)
    out = (arr > threshold).astype(int)
    return int(out) if out.ndim == 0 else out


def per_client_recall(
    partitioned: dict[str, tuple[np.ndarray, np.ndarray]],
) -> dict[str, float | None]:
    """Recall within each client's own test windows.

    ``partitioned`` maps client id to (predicted, labels). A client with no
    positive test windows has undefined recall, reported as None.
    """
    out: dict[str, float | None] = {}
    for cid, (predicted, labels) in partitioned.items():
        c = counts_from_predictions(predicted, labels)
        if c.tp + c.fn == 0:
            out[cid] = None
        else:
            out[cid] = c.tp / (c.tp + c.fn)
    return out


def report_from_probabilities(
    probs_by_client: dict[str, np.ndarray],
    labels_by_client: dict[str, np.ndarray],
    threshold: float,
    scenario: str = "",
    config_fingerprint: str = "",
    seed: int = 0,
) -> MetricsReport:
    """Score per-client probabilities: pooled metrics plus per-client recall.

    Windows are labelled by ``classify``. Training-time validation, final
    test scoring and the ``evaluate`` replay of saved predictions all go
    through here.
    """
    partition = {
        cid: (classify(probs_by_client[cid], threshold), np.asarray(labels_by_client[cid]))
        for cid in sorted(probs_by_client)
    }
    core = compute_metrics(
        counts_from_predictions(
            np.concatenate([np.zeros(0, dtype=int)] + [p for p, _ in partition.values()]),
            np.concatenate([np.zeros(0, dtype=int)] + [l for _, l in partition.values()]),
        )
    )
    return replace(
        core,
        per_client=per_client_recall(partition),
        scenario=scenario,
        config_fingerprint=config_fingerprint,
        seed=seed,
    )
