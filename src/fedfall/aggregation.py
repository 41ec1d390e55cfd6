"""Robust federated aggregation.

Two strategies over flat parameter vectors:

* ``fedavg`` — sample-count-weighted mean of client weights.
* ``swa_aggregate`` — one pass of three stages: epoch normalization of each
  update, coordinate-wise trimmed mean across clients, then
  exponential-moving-average fusion into the previous global model.

The composed rule has two interpretations, chosen by the config's
``swa_mode``:

* ``delta`` (default): the unit of aggregation is the client's movement
  w_i - w_g. Normalized deltas are trimmed and the fused delta is added to
  the global model. Robust and scale-preserving for any epoch count.
* ``literal``: the raw weights are divided by the epoch count and fused
  convexly. For epoch counts above one this contracts weights toward zero;
  it exists so both readings can be compared experimentally.

Trimmed means are computed by accumulating the retained values of each
coordinate in ascending order, one addition at a time, so results are
bit-for-bit reproducible against a scalar reference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedfall.config import ExperimentConfig
from fedfall.errors import AggregationInfeasibleError, ShapeMismatchError


@dataclass(frozen=True)
class ClientUpdate:
    """One client's contribution to a round."""

    client_id: str
    params: np.ndarray
    epochs_trained: int
    sample_count: int

    def __post_init__(self):
        if self.epochs_trained < 1:
            raise ValueError(f"epochs_trained must be >= 1, got {self.epochs_trained}")
        if self.sample_count < 0:
            raise ValueError(f"sample_count must be >= 0, got {self.sample_count}")


def _validate_vector(
    vec: np.ndarray, what: str, dim: int | None = None, finite: bool = True
) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ShapeMismatchError(f"{what} must be a flat vector, got shape {vec.shape}")
    if dim is not None and vec.shape[0] != dim:
        raise ShapeMismatchError(f"{what} has length {vec.shape[0]}, expected {dim}")
    if finite and not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} contains non-finite values")
    return vec


def trim_count(n: int, beta: float) -> int:
    """How many values to drop from each tail when trimming n values.

    m = floor(beta * n) when that is at least 1, otherwise 1. Raises when
    fewer than one value would survive.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = int(np.floor(beta * n))
    if m < 1:
        m = 1
    if n - 2 * m < 1:
        raise AggregationInfeasibleError(n=n, beta=beta, m=m)
    return m


def _ordered_mean(rows: list[np.ndarray]) -> np.ndarray:
    """Mean of rows accumulated one at a time, in the given order."""
    acc = np.zeros_like(rows[0])
    for row in rows:
        acc = acc + row
    return acc / len(rows)


def trimmed_mean(vectors: list[np.ndarray], beta: float) -> np.ndarray:
    """Coordinate-wise trimmed mean across client vectors.

    For each coordinate the n values are sorted ascending, the m smallest
    and m largest dropped, and the rest averaged, with m =
    ``trim_count(n, beta)``.
    """
    if not vectors:
        raise ValueError("no vectors to aggregate")
    dim = np.asarray(vectors[0]).shape[0]
    rows = [_validate_vector(v, f"vector {i}", dim=dim) for i, v in enumerate(vectors)]
    n = len(rows)
    m = trim_count(n, beta)
    # stable sort keeps the incoming (client) order among tied values
    srt = np.sort(np.stack(rows), axis=0, kind="stable")
    # ascending left-to-right accumulation per coordinate, one row at a time
    return _ordered_mean([srt[i] for i in range(m, n - m)])


def swa_aggregate(
    global_params: np.ndarray, updates: list[ClientUpdate], config: ExperimentConfig
) -> np.ndarray:
    """normalize -> trim -> fuse, with the config's ``swa_mode`` throughout.

    Each update is scaled by its local epoch count e_i: (w_i - w_g) / e_i in
    delta mode, w_i / e_i in literal mode. The scaled updates are trimmed
    (``trimmed_mean`` with the config's ``beta``) and fused with ``alpha``:
    w_g + alpha * a in delta mode, (1 - alpha) * w_g + alpha * a in literal
    mode. ``trim_enabled=False`` bypasses the trimming stage entirely (plain
    mean of normalized updates); the trim-count rule itself never yields m=0.
    The global vector is validated once, and each update's finiteness once,
    after normalization, so the error names the client both for a
    non-finite update and for a finite one whose normalized delta
    overflows; ``ExperimentConfig`` has already validated the mode and
    ``alpha``.
    """
    if not updates:
        raise ValueError("no updates to aggregate")
    g = _validate_vector(global_params, "global_params")
    delta = config.swa_mode == "delta"
    normalized = []
    for u in sorted(updates, key=lambda u: u.client_id):
        w = _validate_vector(u.params, f"update {u.client_id!r}", dim=g.shape[0], finite=False)
        row = (w - g if delta else w) / u.epochs_trained
        normalized.append(_validate_vector(row, f"normalized update {u.client_id!r}"))
    # finite rows can still sum past the float range
    mid = _validate_vector(
        trimmed_mean(normalized, config.beta) if config.trim_enabled else _ordered_mean(normalized),
        "aggregated",
    )
    if delta:
        return g + config.alpha * mid
    return (1.0 - config.alpha) * g + config.alpha * mid


def fedavg(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count-weighted mean of client parameter vectors."""
    if not updates:
        raise ValueError("no updates to aggregate")
    total = sum(u.sample_count for u in updates)
    if total <= 0:
        raise ValueError("total sample count is zero")
    ordered = sorted(updates, key=lambda u: u.client_id)
    dim = np.asarray(ordered[0].params).shape[0]
    acc = np.zeros(dim)
    for u in ordered:
        w = _validate_vector(u.params, f"update {u.client_id!r}", dim=dim)
        acc = acc + u.sample_count * w
    # finite weights can still sum past the float range once weighted
    return _validate_vector(acc / total, "aggregated")
