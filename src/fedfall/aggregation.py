"""Robust federated aggregation.

Two strategies over flat parameter vectors:

* ``fedavg`` — sample-count-weighted mean of client weights.
* ``swa_aggregate`` — epoch normalization of each update, coordinate-wise
  trimmed mean across clients, then exponential-moving-average fusion into
  the previous global model.

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
bit-for-bit reproducible against a scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedfall.config import MODES, ExperimentConfig
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


def _validate_vector(vec: np.ndarray, what: str, dim: int | None = None) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ShapeMismatchError(f"{what} must be a flat vector, got shape {vec.shape}")
    if dim is not None and vec.shape[0] != dim:
        raise ShapeMismatchError(f"{what} has length {vec.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{what} contains non-finite values")
    return vec


def fednova_normalize(update: ClientUpdate, global_params: np.ndarray, mode: str) -> np.ndarray:
    """Scale one client's contribution by its local epoch count.

    delta mode: (w_i - w_g) / e_i; literal mode: w_i / e_i.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    g = _validate_vector(global_params, "global_params")
    w = _validate_vector(update.params, f"update {update.client_id!r}", dim=g.shape[0])
    if mode == "delta":
        return (w - g) / update.epochs_trained
    return w / update.epochs_trained


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


def _sorted_stack(vectors: list[np.ndarray]) -> np.ndarray:
    stack = np.stack(vectors)
    # stable sort keeps the incoming (client) order among tied values
    return np.sort(stack, axis=0, kind="stable")


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
    srt = _sorted_stack(rows)
    # ascending left-to-right accumulation per coordinate, one row at a time
    return _ordered_mean([srt[i] for i in range(m, n - m)])


def ema_fuse(global_params: np.ndarray, aggregated: np.ndarray, alpha: float, mode: str) -> np.ndarray:
    """Fold the aggregated update into the previous global model.

    literal mode: (1 - alpha) * w_g + alpha * aggregated (a convex blend of
    weights); delta mode: w_g + alpha * aggregated (the aggregate is a
    normalized delta).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    g = _validate_vector(global_params, "global_params")
    a = _validate_vector(aggregated, "aggregated", dim=g.shape[0])
    if mode == "delta":
        return g + alpha * a
    return (1.0 - alpha) * g + alpha * a


def swa_aggregate(
    global_params: np.ndarray, updates: list[ClientUpdate], config: ExperimentConfig
) -> np.ndarray:
    """normalize -> trim -> fuse, with the config's ``swa_mode`` throughout.

    Reads ``beta``, ``alpha``, ``swa_mode`` and ``trim_enabled``.
    ``trim_enabled=False`` bypasses the trimming stage entirely (plain mean
    of normalized updates); the trim-count rule itself never yields m=0.
    """
    if not updates:
        raise ValueError("no updates to aggregate")
    g = _validate_vector(global_params, "global_params")
    ordered = sorted(updates, key=lambda u: u.client_id)
    normalized = [fednova_normalize(u, g, config.swa_mode) for u in ordered]
    if config.trim_enabled:
        mid = trimmed_mean(normalized, config.beta)
    else:
        mid = _ordered_mean(normalized)
    return ema_fuse(g, mid, config.alpha, config.swa_mode)


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
    return acc / total
