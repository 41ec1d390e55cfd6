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
bit-for-bit reproducible against a scalar reference.

A round holds the normalized updates once: ``swa_aggregate`` writes each
into its row of one (n, dim) matrix, ``trimmed_mean`` sorts that matrix in
place, and the kept rows are summed into one accumulator that is fused in
place: the matrix and at most two more vectors."""

from __future__ import annotations

import math
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


def _ordered_mean(rows: np.ndarray) -> np.ndarray:
    """Mean of a matrix's rows accumulated one at a time, in the given
    order, into one accumulator."""
    acc = np.zeros_like(rows[0])
    for row in rows:
        acc += row
    acc /= len(rows)
    return acc


def trimmed_mean(matrix: np.ndarray, beta: float) -> np.ndarray:
    """Coordinate-wise trimmed mean across the rows of a float64 (n, dim)
    matrix, one row per client.

    For each coordinate the n values are sorted ascending, the m smallest
    and m largest dropped, and the rest averaged, with m =
    ``trim_count(n, beta)``. The caller validates the matrix, as
    ``swa_aggregate`` does; it is sorted in place without a copy, so its
    rows come back reordered.
    """
    n = len(matrix)
    m = trim_count(n, beta)
    # stable sort keeps the incoming (client) order among tied values
    matrix.sort(axis=0, kind="stable")
    # ascending left-to-right accumulation per coordinate, one row at a time
    return _ordered_mean(matrix[m : n - m])


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
    ``alpha``. An infeasible trim raises before anything is allocated.

    The scaled updates are written, in client order, into the rows of one
    matrix that the trim sorts in place; the global vector and every
    update's params are left as they were.
    """
    if not updates:
        raise ValueError("no updates to aggregate")
    g = _validate_vector(global_params, "global_params")
    if config.trim_enabled:
        trim_count(len(updates), config.beta)
    delta = config.swa_mode == "delta"
    normalized = np.empty((len(updates), g.shape[0]))
    for row, u in zip(normalized, sorted(updates, key=lambda u: u.client_id)):
        w = _validate_vector(u.params, f"update {u.client_id!r}", dim=g.shape[0], finite=False)
        if delta:
            np.subtract(w, g, out=row)
            row /= u.epochs_trained
        else:
            np.divide(w, u.epochs_trained, out=row)
        _validate_vector(row, f"normalized update {u.client_id!r}")
    # finite rows can still sum past the float range
    fused = _validate_vector(
        trimmed_mean(normalized, config.beta) if config.trim_enabled else _ordered_mean(normalized),
        "aggregated",
    )
    # alpha * a + w_g equals w_g + alpha * a bit for bit: addition commutes
    fused *= config.alpha
    fused += g if delta else (1.0 - config.alpha) * g
    return fused


def fedavg(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count-weighted mean of client parameter vectors, the counts in
    lowest terms: a lone update comes back bit for bit (1 * w / 1), equal
    counts give the plain mean in client order, and coprime counts weigh in
    as they are."""
    if not updates:
        raise ValueError("no updates to aggregate")
    total = sum(u.sample_count for u in updates)
    if total <= 0:
        raise ValueError("total sample count is zero")
    divisor = math.gcd(*(u.sample_count for u in updates))
    ordered = sorted(updates, key=lambda u: u.client_id)
    dim = np.asarray(ordered[0].params).shape[0]
    acc = np.zeros(dim)
    for u in ordered:
        w = _validate_vector(u.params, f"update {u.client_id!r}", dim=dim)
        acc = acc + (u.sample_count // divisor) * w
    # finite weights can still sum past the float range once weighted
    return _validate_vector(acc / (total // divisor), "aggregated")
