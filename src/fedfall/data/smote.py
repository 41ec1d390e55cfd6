"""Minority oversampling by nearest-neighbor interpolation.

Windows are flattened to T*F vectors; each synthetic sample lies on the
segment between a random minority sample and one of its k nearest minority
neighbors. Originals are never modified; synthesis stops as soon as the
minority share reaches the target.
"""

from __future__ import annotations

import logging

import numpy as np

from fedfall.data.windows import SequenceWindow, check_window_shapes

logger = logging.getLogger(__name__)


def smote_oversample(
    windows: list[SequenceWindow],
    target_minority_fraction: float,
    k: int,
    rng: np.random.Generator,
) -> list[SequenceWindow]:
    """Append synthetic minority windows until minority/total >= target.

    Needs at least k+1 minority samples; with fewer, the input is returned
    unchanged with a warning. Balanced or minority-free inputs are returned
    unchanged as well.
    """
    if not 0.0 < target_minority_fraction < 1.0:
        raise ValueError(f"target fraction must be in (0,1), got {target_minority_fraction}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    n = len(windows)
    pos = [w for w in windows if w.label == 1]
    neg = n - len(pos)
    if not pos or len(pos) == neg:
        return list(windows)
    minority = pos if len(pos) < neg else [w for w in windows if w.label == 0]
    if len(minority) / n >= target_minority_fraction:
        return list(windows)
    if len(minority) < k + 1:
        logger.warning(
            "only %d minority windows (< k+1 = %d): oversampling skipped",
            len(minority),
            k + 1,
        )
        return list(windows)

    label = minority[0].label
    shape = minority[0].values.shape
    try:
        flat = np.stack([w.values.ravel() for w in minority])
    except ValueError:
        check_window_shapes(minority)
        raise
    # pairwise Euclidean distances among minority samples
    sq = np.sum(flat**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (flat @ flat.T)
    np.fill_diagonal(d2, np.inf)
    neighbor_ids = np.argsort(d2, axis=1, kind="stable")[:, :k]

    out = list(windows)
    m = len(minority)
    synthesized = 0
    while (m + synthesized) / (n + synthesized) < target_minority_fraction:
        i = int(rng.integers(0, m))
        j = int(neighbor_ids[i, rng.integers(0, k)])
        u = float(rng.uniform())
        vec = flat[i] + u * (flat[j] - flat[i])
        out.append(
            SequenceWindow(
                values=vec.reshape(shape),
                label=label,
                origin=(minority[i].origin[0], "synthetic", -1),
            )
        )
        synthesized += 1
    return out
