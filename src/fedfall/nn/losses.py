"""Training objective: clamped binary cross-entropy."""

from __future__ import annotations

import numpy as np

from fedfall.errors import ShapeMismatchError

# Probabilities are clamped into [CLAMP, 1 - CLAMP] before the log so a
# saturated sigmoid cannot produce an infinite loss.
CLAMP = 1e-7


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the probabilities.

    Where the clamp engages the gradient is zero: the clamped value no
    longer depends on the raw probability, and the finite-difference
    reference agrees.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise ShapeMismatchError(f"probs {probs.shape} vs labels {labels.shape}")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0 or 1")
    p = np.clip(probs, CLAMP, 1.0 - CLAMP)
    n = probs.size
    loss = float(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).mean())
    grad = (p - labels) / (p * (1.0 - p) * n)
    grad = np.where((probs > CLAMP) & (probs < 1.0 - CLAMP), grad, 0.0)
    return loss, grad

