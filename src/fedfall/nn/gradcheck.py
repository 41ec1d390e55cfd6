"""Finite-difference validation of the analytic gradients.

Central differences with a step of ``EPS`` are compared coordinate-wise
against the backward pass. This is the oracle that lets the hand-written
backpropagation be trusted; it runs fast enough on small models to live in
the regular test suite and behind a CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fedfall.nn.losses import bce_loss
from fedfall.nn.model import model_backward, model_forward
from fedfall.nn.params import ModelParams, manifest_for, params_to_vector, vector_to_params

EPS = 1e-5


def finite_difference_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Central differences of ``f`` at ``x`` along the given coordinates."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(len(indices))
    for k, idx in enumerate(indices):
        step = np.zeros_like(x)
        step[idx] = EPS
        out[k] = (f(x + step) - f(x - step)) / (2.0 * EPS)
    return out


@dataclass
class GradCheckReport:
    n_checked: int
    max_rel_err: float
    failures: list[tuple[int, float, float, float]] = field(default_factory=list)
    # failures entries: (coordinate, analytic, numeric, rel_err)


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def gradient_check(
    params: ModelParams,
    batch: np.ndarray,
    labels: np.ndarray,
    n_coords: int,
    tol: float,
    rng: np.random.Generator,
) -> GradCheckReport:
    """Compare analytic and numeric gradients on a sample of coordinates.

    Only trainable coordinates are checked; running batch statistics are not
    part of the gradient. The loss is the train-mode cross-entropy over the
    given batch.
    """
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    in_size = params.input_size
    hid = params.hidden_size
    manifest = manifest_for(in_size, hid)

    probs, cache = model_forward(params, batch, mode="train")
    _, dprobs = bce_loss(probs, labels)
    analytic = model_backward(cache, dprobs, params).vec

    trainable = np.flatnonzero(manifest.trainable_mask())
    if n_coords >= len(trainable):
        picked = trainable
    else:
        picked = rng.choice(trainable, size=n_coords, replace=False)

    base = params_to_vector(params)

    def loss_at(vec: np.ndarray) -> float:
        p = vector_to_params(vec, in_size, hid)
        pr, _ = model_forward(p, batch, mode="train")
        return bce_loss(pr, labels)[0]

    numeric = finite_difference_grad(loss_at, base, picked)

    failures = []
    max_err = 0.0
    for idx, num in zip(picked, numeric):
        err = _rel_err(analytic[idx], num)
        max_err = max(max_err, err)
        if err >= tol:
            failures.append((int(idx), float(analytic[idx]), float(num), float(err)))
    return GradCheckReport(n_checked=len(picked), max_rel_err=max_err, failures=failures)
