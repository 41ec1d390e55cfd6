"""Adam on flat parameter vectors, updated in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedfall.errors import NumericalFailureError, ShapeMismatchError

# Moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    dim: int
    lr: float
    t: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)

    def __post_init__(self):
        self.m = np.zeros(self.dim)
        self.v = np.zeros(self.dim)


def adam_step(state: AdamState, weights: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update of ``weights`` in place; returns ``weights``.

    Every check runs before the state or the weights change.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if not isinstance(weights, np.ndarray) or weights.dtype != np.float64:
        raise TypeError("weights must be a float64 array; it is updated in place")
    if weights.shape != (state.dim,) or grads.shape != (state.dim,):
        raise ShapeMismatchError(
            f"expected vectors of length {state.dim}, got {weights.shape} and {grads.shape}"
        )
    if not np.all(np.isfinite(grads)):
        raise NumericalFailureError("non-finite gradient", layer="adam")
    if not state.lr > 0:
        raise ValueError(f"learning rate must be positive, got {state.lr}")
    state.t += 1
    # In-place steps in the operation order of m/(1-b1^t) * lr / (sqrt(v/(1-b2^t)) + eps),
    # so the result is bit-identical to evaluating that expression.
    state.m *= BETA1
    state.m += (1.0 - BETA1) * grads
    sq = np.square(grads)
    sq *= 1.0 - BETA2
    state.v *= BETA2
    state.v += sq
    denom = np.divide(state.v, 1.0 - BETA2**state.t, out=sq)
    np.sqrt(denom, out=denom)
    denom += EPS
    step = state.m / (1.0 - BETA1**state.t)
    step *= state.lr
    step /= denom
    weights -= step
    return weights
