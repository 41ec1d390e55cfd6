"""Sequence classifier: model, losses, optimizer, gradients, flat views.

float64 master weights, float32 compute. The weights of a model are one
contiguous float64 vector; ``ModelParams`` gives its tensors as named views,
laid out by ``manifest_for``, and ``astype(COMPUTE_DTYPE)`` gives the float32
copy that forward and backward passes run on. Gradients come back in the
same layout, and ``adam_step`` updates the float64 vector in place.
"""

from fedfall.nn.gradcheck import GradCheckReport, finite_difference_grad, gradient_check
from fedfall.nn.losses import bce_loss
from fedfall.nn.model import (
    BN_EPS,
    BN_MOMENTUM,
    ForwardCache,
    commit_batchnorm_stats,
    init_params,
    model_backward,
    model_forward,
    sigmoid,
)
from fedfall.nn.optim import AdamState, adam_step
from fedfall.nn.params import (
    COMPUTE_DTYPE,
    NON_TRAINABLE,
    LstmLayer,
    ModelParams,
    ParamManifest,
    load_params,
    manifest_for,
    params_to_vector,
    save_params,
    vector_to_params,
)

__all__ = [
    "BN_EPS",
    "BN_MOMENTUM",
    "COMPUTE_DTYPE",
    "NON_TRAINABLE",
    "AdamState",
    "ForwardCache",
    "GradCheckReport",
    "LstmLayer",
    "ModelParams",
    "ParamManifest",
    "adam_step",
    "bce_loss",
    "commit_batchnorm_stats",
    "finite_difference_grad",
    "gradient_check",
    "init_params",
    "load_params",
    "manifest_for",
    "model_backward",
    "model_forward",
    "params_to_vector",
    "save_params",
    "sigmoid",
    "vector_to_params",
]
