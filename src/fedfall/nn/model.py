"""Stacked-LSTM fall classifier with exact manual gradients.

The network maps a (batch, time, features) window of motion data to a fall
probability: two LSTM layers, batch normalization of the final hidden state,
a dense layer with ReLU, a second dense layer, and a sigmoid output.

Everything is plain numpy, with float64 master weights and float32 compute:
a pass runs in the dtype of its weights (``params.vec.dtype``), and training
and inference hand it a float32 copy of the float64 master vector
(mixed-precision training, Micikevicius et al., ICLR 2018). Forward passes
are pure functions of (params, batch); the backward pass replays the forward
from a cache and is validated coordinate-wise in float64 against central
finite differences, so this module can serve as the single source of truth
for training without an autodiff framework. Weights are read from, and
gradients written to, named views of flat vectors (``fedfall.nn.params``).

Gate layout inside each LSTM weight block is (input, forget, cell, output),
stacked along the first axis in that order. Inside a layer, sequences are
time-major (T, B, ...): the input projection of every timestep is one GEMM,
and only the recurrent GEMM runs per step (Appleyard et al., 2016).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedfall.errors import NumericalFailureError, ShapeMismatchError
from fedfall.nn.params import LstmLayer, ModelParams, manifest_for

# Small enough that normalized batch statistics stay within 1e-5 of
# mean 0 / variance 1 even for low-variance hidden states; it is a normal
# float32 number, so it guards float32 passes too.
BN_EPS = 1e-10
BN_MOMENTUM = 0.1


def sigmoid(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)): one transcendental and no overflow for any x."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def init_params(input_size: int, hidden_size: int, seed: int | np.random.Generator = 0) -> ModelParams:
    """Seeded weight initialization.

    Weights are uniform in +-1/sqrt(H); forget-gate biases start at 1.0 so
    early training does not wipe cell state.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    h = hidden_size
    bound = 1.0 / np.sqrt(h)
    params = ModelParams(np.zeros(manifest_for(input_size, h).dim), input_size, h)
    views = dict(params.tensors())
    for name in (
        "lstm1_b", "lstm1_wx", "lstm1_wh", "lstm2_b", "lstm2_wx", "lstm2_wh",
        "fc1_w", "fc1_b", "fc2_w", "fc2_b",
    ):  # draw order of the seeded stream
        views[name][...] = rng.uniform(-bound, bound, size=views[name].shape)
    for layer in (params.lstm1, params.lstm2):
        layer.b[h : 2 * h] = 1.0
    params.bn_gamma[:] = 1.0
    params.bn_running_var[:] = 1.0
    return params


@dataclass
class _LstmTrace:
    """What backward needs of one layer; eval mode keeps only ``h``."""

    h: np.ndarray                       # (T+1, B, H); h[0] is the zero initial state
    inputs: np.ndarray | None = None    # (T, B, in_dim)
    c: np.ndarray | None = None         # (T+1, B, H)
    gates: np.ndarray | None = None     # (T, B, 4H) activated (i, f, g, o)
    tc: np.ndarray | None = None        # (T, B, H) tanh(c_t)


@dataclass
class ForwardCache:
    """Every intermediate needed to replay the forward pass in backward.

    Holds a reference to the exact ``ModelParams`` object used, so a stale or
    mismatched cache is rejected instead of silently producing wrong
    gradients.
    """

    params: ModelParams
    mode: str
    layer1: _LstmTrace
    layer2: _LstmTrace
    bn_var: np.ndarray
    bn_std: np.ndarray
    bn_xhat: np.ndarray
    bn_out: np.ndarray
    new_running_mean: np.ndarray
    new_running_var: np.ndarray
    fc_a1: np.ndarray
    fc_relu: np.ndarray
    probs: np.ndarray


def _check_finite(arr: np.ndarray, layer: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalFailureError(f"non-finite values in {layer}", layer=layer)


def _lstm_forward(layer: LstmLayer, inputs: np.ndarray, train: bool) -> _LstmTrace:
    """One layer over a time-major (T, B, in_dim) sequence.

    The input projection of all timesteps is one GEMM into a (T, B, 4H) gate
    buffer; each step adds the recurrent GEMM and applies one tanh to all
    four gate blocks in place. Train mode keeps the activated gates, cell
    states and tanh(c_t) for backward; eval mode overwrites one cell slot.
    Every buffer has the dtype of the weights.
    """
    t_len, b_sz, in_dim = inputs.shape
    h_dim = layer.wh.shape[1]
    dtype = layer.wh.dtype
    # Gate rows are pre-scaled so that one tanh activates all four blocks:
    # scale * tanh(scale * a) + shift is sigmoid(a) = 0.5 + 0.5 * tanh(a / 2)
    # on the i, f, o blocks and tanh(a) on g. Scaling by 0.5 is exact.
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), h_dim)
    shift = np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype=dtype), h_dim)
    gates = inputs.reshape(t_len * b_sz, in_dim) @ (layer.wx * scale[:, None]).T
    gates += layer.b * scale
    gates = gates.reshape(t_len, b_sz, 4 * h_dim)
    wh_t = (layer.wh * scale[:, None]).T
    h = np.zeros((t_len + 1, b_sz, h_dim), dtype=dtype)
    c = np.zeros((t_len + 1 if train else 1, b_sz, h_dim), dtype=dtype)
    tc = np.empty((t_len if train else 1, b_sz, h_dim), dtype=dtype)
    for t in range(t_len):
        a = gates[t]
        a += h[t] @ wh_t
        np.tanh(a, out=a)
        a *= scale
        a += shift
        s = t if train else 0
        c_t, tc_t = c[s + train], tc[s]  # eval: c[0] is both c_{t-1} and c_t
        np.multiply(a[:, h_dim : 2 * h_dim], c[s], out=c_t)
        c_t += a[:, :h_dim] * a[:, 2 * h_dim : 3 * h_dim]
        np.tanh(c_t, out=tc_t)
        np.multiply(a[:, 3 * h_dim :], tc_t, out=h[t + 1])
    if not train:
        return _LstmTrace(h=h)
    return _LstmTrace(h=h, inputs=inputs, c=c, gates=gates, tc=tc)


def model_forward(
    params: ModelParams, batch: np.ndarray, mode: str = "train"
) -> tuple[np.ndarray, ForwardCache]:
    """Run the classifier over a batch of windows.

    ``batch`` is a (B, T, F) array; it is cast once to the dtype of
    ``params.vec`` (no copy when it already has it), in which the whole
    pass runs. Returns per-window fall probabilities in that dtype and the
    cache required by :func:`model_backward`.

    In ``train`` mode batch normalization uses batch statistics and the cache
    carries refreshed running statistics (the caller decides when to commit
    them); in ``eval`` mode the stored running statistics are used, and the
    layer traces keep only the hidden-state sequences.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(batch, dtype=params.vec.dtype)
    if x.ndim != 3:
        raise ShapeMismatchError(f"batch must be (B, T, F), got shape {x.shape}")
    if x.shape[2] != params.input_size:
        raise ShapeMismatchError(
            f"batch has {x.shape[2]} features, model expects {params.input_size}"
        )

    train = mode == "train"
    l1 = _lstm_forward(params.lstm1, np.ascontiguousarray(x.transpose(1, 0, 2)), train)
    _check_finite(l1.h[-1], "lstm1")
    l2 = _lstm_forward(params.lstm2, l1.h[1:], train)
    _check_finite(l2.h[-1], "lstm2")

    h_last = l2.h[-1]  # (B, H)
    if train:
        mean = h_last.mean(axis=0)
        var = h_last.var(axis=0)
        new_rm = (1.0 - BN_MOMENTUM) * params.bn_running_mean + BN_MOMENTUM * mean
        new_rv = (1.0 - BN_MOMENTUM) * params.bn_running_var + BN_MOMENTUM * var
    else:
        mean = params.bn_running_mean
        var = params.bn_running_var
        if np.any(var + BN_EPS <= 0):
            raise NumericalFailureError("non-positive running variance", layer="batchnorm")
        new_rm = params.bn_running_mean
        new_rv = params.bn_running_var
    std = np.sqrt(var + BN_EPS)
    xhat = (h_last - mean) / std
    bn_out = params.bn_gamma * xhat + params.bn_beta
    _check_finite(bn_out, "batchnorm")

    a1 = bn_out @ params.fc1_w.T + params.fc1_b
    relu = np.maximum(a1, 0.0)
    a2 = relu @ params.fc2_w.T + params.fc2_b
    probs = sigmoid(a2[:, 0])
    _check_finite(probs, "sigmoid")

    cache = ForwardCache(
        params=params,
        mode=mode,
        layer1=l1,
        layer2=l2,
        bn_var=var,
        bn_std=std,
        bn_xhat=xhat,
        bn_out=bn_out,
        new_running_mean=new_rm,
        new_running_var=new_rv,
        fc_a1=a1,
        fc_relu=relu,
        probs=probs,
    )
    return probs, cache


def _lstm_backward(
    layer: LstmLayer,
    trace: _LstmTrace,
    out: LstmLayer,
    dh_last: np.ndarray | None = None,
    dh_seq: np.ndarray | None = None,
) -> np.ndarray:
    """Backpropagation through time for one layer.

    The upstream gradient arrives at the last hidden state (``dh_last``,
    (B, H)) or at every hidden state (``dh_seq``, (T, B, H)). Writes dwx,
    dwh and db into ``out`` and returns the gate pre-activation gradients as
    a (T*B, 4H) matrix, from which the caller forms the input gradient.

    Only the recurrent ``da @ wh`` runs inside the time loop; the weight
    gradients are one GEMM each over all timesteps afterwards.
    """
    t_len, b_sz, h_dim = trace.tc.shape
    dtype = trace.tc.dtype
    g = trace.gates.reshape(t_len, b_sz, 4, h_dim)
    gi, gf, gg, go = g[:, :, 0], g[:, :, 1], g[:, :, 2], g[:, :, 3]
    # Local derivatives of every step, computed before the recurrence:
    # da_t = dc_t * k_t on the (i, f, g) blocks and dh_t * k_t on o.
    # The loop overwrites k_t with da_t.
    k = np.empty_like(g)
    k[:, :, 0] = gg * (gi * (1.0 - gi))
    k[:, :, 1] = trace.c[:-1] * (gf * (1.0 - gf))
    k[:, :, 2] = gi * (1.0 - gg * gg)
    k[:, :, 3] = trace.tc * (go * (1.0 - go))
    dc_dh = go * (1.0 - trace.tc * trace.tc)  # dc_t gains dh_t * dc_dh_t
    dh = np.zeros((b_sz, h_dim), dtype=dtype) if dh_last is None else dh_last.copy()
    dc = np.zeros((b_sz, h_dim), dtype=dtype)
    for t in reversed(range(t_len)):
        if dh_seq is not None:
            dh += dh_seq[t]
        dc += dh * dc_dh[t]
        kt = k[t]
        np.multiply(dc[:, None, :], kt[:, :3], out=kt[:, :3])
        np.multiply(dh, kt[:, 3], out=kt[:, 3])
        np.matmul(kt.reshape(b_sz, 4 * h_dim), layer.wh, out=dh)
        dc *= gf[t]
    da = k.reshape(t_len * b_sz, 4 * h_dim)
    np.matmul(da.T, trace.inputs.reshape(t_len * b_sz, -1), out=out.wx)
    np.matmul(da.T, trace.h[:-1].reshape(t_len * b_sz, h_dim), out=out.wh)
    da.sum(axis=0, out=out.b)
    return da


def model_backward(cache: ForwardCache, loss_grads: np.ndarray, params: ModelParams) -> ModelParams:
    """Exact gradients of the loss w.r.t. every parameter.

    ``loss_grads`` is dL/dprobability per window, as returned by the loss.
    The cache must come from a train-mode forward over the same ``params``
    object; anything else is rejected. The result is laid out like
    ``params``, in its dtype: its ``vec`` is the flat gradient, and the
    running-statistic slots are zero.
    """
    if cache.params is not params:
        raise ShapeMismatchError("cache was produced for a different ModelParams object")
    if cache.mode != "train":
        raise ShapeMismatchError("backward requires a train-mode cache")
    loss_grads = np.asarray(loss_grads, dtype=params.vec.dtype)
    if loss_grads.shape != cache.probs.shape:
        raise ShapeMismatchError(
            f"loss_grads shape {loss_grads.shape} does not match batch {cache.probs.shape}"
        )

    grads = ModelParams(np.zeros_like(params.vec), params.input_size, params.hidden_size)

    # sigmoid output
    da2 = (loss_grads * cache.probs * (1.0 - cache.probs))[:, None]  # (B, 1)
    grads.fc2_w[:] = da2.T @ cache.fc_relu
    grads.fc2_b[:] = da2.sum(axis=0)
    drelu = da2 @ params.fc2_w
    da1 = drelu * (cache.fc_a1 > 0.0)
    grads.fc1_w[:] = da1.T @ cache.bn_out
    grads.fc1_b[:] = da1.sum(axis=0)
    dbn_out = da1 @ params.fc1_w

    # batch normalization over the batch axis
    grads.bn_gamma[:] = (dbn_out * cache.bn_xhat).sum(axis=0)
    grads.bn_beta[:] = dbn_out.sum(axis=0)
    dxhat = dbn_out * params.bn_gamma
    dh_last = (
        dxhat
        - dxhat.mean(axis=0)
        - cache.bn_xhat * (dxhat * cache.bn_xhat).mean(axis=0)
    ) / cache.bn_std

    # layer 2 receives upstream gradient only at the final timestep; layer 1
    # receives it at every timestep, through layer 2's inputs
    da = _lstm_backward(params.lstm2, cache.layer2, grads.lstm2, dh_last=dh_last)
    dh_seq1 = (da @ params.lstm2.wx).reshape(cache.layer1.tc.shape)
    _lstm_backward(params.lstm1, cache.layer1, grads.lstm1, dh_seq=dh_seq1)
    return grads


def commit_batchnorm_stats(params: ModelParams, cache: ForwardCache) -> None:
    """Adopt the running statistics refreshed by a train-mode forward."""
    params.bn_running_mean[:] = cache.new_running_mean
    params.bn_running_var[:] = cache.new_running_var
