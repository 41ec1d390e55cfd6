"""Independent scalar reference implementations used by the tests.

Everything here is deliberately written in plain Python floats and loops,
with no numpy vectorization, so it cannot share bugs with the package code
it is checking. The two exceptions are ``masked_sigmoid``, the package's
earlier numpy sigmoid, kept as the reference for the tanh form that
replaced it, and ``fedprox_penalty``, which ``local_train``'s in-place
proximal term must match bit for bit.
"""

import math

import numpy as np

from fedfall.errors import ShapeMismatchError


def scalar_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def masked_sigmoid(x):
    """exp-based logistic function, branching on the sign of each entry."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def scalar_lstm_layer(wx, wh, b, xs, hidden):
    """One recurrent layer over a single sequence.

    wx: 4H x in_dim nested lists (gate rows ordered input, forget, cell,
    output), wh: 4H x H, b: 4H, xs: T x in_dim. Returns the list of hidden
    states, one per timestep.
    """
    h = [0.0] * hidden
    c = [0.0] * hidden
    states = []
    for t in range(len(xs)):
        acts = []
        for r in range(4 * hidden):
            s = b[r]
            for j in range(len(xs[t])):
                s += wx[r][j] * xs[t][j]
            for j in range(hidden):
                s += wh[r][j] * h[j]
            acts.append(s)
        gi = [scalar_sigmoid(acts[k]) for k in range(hidden)]
        gf = [scalar_sigmoid(acts[hidden + k]) for k in range(hidden)]
        gg = [math.tanh(acts[2 * hidden + k]) for k in range(hidden)]
        go = [scalar_sigmoid(acts[3 * hidden + k]) for k in range(hidden)]
        c = [gf[k] * c[k] + gi[k] * gg[k] for k in range(hidden)]
        h = [go[k] * math.tanh(c[k]) for k in range(hidden)]
        states.append(list(h))
    return states


def scalar_model_eval(params, window, bn_eps):
    """Fall probability for one window, using stored batch statistics.

    ``params`` is a ModelParams-shaped object (arrays are read via
    .tolist()), ``window`` is a T x F nested list.
    """
    hidden = params.hidden_size
    l1 = scalar_lstm_layer(
        params.lstm1.wx.tolist(), params.lstm1.wh.tolist(), params.lstm1.b.tolist(), window, hidden
    )
    l2 = scalar_lstm_layer(
        params.lstm2.wx.tolist(), params.lstm2.wh.tolist(), params.lstm2.b.tolist(), l1, hidden
    )
    h_last = l2[-1]
    gamma = params.bn_gamma.tolist()
    beta = params.bn_beta.tolist()
    rmean = params.bn_running_mean.tolist()
    rvar = params.bn_running_var.tolist()
    bn = [
        gamma[k] * (h_last[k] - rmean[k]) / math.sqrt(rvar[k] + bn_eps) + beta[k]
        for k in range(hidden)
    ]
    fc1w = params.fc1_w.tolist()
    fc1b = params.fc1_b.tolist()
    a1 = [fc1b[k] + sum(fc1w[k][j] * bn[j] for j in range(hidden)) for k in range(hidden)]
    relu = [max(0.0, v) for v in a1]
    fc2w = params.fc2_w.tolist()
    a2 = params.fc2_b.tolist()[0] + sum(fc2w[0][j] * relu[j] for j in range(hidden))
    return scalar_sigmoid(a2)


def scalar_bce(probs, labels, clamp=1e-7):
    total = 0.0
    for p, y in zip(probs, labels):
        q = min(max(p, clamp), 1.0 - clamp)
        total += -(y * math.log(q) + (1.0 - y) * math.log(1.0 - q))
    return total / len(probs)


def scalar_adam(w0, grads_per_step, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Run Adam on a scalar weight through a sequence of gradients."""
    w = w0
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads_per_step, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mh = m / (1.0 - beta1**t)
        vh = v / (1.0 - beta2**t)
        w = w - lr * mh / (math.sqrt(vh) + eps)
    return w


def scalar_trimmed_mean(columns_as_rows, m):
    """Coordinate-wise trimmed mean over rows, trimming m from each tail.

    Retained values are accumulated in ascending order, one addition at a
    time, to pin down the exact float result.
    """
    n = len(columns_as_rows)
    dim = len(columns_as_rows[0])
    out = []
    for j in range(dim):
        col = sorted(row[j] for row in columns_as_rows)
        kept = col[m : n - m]
        acc = 0.0
        for v in kept:
            acc += v
        out.append(acc / len(kept))
    return out



def scalar_swa(global_params, updates, m, alpha, mode):
    """swa_aggregate in plain floats: normalize, trim, fuse.

    ``updates`` holds (client_id, params, epochs) and is taken in client-id
    order. Each update becomes (w - g) / e in ``delta`` mode and w / e in
    ``literal`` mode. ``m`` values are trimmed from each tail with
    ``scalar_trimmed_mean``; ``m=None`` means no trimming, a plain mean
    accumulated in client order. The result is fused as g + alpha * a
    (delta) or (1 - alpha) * g + alpha * a (literal).
    """
    rows = []
    for _, params, epochs in sorted(updates, key=lambda u: u[0]):
        if mode == "delta":
            rows.append([(w - g) / epochs for w, g in zip(params, global_params)])
        else:
            rows.append([w / epochs for w in params])
    if m is None:
        agg = []
        for j in range(len(global_params)):
            acc = 0.0
            for row in rows:
                acc += row[j]
            agg.append(acc / len(rows))
    else:
        agg = scalar_trimmed_mean(rows, m)
    if mode == "delta":
        return [g + alpha * a for g, a in zip(global_params, agg)]
    return [(1.0 - alpha) * g + alpha * a for g, a in zip(global_params, agg)]


def fedprox_penalty(local, anchor, mu):
    """mu*||w - w_anchor||^2 and its gradient 2*mu*(w - w_anchor).

    Operates on flat parameter vectors; the caller restricts both to the
    trainable coordinates.
    """
    local = np.asarray(local, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    if local.shape != anchor.shape:
        raise ShapeMismatchError(f"local {local.shape} vs anchor {anchor.shape}")
    diff = local - anchor
    return mu * float(diff @ diff), 2.0 * mu * diff
