"""Reference formulas of the model kernels, the Adam step and the rounding rule.

Each function spells out its computation in plain numpy expressions, one
temporary per operation. ``ptqlab`` runs the same floating-point
operations in the same order with in-place calls, so its results must
equal these byte for byte (``test_kernels.py``).
"""

import numpy as np

from ptqlab.model.layers import LN_EPS

GELU_C = 0.7978845608028654  # sqrt(2/pi)
GELU_A = 0.044715


def linear_fwd(x, weight, bias):
    y = x @ weight.T
    if bias is not None:
        y = y + bias
    return y


def linear_bwd(dout, x, weight):
    dx = dout @ weight
    dw = dout.T @ x
    db = np.sum(dout, axis=0, dtype=np.float64).astype(x.dtype)
    return dx, dw, db


def layer_norm_fwd(x, gain, bias):
    mean = np.mean(x, axis=-1, keepdims=True, dtype=np.float64)
    var = np.var(x.astype(np.float64), axis=-1, keepdims=True)
    inv_std = (1.0 / np.sqrt(var + LN_EPS)).astype(x.dtype)
    norm = (x - mean.astype(x.dtype)) * inv_std
    return gain * norm + bias, (norm, inv_std, gain)


def layer_norm_bwd(dout, cache):
    norm, inv_std, gain = cache
    dnorm = dout * gain
    mean_dnorm = np.mean(dnorm, axis=-1, keepdims=True, dtype=np.float64).astype(dout.dtype)
    mean_dnorm_norm = np.mean(dnorm * norm, axis=-1, keepdims=True,
                              dtype=np.float64).astype(dout.dtype)
    dx = inv_std * (dnorm - mean_dnorm - norm * mean_dnorm_norm)
    axes = tuple(range(dout.ndim - 1))
    dgain = np.sum(dout * norm, axis=axes, dtype=np.float64).astype(dout.dtype)
    dbias = np.sum(dout, axis=axes, dtype=np.float64).astype(dout.dtype)
    return dx, dgain, dbias


def gelu_fwd(x):
    u = GELU_C * (x + GELU_A * (x * x * x))
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), t


def gelu_bwd(dout, x, t):
    du = GELU_C * (1.0 + 3.0 * GELU_A * (x * x))
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def attention_fwd(q, k, v, causal):
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=q.dtype)
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    if causal:
        s = q.shape[-2]
        mask = np.triu(np.ones((s, s), dtype=bool), k=1)
        scores = np.where(mask, np.array(-np.inf, dtype=q.dtype), scores)
    scores -= np.max(scores, axis=-1, keepdims=True)
    exps = np.exp(scores)
    probs = (exps / np.sum(exps, axis=-1, keepdims=True, dtype=np.float64)).astype(q.dtype)
    return probs @ v, probs


def split_heads(x, n_heads):
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def adam_step(params, grads, m, v, t, lr, beta1, beta2, eps):
    """One step of plain Adam with bias correction, updating every array in place."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for k, g in grads.items():
        m[k] += (1.0 - beta1) * (g - m[k])
        v[k] += (1.0 - beta2) * (g * g - v[k])
        params[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)


def round_half_away_from_zero(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)
