"""Forward/backward primitives for the toy transformer.

Every forward returns ``(output, cache)`` and has a matching ``*_bwd`` that
consumes the cache and the upstream gradient. Activations and matrix
products live in the compute dtype chosen by the caller (float32 for
training/inference, float64 for sensitivity math and gradient checks);
softmax/norm/loss reductions always accumulate in float64.
"""

from __future__ import annotations

import numpy as np

LN_EPS = 1e-5
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def linear_fwd(x, weight, bias):
    """y = x @ W.T + b with x: (N, d_in), W: (d_out, d_in)."""
    y = x @ weight.T
    if bias is not None:
        y = y + bias
    return y, (x, weight)


def linear_bwd(dout, cache, input_grad: bool = True, weight_grads: bool = True):
    """(dx, dw, db); the gradients not asked for are None."""
    x, weight = cache
    dx = dout @ weight if input_grad else None
    if not weight_grads:
        return dx, None, None
    dw = dout.T @ x
    db = np.sum(dout, axis=0, dtype=np.float64).astype(x.dtype)
    return dx, dw, db


def layer_norm_fwd(x, gain, bias):
    mean = np.mean(x, axis=-1, keepdims=True, dtype=np.float64)
    var = np.var(x.astype(np.float64), axis=-1, keepdims=True)
    inv_std = (1.0 / np.sqrt(var + LN_EPS)).astype(x.dtype)
    norm = (x - mean.astype(x.dtype)) * inv_std
    return gain * norm + bias, (norm, inv_std, gain)


def layer_norm_bwd(dout, cache, weight_grads: bool = True):
    """(dx, dgain, dbias); without ``weight_grads`` only dx, the others None."""
    norm, inv_std, gain = cache
    dnorm = dout * gain
    # d/dx of (x - mean) * inv_std, mean/var taken over the last axis
    mean_dnorm = np.mean(dnorm, axis=-1, keepdims=True, dtype=np.float64).astype(dout.dtype)
    mean_dnorm_norm = np.mean(dnorm * norm, axis=-1, keepdims=True, dtype=np.float64).astype(dout.dtype)
    dx = inv_std * (dnorm - mean_dnorm - norm * mean_dnorm_norm)
    if not weight_grads:
        return dx, None, None
    axes = tuple(range(dout.ndim - 1))
    dgain = np.sum(dout * norm, axis=axes, dtype=np.float64).astype(dout.dtype)
    dbias = np.sum(dout, axis=axes, dtype=np.float64).astype(dout.dtype)
    return dx, dgain, dbias


def gelu_fwd(x):
    u = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), (x, t)


def gelu_bwd(dout, cache):
    x, t = cache
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def attention_fwd(q, k, v, causal: bool):
    """Scaled dot-product attention over (B, heads, S, d_head) tensors."""
    d_head = q.shape[-1]
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=q.dtype)
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    if causal:
        s = q.shape[-2]
        mask = np.triu(np.ones((s, s), dtype=bool), k=1)
        scores = np.where(mask, np.array(-np.inf, dtype=q.dtype), scores)
    scores -= np.max(scores, axis=-1, keepdims=True)
    exps = np.exp(scores)
    probs = (exps / np.sum(exps, axis=-1, keepdims=True, dtype=np.float64)).astype(q.dtype)
    out = probs @ v
    return out, (q, k, v, probs)


def attention_bwd(dout, cache):
    q, k, v, probs = cache
    d_head = q.shape[-1]
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=q.dtype)
    dv = np.swapaxes(probs, -1, -2) @ dout
    dprobs = dout @ np.swapaxes(v, -1, -2)
    # softmax jacobian: p * (dp - sum(dp * p))
    dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True,
                                       dtype=np.float64).astype(q.dtype))
    dscores = dscores * scale
    dq = dscores @ k
    dk = np.swapaxes(dscores, -1, -2) @ q
    return dq, dk, dv


def embedding_fwd(table, ids):
    return table[ids], ids


def embedding_bwd(dout, ids, table_shape, dtype):
    dtable = np.zeros(table_shape, dtype=dtype)
    np.add.at(dtable, ids, dout)
    return dtable


def cross_entropy_from_logits(logits, targets):
    """Mean cross-entropy over rows plus the gradient w.r.t. the logits.

    ``logits``: (N, V), ``targets``: (N,) int. Returns (loss, dlogits) with
    the 1/N factor folded into dlogits.
    """
    n = logits.shape[0]
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exps = np.exp(shifted)
    sums = np.sum(exps, axis=-1, keepdims=True, dtype=np.float64)
    log_probs = shifted[np.arange(n), targets].astype(np.float64) - np.log(sums[:, 0])
    loss = float(-np.mean(log_probs))
    dlogits = (exps / sums).astype(logits.dtype)
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    return loss, dlogits
