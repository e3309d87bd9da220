"""Forward/backward primitives for the toy transformer.

Every forward returns ``(output, cache)`` and has a matching ``*_bwd`` that
consumes the cache and the upstream gradient. Activations and matrix
products live in the compute dtype chosen by the caller (float32 for
training/inference, float64 for sensitivity math and gradient checks);
softmax/norm/loss reductions always accumulate in float64.
"""

from __future__ import annotations

import functools

import numpy as np

LN_EPS = 1e-5
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def linear_fwd(x, weight, bias):
    """y = x @ W.T + b with x: (N, d_in), W: (d_out, d_in)."""
    y = x @ weight.T
    if bias is not None:
        y += bias
    return y, (x, weight)


def linear_bwd(dout, cache, input_grad: bool = True, weight_grads: bool = True):
    """(dx, dw, db); the gradients not asked for are None."""
    x, weight = cache
    dx = dout @ weight if input_grad else None
    if not weight_grads:
        return dx, None, None
    dw = dout.T @ x
    db = np.add.reduce(dout, axis=0, dtype=np.float64).astype(x.dtype)
    return dx, dw, db


def _row_mean(x):
    """float64 mean over the last axis as a column, the operations ``np.mean`` runs."""
    return np.add.reduce(x, axis=-1, keepdims=True, dtype=np.float64) / x.shape[-1]


def layer_norm_fwd(x, gain, bias):
    centered = x.astype(np.float64)
    mean = _row_mean(centered)
    centered -= mean
    norm = x - mean.astype(x.dtype)
    var = _row_mean(np.multiply(centered, centered, out=centered))
    var += LN_EPS
    np.sqrt(var, out=var)
    inv_std = np.divide(1.0, var, out=var).astype(x.dtype, copy=False)
    norm *= inv_std
    out = norm * gain
    out += bias
    return out, (norm, inv_std, gain)


def layer_norm_bwd(dout, cache, weight_grads: bool = True):
    """(dx, dgain, dbias); without ``weight_grads`` only dx, the others None."""
    norm, inv_std, gain = cache
    dx = dout * gain  # d norm
    # d/dx of (x - mean) * inv_std, mean/var taken over the last axis
    mean_dnorm = _row_mean(dx).astype(dout.dtype)
    scratch = dx * norm
    mean_dnorm_norm = _row_mean(scratch).astype(dout.dtype)
    dx -= mean_dnorm
    dx -= np.multiply(norm, mean_dnorm_norm, out=scratch)
    dx *= inv_std
    if not weight_grads:
        return dx, None, None
    axes = tuple(range(dout.ndim - 1))
    dgain = np.add.reduce(np.multiply(dout, norm, out=scratch), axis=axes,
                          dtype=np.float64).astype(dout.dtype)
    dbias = np.add.reduce(dout, axis=axes, dtype=np.float64).astype(dout.dtype)
    return dx, dgain, dbias


def gelu_fwd(x):
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)  # tanh(c * (x + a x^3))
    out = x * 0.5
    out *= 1.0 + t
    return out, (x, t)


def gelu_bwd(dout, cache):
    x, t = cache
    du = x * x
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    out = t * t
    np.subtract(1.0, out, out=out)
    slope = x * 0.5
    slope *= out
    slope *= du  # 0.5 x (1 - t^2) du
    np.add(t, 1.0, out=out)
    out *= 0.5
    out += slope
    out *= dout
    return out


@functools.lru_cache(maxsize=16)  # a decode visits few lengths; a mask is s^2 bytes
def _causal_mask(s: int) -> np.ndarray:
    """Read-only (s, s) mask of the positions above the diagonal, built once per length."""
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def attention_fwd(q, k, v, causal: bool):
    """Scaled dot-product attention over (B, heads, S, d_head) tensors."""
    d_head = q.shape[-1]
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=q.dtype)
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if causal:
        np.copyto(scores, -np.inf, where=_causal_mask(q.shape[-2]))
    scores -= np.max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    sums = np.add.reduce(scores, axis=-1, keepdims=True, dtype=np.float64)
    # the float64 quotient rounds into the compute dtype as .astype would
    probs = np.divide(scores, sums, out=scores, casting="unsafe")
    out = probs @ v
    return out, (q, k, v, probs)


def attention_bwd(dout, cache):
    q, k, v, probs = cache
    d_head = q.shape[-1]
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=q.dtype)
    dv = np.swapaxes(probs, -1, -2) @ dout
    dscores = dout @ np.swapaxes(v, -1, -2)  # d probs, until the jacobian below
    # softmax jacobian: p * (dp - sum(dp * p))
    dscores -= np.sum(dscores * probs, axis=-1, keepdims=True,
                      dtype=np.float64).astype(q.dtype)
    dscores *= probs
    dscores *= scale
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
    log_probs = shifted[np.arange(n), targets].astype(np.float64)  # read before exp overwrites
    np.exp(shifted, out=shifted)
    sums = np.sum(shifted, axis=-1, keepdims=True, dtype=np.float64)
    log_probs -= np.log(sums[:, 0])
    loss = float(-np.mean(log_probs))
    # the float64 quotient rounds into the compute dtype as .astype would
    dlogits = np.divide(shifted, sums, out=shifted, casting="unsafe")
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    return loss, dlogits
