"""Parameter initialization, loss, and the forward and hand-rolled backward pass.

The passes are built from per-block functions (the embedding, each
block, the head); :func:`forward_logits` and :func:`backward_from_logits`
are the only loops over them. A forward can resume at a block from its
cached input, and a backward can stop at one weight.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, NumericError, ShapeError
from ..numerics import make_rng
from . import layers
from .config import MASK_ID, MODE_DIFFUSION, Batch, ModelConfig

INIT_STD = 0.02
POS_INIT_STD = 0.1  # strong positional signal speeds up positional routing


def init_params(config: ModelConfig, seed: int) -> dict:
    """Fresh float32 parameter map, deterministic in the seed."""
    rng = make_rng(seed)

    def normal(*shape):
        return (rng.standard_normal(shape) * INIT_STD).astype(np.float32)

    params = {
        "embed.tok": normal(config.vocab_size, config.d_model),
        "embed.pos": (rng.standard_normal((config.max_seq_len, config.d_model))
                      * POS_INIT_STD).astype(np.float32),
    }
    for i in range(config.n_layers):
        p = f"blocks.{i}"
        params[f"{p}.ln1.gain"] = np.ones(config.d_model, dtype=np.float32)
        params[f"{p}.ln1.bias"] = np.zeros(config.d_model, dtype=np.float32)
        for name in ("q", "k", "v", "o"):
            params[f"{p}.attn.{name}.weight"] = normal(config.d_model, config.d_model)
            params[f"{p}.attn.{name}.bias"] = np.zeros(config.d_model, dtype=np.float32)
        params[f"{p}.ln2.gain"] = np.ones(config.d_model, dtype=np.float32)
        params[f"{p}.ln2.bias"] = np.zeros(config.d_model, dtype=np.float32)
        params[f"{p}.mlp.fc_in.weight"] = normal(config.d_ff, config.d_model)
        params[f"{p}.mlp.fc_in.bias"] = np.zeros(config.d_ff, dtype=np.float32)
        params[f"{p}.mlp.fc_out.weight"] = normal(config.d_model, config.d_ff)
        params[f"{p}.mlp.fc_out.bias"] = np.zeros(config.d_model, dtype=np.float32)
    params["final_ln.gain"] = np.ones(config.d_model, dtype=np.float32)
    params["final_ln.bias"] = np.zeros(config.d_model, dtype=np.float32)
    params["head.weight"] = normal(config.vocab_size, config.d_model)
    return params


def _split_heads(x, n_heads):
    """(b, heads, s, d_head) copy of a (b, s, d) array, each head's (s, d_head) contiguous."""
    b, s, d = x.shape
    return np.ascontiguousarray(x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3))


def _merge_heads(x):
    b, h, s, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * hd)


def block_index(path: str) -> int:
    """The block of a ``blocks.<i>.…`` parameter path."""
    parts = path.split(".")
    if len(parts) < 3 or parts[0] != "blocks" or not parts[1].isdigit():
        raise ContractError(f"{path!r} is not a block parameter")
    return int(parts[1])


# A block's projection weights in forward order, as (sublayer, name, stage):
# the projections of one stage read the same input.
PROJECTIONS = (("attn", "q", 0), ("attn", "k", 0), ("attn", "v", 0), ("attn", "o", 1),
               ("mlp", "fc_in", 2), ("mlp", "fc_out", 3))
PROJECTION_SUFFIXES = tuple(f".{sub}.{name}.weight" for sub, name, _ in PROJECTIONS)


def projection_key(path: str) -> tuple:
    """(block, stage, position) of a projection weight ``blocks.<i>.<sublayer>.<name>.weight``.

    Sorting by it gives forward order; projections with the same block and
    stage read the same input.
    """
    for position, suffix in enumerate(PROJECTION_SUFFIXES):
        if path.endswith(suffix):
            return block_index(path), PROJECTIONS[position][2], position
    raise ContractError(f"{path!r} is not a projection weight")


def _stop_layer(stop: str | None, i: int) -> str | None:
    """The projection (q, k, v, o, fc_in or fc_out) ``stop`` names in block ``i``, if any."""
    if stop is None or block_index(stop) != i:
        return None
    return PROJECTIONS[projection_key(stop)[2]][1]


def embed_fwd(params: dict, config: ModelConfig, input_ids, dtype=np.float32):
    """(block 0 input, token ids) for raw token ids: token plus position embedding."""
    input_ids = np.asarray(input_ids, dtype=np.int64)
    if input_ids.ndim != 2:
        raise ShapeError(f"input_ids must be (batch, seq), got {input_ids.shape}")
    s = input_ids.shape[1]
    if s > config.max_seq_len:
        raise ShapeError(f"sequence length {s} exceeds max_seq_len {config.max_seq_len}")
    tok, tok_ids = layers.embedding_fwd(params["embed.tok"].astype(dtype, copy=False), input_ids)
    return tok + params["embed.pos"].astype(dtype, copy=False)[:s], tok_ids


def block_fwd(params: dict, config: ModelConfig, i: int, x, dtype=np.float32,
              stop: str | None = None):
    """Block ``i`` on its input ``x`` (batch, seq, d_model): ``(output, cache)``.

    With ``stop`` set to one of the block's projection weights, returns
    that projection's 2-D input instead and runs no layer after it.
    """
    b, s, d = x.shape
    pre = f"blocks.{i}"
    stop_at = _stop_layer(stop, i)

    def p(name):
        return params[f"{pre}.{name}"].astype(dtype, copy=False)

    h, ln1_cache = layers.layer_norm_fwd(x, p("ln1.gain"), p("ln1.bias"))
    h2d = h.reshape(b * s, d)
    if stop_at in ("q", "k", "v"):
        return h2d
    q, q_cache = layers.linear_fwd(h2d, p("attn.q.weight"), p("attn.q.bias"))
    k, k_cache = layers.linear_fwd(h2d, p("attn.k.weight"), p("attn.k.bias"))
    v, v_cache = layers.linear_fwd(h2d, p("attn.v.weight"), p("attn.v.bias"))
    qh = _split_heads(q.reshape(b, s, d), config.n_heads)
    kh = _split_heads(k.reshape(b, s, d), config.n_heads)
    vh = _split_heads(v.reshape(b, s, d), config.n_heads)
    attn, attn_cache = layers.attention_fwd(qh, kh, vh, config.causal)
    merged = _merge_heads(attn).reshape(b * s, d)
    if stop_at == "o":
        return merged
    o, o_cache = layers.linear_fwd(merged, p("attn.o.weight"), p("attn.o.bias"))
    o = o.reshape(b, s, d)
    o += x  # residual
    x = o

    h2, ln2_cache = layers.layer_norm_fwd(x, p("ln2.gain"), p("ln2.bias"))
    h2_2d = h2.reshape(b * s, d)
    if stop_at == "fc_in":
        return h2_2d
    f, fin_cache = layers.linear_fwd(h2_2d, p("mlp.fc_in.weight"), p("mlp.fc_in.bias"))
    g, gelu_cache = layers.gelu_fwd(f)
    if stop_at == "fc_out":
        return g
    m, fout_cache = layers.linear_fwd(g, p("mlp.fc_out.weight"), p("mlp.fc_out.bias"))
    m = m.reshape(b, s, d)
    m += x  # residual
    x = m
    return x, {"ln1": ln1_cache, "q": q_cache, "k": k_cache, "v": v_cache,
               "attn": attn_cache, "o": o_cache,
               "ln2": ln2_cache, "fc_in": fin_cache, "gelu": gelu_cache, "fc_out": fout_cache}


def block_bwd(config: ModelConfig, i: int, cache: dict, dx, stop: str | None = None):
    """``(d input, grads)`` of block ``i`` given the gradient ``dx`` of its output.

    With ``stop`` set, no parameter gradient is formed above the weight it
    names. If that weight is in this block, returns ``(None, {stop: its
    gradient})`` and runs no layer below it; otherwise ``(d input, {})``.
    """
    b, s, d = dx.shape
    pre = f"blocks.{i}"
    stop_at = _stop_layer(stop, i)
    full = stop is None

    def weight_grad(dout, name):
        return None, {stop: layers.linear_bwd(dout, cache[name], input_grad=False)[1]}

    dm2d = dx.reshape(b * s, d)
    if stop_at == "fc_out":
        return weight_grad(dm2d, "fc_out")
    dg_act, dw_fout, db_fout = layers.linear_bwd(dm2d, cache["fc_out"], weight_grads=full)
    df = layers.gelu_bwd(dg_act, cache["gelu"])
    if stop_at == "fc_in":
        return weight_grad(df, "fc_in")
    dh2_2d, dw_fin, db_fin = layers.linear_bwd(df, cache["fc_in"], weight_grads=full)
    dx_ln2, dg_ln2, db_ln2 = layers.layer_norm_bwd(dh2_2d.reshape(b, s, d), cache["ln2"],
                                                   weight_grads=full)
    dx_ln2 += dx  # residual branch
    dx = dx_ln2

    do2d = dx.reshape(b * s, d)
    if stop_at == "o":
        return weight_grad(do2d, "o")
    dmerged, dw_o, db_o = layers.linear_bwd(do2d, cache["o"], weight_grads=full)
    dattn = _split_heads(dmerged.reshape(b, s, d), config.n_heads)
    dqh, dkh, dvh = layers.attention_bwd(dattn, cache["attn"])
    dq2d = _merge_heads(dqh).reshape(b * s, d)
    dk2d = _merge_heads(dkh).reshape(b * s, d)
    dv2d = _merge_heads(dvh).reshape(b * s, d)
    if stop_at in ("q", "k", "v"):
        return weight_grad({"q": dq2d, "k": dk2d, "v": dv2d}[stop_at], stop_at)
    dh_q, dw_q, db_q = layers.linear_bwd(dq2d, cache["q"], weight_grads=full)
    dh_k, dw_k, db_k = layers.linear_bwd(dk2d, cache["k"], weight_grads=full)
    dh_v, dw_v, db_v = layers.linear_bwd(dv2d, cache["v"], weight_grads=full)
    dh_q += dh_k
    dh_q += dh_v
    dx_ln1, dg_ln1, db_ln1 = layers.layer_norm_bwd(dh_q.reshape(b, s, d), cache["ln1"],
                                                   weight_grads=full)
    dx_ln1 += dx
    dx = dx_ln1
    if not full:
        return dx, {}
    grads = {"mlp.fc_out.weight": dw_fout, "mlp.fc_out.bias": db_fout,
             "mlp.fc_in.weight": dw_fin, "mlp.fc_in.bias": db_fin,
             "ln2.gain": dg_ln2, "ln2.bias": db_ln2,
             "attn.o.weight": dw_o, "attn.o.bias": db_o,
             "attn.q.weight": dw_q, "attn.q.bias": db_q,
             "attn.k.weight": dw_k, "attn.k.bias": db_k,
             "attn.v.weight": dw_v, "attn.v.bias": db_v,
             "ln1.gain": dg_ln1, "ln1.bias": db_ln1}
    return dx, {f"{pre}.{name}": g for name, g in grads.items()}


def head_fwd(params: dict, config: ModelConfig, x, dtype=np.float32):
    """(logits, cache): final layer norm and output projection of the last block's output."""
    b, s, d = x.shape
    xf, lnf_cache = layers.layer_norm_fwd(x, params["final_ln.gain"].astype(dtype, copy=False),
                                          params["final_ln.bias"].astype(dtype, copy=False))
    logits2d, head_cache = layers.linear_fwd(xf.reshape(b * s, d),
                                             params["head.weight"].astype(dtype, copy=False), None)
    return logits2d.reshape(b, s, config.vocab_size), (lnf_cache, head_cache)


def head_bwd(config: ModelConfig, cache, dlogits, weight_grads: bool = True):
    """(d last block output, grads of the head and final norm; empty without ``weight_grads``)."""
    b, s, _ = dlogits.shape
    lnf_cache, head_cache = cache
    dxf2d, dw_head, _ = layers.linear_bwd(dlogits.reshape(b * s, config.vocab_size), head_cache,
                                          weight_grads=weight_grads)
    dx, dg, dbias = layers.layer_norm_bwd(dxf2d.reshape(b, s, config.d_model), lnf_cache,
                                          weight_grads=weight_grads)
    if not weight_grads:
        return dx, {}
    return dx, {"head.weight": dw_head, "final_ln.gain": dg, "final_ln.bias": dbias}


def forward_logits(params: dict, config: ModelConfig, input_ids, dtype=np.float32,
                   start: int = 0, x=None):
    """Run the network on raw token ids, or from block ``start`` on its input ``x``.

    Pass either ``input_ids`` or ``x``, not both. Returns ``(logits,
    tape)``; the tape carries every cache needed by
    :func:`backward_from_logits`, and ``tape["inputs"]`` holds the input
    of each block the forward ran.
    """
    if (input_ids is None) == (x is None):
        raise ContractError("forward_logits takes input_ids or a block input x, not both")
    ids = None
    if x is None:
        if start != 0:
            raise ContractError("a forward from token ids starts at block 0")
        x, ids = embed_fwd(params, config, input_ids, dtype)
    tape = {"config": config, "dtype": dtype, "input_ids": ids, "start": start,
            "inputs": [], "blocks": []}
    for i in range(start, config.n_layers):
        tape["inputs"].append(x)
        x, cache = block_fwd(params, config, i, x, dtype)
        tape["blocks"].append(cache)
    logits, tape["head"] = head_fwd(params, config, x, dtype)
    if not np.all(np.isfinite(logits)):
        raise NumericError("forward produced non-finite logits")
    return logits, tape


def backward_from_logits(tape: dict, dlogits: np.ndarray, stop: str | None = None) -> dict:
    """Gradients of every parameter the forward ran, given d(loss)/d(logits).

    With ``stop`` set to a projection weight, the backward stops there:
    the layers above it propagate only activation gradients, and the
    result is ``{stop: gradient}``.
    """
    config: ModelConfig = tape["config"]
    dx, grads = head_bwd(config, tape["head"], dlogits.astype(tape["dtype"], copy=False),
                         weight_grads=stop is None)
    for i in reversed(range(tape["start"], config.n_layers)):
        dx, block_grads = block_bwd(config, i, tape["blocks"][i - tape["start"]], dx, stop)
        grads.update(block_grads)
        if dx is None:
            return grads
    if stop is not None:
        raise ContractError(f"{stop} is not in a block the forward ran")
    ids, dtype = tape["input_ids"], tape["dtype"]
    if ids is not None:
        grads["embed.tok"] = layers.embedding_bwd(dx, ids, (config.vocab_size, config.d_model),
                                                  dtype)
        grads["embed.pos"] = np.zeros((config.max_seq_len, config.d_model), dtype=dtype)
        grads["embed.pos"][:ids.shape[1]] = np.sum(dx, axis=0, dtype=np.float64).astype(dtype)
    return grads


def prediction_targets(config: ModelConfig, batch: Batch):
    """(input_ids, logit_rows, target_ids) for the batch under the config's mode.

    AR scores logits at ``t - 1`` against token ``t``; diffusion replaces
    the marked tokens with MASK in the input and scores the logits at the
    marked positions themselves.
    """
    mask = batch.loss_mask
    if not mask.any():
        raise ContractError("empty loss mask: no position contributes to the loss")
    if config.mode == MODE_DIFFUSION:
        input_ids = np.where(mask, MASK_ID, batch.token_ids)
        rows, cols = np.nonzero(mask)
        logit_cols = cols
    else:
        if mask[:, 0].any():
            raise ContractError("AR loss cannot target column 0 (no preceding position)")
        input_ids = batch.token_ids
        rows, cols = np.nonzero(mask)
        logit_cols = cols - 1
    targets = batch.token_ids[rows, cols]
    return input_ids, (rows, logit_cols), targets


def loss_and_grads(params: dict, config: ModelConfig, batch: Batch,
                   dtype=np.float32, want_grads: bool = True,
                   start: int = 0, x=None, stop: str | None = None):
    """Mean cross-entropy over the loss-mask positions, plus parameter grads.

    ``start`` and ``x`` resume the forward at a block from its cached
    input, and ``stop`` ends the backward at one weight (see
    :func:`forward_logits` and :func:`backward_from_logits`).
    """
    input_ids, (rows, cols), targets = prediction_targets(config, batch)
    logits, tape = forward_logits(params, config, input_ids if x is None else None, dtype,
                                  start, x)
    picked = logits[rows, cols]
    loss, dpicked = layers.cross_entropy_from_logits(picked, targets)
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")
    if not want_grads:
        return loss, None
    dlogits = np.zeros_like(logits)
    dlogits[rows, cols] = dpicked  # (row, col) pairs from nonzero are unique
    return loss, backward_from_logits(tape, dlogits, stop)
