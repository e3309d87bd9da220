"""Parameter initialization, forward pass, loss, and hand-rolled backprop."""

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
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, s, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * hd)


def forward_logits(params: dict, config: ModelConfig, input_ids: np.ndarray,
                   dtype=np.float32, capture: dict | None = None):
    """Run the network on raw token ids.

    Returns ``(logits, tape)``; the tape carries every cache needed by
    :func:`backward_from_logits`. When ``capture`` is a dict, the 2-D inputs
    of each attention and feed-forward projection are appended under the
    projection's parameter path (used by the GPTQ calibration pass).
    """
    input_ids = np.asarray(input_ids, dtype=np.int64)
    if input_ids.ndim != 2:
        raise ShapeError(f"input_ids must be (batch, seq), got {input_ids.shape}")
    b, s = input_ids.shape
    if s > config.max_seq_len:
        raise ShapeError(f"sequence length {s} exceeds max_seq_len {config.max_seq_len}")

    def p(name):
        return params[name].astype(dtype, copy=False)

    def record(path, x2d):
        if capture is not None:
            capture.setdefault(path, []).append(np.asarray(x2d, dtype=np.float32))

    tok, tok_ids = layers.embedding_fwd(p("embed.tok"), input_ids)
    pos = p("embed.pos")[:s]
    x = tok + pos
    tape = {"config": config, "input_ids": tok_ids, "dtype": dtype, "blocks": [], "shape": (b, s)}

    for i in range(config.n_layers):
        pre = f"blocks.{i}"
        h, ln1_cache = layers.layer_norm_fwd(x, p(f"{pre}.ln1.gain"), p(f"{pre}.ln1.bias"))
        h2d = h.reshape(b * s, config.d_model)
        record(f"{pre}.attn.q.weight", h2d)
        record(f"{pre}.attn.k.weight", h2d)
        record(f"{pre}.attn.v.weight", h2d)
        q, q_cache = layers.linear_fwd(h2d, p(f"{pre}.attn.q.weight"), p(f"{pre}.attn.q.bias"))
        k, k_cache = layers.linear_fwd(h2d, p(f"{pre}.attn.k.weight"), p(f"{pre}.attn.k.bias"))
        v, v_cache = layers.linear_fwd(h2d, p(f"{pre}.attn.v.weight"), p(f"{pre}.attn.v.bias"))
        qh = _split_heads(q.reshape(b, s, config.d_model), config.n_heads)
        kh = _split_heads(k.reshape(b, s, config.d_model), config.n_heads)
        vh = _split_heads(v.reshape(b, s, config.d_model), config.n_heads)
        attn, attn_cache = layers.attention_fwd(qh, kh, vh, config.causal)
        merged = _merge_heads(attn).reshape(b * s, config.d_model)
        record(f"{pre}.attn.o.weight", merged)
        o, o_cache = layers.linear_fwd(merged, p(f"{pre}.attn.o.weight"), p(f"{pre}.attn.o.bias"))
        x = x + o.reshape(b, s, config.d_model)

        h2, ln2_cache = layers.layer_norm_fwd(x, p(f"{pre}.ln2.gain"), p(f"{pre}.ln2.bias"))
        h2_2d = h2.reshape(b * s, config.d_model)
        record(f"{pre}.mlp.fc_in.weight", h2_2d)
        f, fin_cache = layers.linear_fwd(h2_2d, p(f"{pre}.mlp.fc_in.weight"), p(f"{pre}.mlp.fc_in.bias"))
        g, gelu_cache = layers.gelu_fwd(f)
        record(f"{pre}.mlp.fc_out.weight", g)
        m, fout_cache = layers.linear_fwd(g, p(f"{pre}.mlp.fc_out.weight"), p(f"{pre}.mlp.fc_out.bias"))
        x = x + m.reshape(b, s, config.d_model)

        tape["blocks"].append({
            "ln1": ln1_cache, "q": q_cache, "k": k_cache, "v": v_cache,
            "attn": attn_cache, "o": o_cache,
            "ln2": ln2_cache, "fc_in": fin_cache, "gelu": gelu_cache, "fc_out": fout_cache,
        })

    xf, lnf_cache = layers.layer_norm_fwd(x, p("final_ln.gain"), p("final_ln.bias"))
    xf2d = xf.reshape(b * s, config.d_model)
    logits2d, head_cache = layers.linear_fwd(xf2d, p("head.weight"), None)
    tape["final_ln"] = lnf_cache
    tape["head"] = head_cache
    logits = logits2d.reshape(b, s, config.vocab_size)
    if not np.all(np.isfinite(logits)):
        raise NumericError("forward produced non-finite logits")
    return logits, tape


def backward_from_logits(tape: dict, dlogits: np.ndarray) -> dict:
    """Gradients for every parameter given d(loss)/d(logits)."""
    config: ModelConfig = tape["config"]
    dtype = tape["dtype"]
    b, s = tape["shape"]
    grads: dict = {}

    dlogits2d = dlogits.reshape(b * s, config.vocab_size).astype(dtype, copy=False)
    dxf2d, dw_head, _ = layers.linear_bwd(dlogits2d, tape["head"])
    grads["head.weight"] = dw_head
    dx, dg, dbias = layers.layer_norm_bwd(dxf2d.reshape(b, s, config.d_model), tape["final_ln"])
    grads["final_ln.gain"] = dg
    grads["final_ln.bias"] = dbias

    for i in reversed(range(config.n_layers)):
        pre = f"blocks.{i}"
        c = tape["blocks"][i]

        dm2d = dx.reshape(b * s, config.d_model)
        dg_act, dw_fout, db_fout = layers.linear_bwd(dm2d, c["fc_out"])
        df = layers.gelu_bwd(dg_act, c["gelu"])
        dh2_2d, dw_fin, db_fin = layers.linear_bwd(df, c["fc_in"])
        dx_ln2, dg_ln2, db_ln2 = layers.layer_norm_bwd(dh2_2d.reshape(b, s, config.d_model), c["ln2"])
        grads[f"{pre}.mlp.fc_out.weight"] = dw_fout
        grads[f"{pre}.mlp.fc_out.bias"] = db_fout
        grads[f"{pre}.mlp.fc_in.weight"] = dw_fin
        grads[f"{pre}.mlp.fc_in.bias"] = db_fin
        grads[f"{pre}.ln2.gain"] = dg_ln2
        grads[f"{pre}.ln2.bias"] = db_ln2
        dx = dx + dx_ln2  # residual branch

        do2d = dx.reshape(b * s, config.d_model)
        dmerged, dw_o, db_o = layers.linear_bwd(do2d, c["o"])
        dattn = _split_heads(dmerged.reshape(b, s, config.d_model), config.n_heads)
        dqh, dkh, dvh = layers.attention_bwd(dattn, c["attn"])
        dq2d = _merge_heads(dqh).reshape(b * s, config.d_model)
        dk2d = _merge_heads(dkh).reshape(b * s, config.d_model)
        dv2d = _merge_heads(dvh).reshape(b * s, config.d_model)
        dh_q, dw_q, db_q = layers.linear_bwd(dq2d, c["q"])
        dh_k, dw_k, db_k = layers.linear_bwd(dk2d, c["k"])
        dh_v, dw_v, db_v = layers.linear_bwd(dv2d, c["v"])
        dh = (dh_q + dh_k + dh_v).reshape(b, s, config.d_model)
        dx_ln1, dg_ln1, db_ln1 = layers.layer_norm_bwd(dh, c["ln1"])
        grads[f"{pre}.attn.o.weight"] = dw_o
        grads[f"{pre}.attn.o.bias"] = db_o
        grads[f"{pre}.attn.q.weight"] = dw_q
        grads[f"{pre}.attn.q.bias"] = db_q
        grads[f"{pre}.attn.k.weight"] = dw_k
        grads[f"{pre}.attn.k.bias"] = db_k
        grads[f"{pre}.attn.v.weight"] = dw_v
        grads[f"{pre}.attn.v.bias"] = db_v
        grads[f"{pre}.ln1.gain"] = dg_ln1
        grads[f"{pre}.ln1.bias"] = db_ln1
        dx = dx + dx_ln1

    ids = tape["input_ids"]
    grads["embed.tok"] = layers.embedding_bwd(dx, ids, (config.vocab_size, config.d_model), dtype)
    grads["embed.pos"] = np.zeros((config.max_seq_len, config.d_model), dtype=dtype)
    grads["embed.pos"][:s] = np.sum(dx, axis=0, dtype=np.float64).astype(dtype)
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
                   dtype=np.float32, want_grads: bool = True):
    """Mean cross-entropy over the loss-mask positions, plus parameter grads."""
    input_ids, (rows, cols), targets = prediction_targets(config, batch)
    logits, tape = forward_logits(params, config, input_ids, dtype=dtype)
    picked = logits[rows, cols]
    loss, dpicked = layers.cross_entropy_from_logits(picked, targets)
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")
    if not want_grads:
        return loss, None
    dlogits = np.zeros_like(logits)
    dlogits[rows, cols] = dpicked  # (row, col) pairs from nonzero are unique
    return loss, backward_from_logits(tape, dlogits)
