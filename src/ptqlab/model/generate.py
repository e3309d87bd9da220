"""Greedy decoding: autoregressive and confidence-based diffusion infill."""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, ParameterError, ShapeError
from .checkpoint import ModelCheckpoint
from .config import MASK_ID, MODE_AR, MODE_DIFFUSION, PAD_ID
from .network import forward_logits


def _prompt_batch(prompts) -> np.ndarray:
    """(n, prompt_len) int64 array of a batch of equal-length prompts."""
    try:
        batch = np.array(prompts, dtype=np.int64)
    except ValueError as exc:
        raise ShapeError(f"prompts must have equal lengths: {exc}") from exc
    if batch.ndim != 2 or batch.shape[0] < 1:
        raise ShapeError(f"prompts must be a non-empty batch of sequences, got shape {batch.shape}")
    return batch


def generate_ar(ckpt: ModelCheckpoint, prompts, max_new: int) -> list:
    """Greedy next-token decoding of a batch of equal-length prompts.

    Each step runs one forward over the rows still decoding and appends
    one column. A row stops at its own PAD, which is not kept. Returns the
    token list of each row, prompt included.
    """
    if ckpt.config.mode != MODE_AR:
        raise ContractError(f"generate_ar requires an AR checkpoint, got mode={ckpt.config.mode!r}")
    seq = _prompt_batch(prompts)
    n, start = seq.shape
    if max_new < 0:
        raise ParameterError(f"max_new must be >= 0, got {max_new}")
    if start + max_new > ckpt.config.max_seq_len:
        raise ShapeError(f"prompt + max_new = {start + max_new} exceeds max_seq_len")
    seq = np.concatenate([seq, np.full((n, max_new), PAD_ID, dtype=np.int64)], axis=1)
    lengths = np.full(n, start + max_new)
    live = np.arange(n)
    for col in range(start, start + max_new):
        logits, _ = forward_logits(ckpt.params, ckpt.config, seq[live, :col])
        nxt = np.argmax(logits[:, -1], axis=-1)
        stopped = nxt == PAD_ID
        lengths[live[stopped]] = col
        live, nxt = live[~stopped], nxt[~stopped]
        if live.size == 0:
            break
        seq[live, col] = nxt
    return [row[:length].tolist() for row, length in zip(seq, lengths)]


def generate_diffusion(ckpt: ModelCheckpoint, prompts, target_len: int, steps: int) -> list:
    """Iterative denoising of a fully masked completion region, for a batch of prompts.

    The prompts have equal lengths, so every row starts with ``target_len``
    masks. Each step runs one forward over the batch. Every row commits
    its ``ceil(remaining / remaining_steps)`` highest-confidence masked
    positions (softmax probability of the argmax token; ties go to the
    lowest position index), where ``remaining`` counts the MASK tokens
    left in its completion. After ``steps`` steps no MASK remains, unless
    a row committed MASK itself. Returns the token list of each row,
    prompt included.
    """
    if ckpt.config.mode != MODE_DIFFUSION:
        raise ContractError(f"generate_diffusion requires a diffusion checkpoint, got mode={ckpt.config.mode!r}")
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    seq = _prompt_batch(prompts)
    n, start = seq.shape
    if target_len < 0 or start + target_len > ckpt.config.max_seq_len:
        raise ParameterError(f"prompt + target_len = {start + target_len} exceeds max_seq_len")

    seq = np.concatenate([seq, np.full((n, target_len), MASK_ID, dtype=np.int64)], axis=1)
    for steps_left in range(steps, 0, -1):
        # masked (row, position) pairs, by row and then position
        rows, cols = np.nonzero(seq[:, start:] == MASK_ID)
        if rows.size == 0:
            break
        cols += start
        remaining = np.bincount(rows, minlength=n)
        k = -(-remaining // steps_left)  # ceil per row
        logits, _ = forward_logits(ckpt.params, ckpt.config, seq)
        picked = logits[rows, cols].astype(np.float64)
        best_tok = np.argmax(picked, axis=-1)
        picked -= picked.max(axis=-1, keepdims=True)
        np.exp(picked, out=picked)
        conf = 1.0 / picked.sum(axis=-1)  # the argmax term is exp(0) = 1
        order = np.lexsort((cols, -conf, rows))  # per row: confidence desc, position asc
        rank = np.arange(rows.size) - (np.cumsum(remaining) - remaining)[rows[order]]
        commit = order[rank < k[rows[order]]]
        seq[rows[commit], cols[commit]] = best_tok[commit]
    return seq.tolist()
