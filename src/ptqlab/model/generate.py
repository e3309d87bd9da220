"""Greedy decoding: autoregressive and confidence-based diffusion infill."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ContractError, ParameterError, ShapeError
from .checkpoint import ModelCheckpoint
from .config import MASK_ID, MODE_AR, MODE_DIFFUSION, PAD_ID
from .network import forward_logits


def generate_ar(ckpt: ModelCheckpoint, prompt, max_new: int) -> list:
    """Greedy next-token decoding; stops early if PAD is emitted."""
    if ckpt.config.mode != MODE_AR:
        raise ContractError(f"generate_ar requires an AR checkpoint, got mode={ckpt.config.mode!r}")
    tokens = [int(t) for t in prompt]
    if len(tokens) + max_new > ckpt.config.max_seq_len:
        raise ShapeError(f"prompt + max_new = {len(tokens) + max_new} exceeds max_seq_len")
    for _ in range(max_new):
        logits, _ = forward_logits(ckpt.params, ckpt.config, np.array([tokens]))
        nxt = int(np.argmax(logits[0, -1]))
        if nxt == PAD_ID:
            break
        tokens.append(nxt)
    return tokens


def generate_diffusion(ckpt: ModelCheckpoint, prompt, target_len: int, steps: int) -> list:
    """Iterative denoising of a fully masked completion region.

    Each step runs one full-sequence forward and commits the
    ``ceil(remaining / remaining_steps)`` highest-confidence masked
    positions (softmax probability of the argmax token; ties go to the
    lowest position index). After ``steps`` steps no MASK remains.
    """
    if ckpt.config.mode != MODE_DIFFUSION:
        raise ContractError(f"generate_diffusion requires a diffusion checkpoint, got mode={ckpt.config.mode!r}")
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if target_len < 0 or len(prompt) + target_len > ckpt.config.max_seq_len:
        raise ParameterError(f"prompt + target_len = {len(prompt) + target_len} exceeds max_seq_len")

    seq = np.array([list(prompt) + [MASK_ID] * target_len], dtype=np.int64)
    start = len(prompt)
    steps_left = steps
    while steps_left > 0:
        masked = np.nonzero(seq[0, start:] == MASK_ID)[0] + start
        if masked.size == 0:
            break
        k = math.ceil(masked.size / steps_left)
        logits, _ = forward_logits(ckpt.params, ckpt.config, seq)
        picked = logits[0, masked].astype(np.float64)
        shifted = picked - picked.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        best_tok = np.argmax(picked, axis=-1)
        conf = probs[np.arange(masked.size), best_tok]
        order = np.lexsort((masked, -conf))  # confidence desc, then position asc
        commit = order[:k]
        seq[0, masked[commit]] = best_tok[commit]
        steps_left -= 1
    return [int(t) for t in seq[0]]
