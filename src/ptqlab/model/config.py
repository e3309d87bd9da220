"""Model configuration, special tokens, and the batch container."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError, ParameterError, require_count

# Byte-level vocabulary: 256 raw bytes followed by the specials.
MASK_ID = 256
BOS_ID = 257
PAD_ID = 258
VOCAB_SIZE = 259

MODE_AR = "ar"
MODE_DIFFUSION = "diffusion"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture plus generation mode.

    ``mode`` decides the attention mask: causal for autoregressive decoding,
    full bidirectional for diffusion denoising. Everything else is shared so
    paired checkpoints differ only in how they generate.
    """

    vocab_size: int = VOCAB_SIZE
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 128
    mode: str = MODE_AR

    def __post_init__(self):
        if self.mode not in (MODE_AR, MODE_DIFFUSION):
            raise ParameterError(f"mode must be '{MODE_AR}' or '{MODE_DIFFUSION}', got {self.mode!r}")
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len"):
            require_count(name, getattr(self, name))
        if self.d_model % self.n_heads != 0:
            raise ParameterError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")

    @property
    def causal(self) -> bool:
        return self.mode == MODE_AR


@dataclass
class Batch:
    """Clean token grid plus the positions whose prediction is scored.

    ``loss_mask[b, t]`` marks token ``t`` of row ``b`` as a prediction
    target. In AR mode that token is predicted from the logits at position
    ``t - 1`` (so column 0 must be unmasked); in diffusion mode the input fed
    to the network carries MASK at the marked positions and the logits at
    ``t`` itself are scored.
    """

    token_ids: np.ndarray
    loss_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        if self.token_ids.ndim != 2:
            raise ContractError(f"token_ids must be 2-D, got shape {self.token_ids.shape}")
        if self.loss_mask is None:
            self.loss_mask = np.zeros_like(self.token_ids, dtype=bool)
        self.loss_mask = np.asarray(self.loss_mask, dtype=bool)
        if self.loss_mask.shape != self.token_ids.shape:
            raise ContractError("loss_mask shape must match token_ids")
        if self.token_ids.min(initial=0) < 0 or self.token_ids.max(initial=0) >= VOCAB_SIZE:
            raise ContractError("token ids out of vocabulary range")
