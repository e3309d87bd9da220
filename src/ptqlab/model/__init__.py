"""Toy transformer with autoregressive and masked-diffusion generation."""

import numpy as np

from .config import (BOS_ID, MASK_ID, MODE_AR, MODE_DIFFUSION, PAD_ID, VOCAB_SIZE,
                     Batch, ModelConfig)
from .checkpoint import ModelCheckpoint, new_checkpoint
from .generate import generate_ar, generate_diffusion
from .network import forward_logits, init_params, prediction_targets
from .network import loss_and_grads as _loss_and_grads


def loss_and_grads(params_or_ckpt, config_or_batch, batch=None, dtype=np.float32,
                   want_grads=True):
    """Loss (and grads) for either (params, config, batch) or (ckpt, batch)."""
    if isinstance(params_or_ckpt, ModelCheckpoint):
        ckpt = params_or_ckpt
        return _loss_and_grads(ckpt.params, ckpt.config, config_or_batch,
                               dtype=dtype, want_grads=want_grads)
    return _loss_and_grads(params_or_ckpt, config_or_batch, batch,
                           dtype=dtype, want_grads=want_grads)


__all__ = [
    "BOS_ID", "MASK_ID", "PAD_ID", "VOCAB_SIZE", "MODE_AR", "MODE_DIFFUSION",
    "Batch", "ModelConfig", "ModelCheckpoint", "new_checkpoint",
    "forward_logits", "init_params", "loss_and_grads",
    "prediction_targets", "generate_ar", "generate_diffusion",
]
