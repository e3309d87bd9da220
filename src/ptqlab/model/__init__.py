"""Toy transformer with autoregressive and masked-diffusion generation."""

from .config import (BOS_ID, MASK_ID, MODE_AR, MODE_DIFFUSION, PAD_ID, VOCAB_SIZE,
                     Batch, ModelConfig)
from .checkpoint import ModelCheckpoint, new_checkpoint
from .generate import generate_ar, generate_diffusion
from .network import forward_logits, init_params, loss_and_grads, prediction_targets

__all__ = [
    "BOS_ID", "MASK_ID", "PAD_ID", "VOCAB_SIZE", "MODE_AR", "MODE_DIFFUSION",
    "Batch", "ModelConfig", "ModelCheckpoint", "new_checkpoint",
    "forward_logits", "init_params", "loss_and_grads",
    "prediction_targets", "generate_ar", "generate_diffusion",
]
