"""Training loop producing matched AR/diffusion checkpoints from shared data."""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass

import numpy as np

from . import tasks
from .errors import (DivergenceError, NumericError, ParameterError, is_number, require_count,
                     require_positive)
from .files import write_atomic
from .model import Batch, ModelCheckpoint, ModelConfig, loss_and_grads, new_checkpoint
from .model.config import MODE_AR, MODE_DIFFUSION
from .numerics import make_rng


@dataclass(frozen=True)
class TrainConfig:
    mode: str = MODE_AR
    steps: int = 3000
    batch_size: int = 32
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    text_fraction: float = 0.15
    corpus_path: str | None = None
    log_path: str | None = None
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 128

    def __post_init__(self):
        require_count("steps", self.steps)
        require_count("batch_size", self.batch_size)
        require_positive("learning_rate", self.learning_rate)
        if not is_number(self.text_fraction) or not 0.0 <= self.text_fraction < 1.0:
            raise ParameterError(f"text_fraction must be a number in [0, 1), "
                                 f"got {self.text_fraction!r}")
        if not isinstance(self.corpus_path, (str, type(None))):  # an int would be a file descriptor
            raise ParameterError(f"corpus_path must be a string or null, got {self.corpus_path!r}")
        self.model_config()  # the architecture fails here, not once training starts
        # a task row always fits, and a text row too while text_fraction > 0
        require_count("max_seq_len", self.max_seq_len,
                      max(tasks.TASK_ROW_LEN, tasks.TEXT_ROW_LEN if self.text_fraction > 0 else 0))

    def model_config(self) -> ModelConfig:
        return ModelConfig(d_model=self.d_model, n_layers=self.n_layers,
                           n_heads=self.n_heads, d_ff=self.d_ff,
                           max_seq_len=self.max_seq_len, mode=self.mode)


class AdamState:
    """Plain Adam with bias correction; state per parameter."""

    def __init__(self, params: dict, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            scratch = np.subtract(g, m)
            scratch *= 1.0 - self.beta1
            m += scratch
            np.multiply(g, g, out=scratch)
            scratch -= v
            scratch *= 1.0 - self.beta2
            v += scratch
            np.divide(v, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            update = m / bc1
            update *= self.lr
            update /= scratch
            params[k] -= update


def _next_batch(cfg: TrainConfig, data_rng, corrupt_rng, corpus: bytes) -> Batch:
    use_text = data_rng.random() < cfg.text_fraction
    if use_text:
        rows = tasks.sample_text_rows(data_rng, cfg.batch_size, corpus)
        completion_start = None  # free text has no prompt/answer split
    else:
        rows = tasks.sample_task_rows(data_rng, cfg.batch_size)
        completion_start = tasks.TASK_ROW_LEN - tasks.PAYLOAD_LEN
    if cfg.mode == MODE_DIFFUSION:
        return tasks.diffusion_batch(rows, corrupt_rng, completion_start=completion_start)
    return tasks.ar_batch(rows)


def calibration_batches(cfg: TrainConfig, n_batches: int, seed_offset: int = 7101) -> list:
    """Batches drawn from the training distribution, e.g. for GPTQ/HAWQ."""
    corpus = tasks.load_corpus(cfg.corpus_path)
    data_rng = make_rng(cfg.seed + seed_offset)
    corrupt_rng = make_rng(cfg.seed + seed_offset + 1)
    return [_next_batch(cfg, data_rng, corrupt_rng, corpus) for _ in range(n_batches)]


def train(cfg: TrainConfig) -> ModelCheckpoint:
    """Train from scratch; deterministic in the seed, logs (step, loss) CSV."""
    corpus = tasks.load_corpus(cfg.corpus_path)
    config = cfg.model_config()
    ckpt = new_checkpoint(config, cfg.seed)
    params = ckpt.params
    # the data stream depends only on (seed, batch shape), never on the mode,
    # so paired AR/diffusion runs consume identical clean rows
    data_rng = make_rng(cfg.seed + 1)
    corrupt_rng = make_rng(cfg.seed + 2)
    opt = AdamState(params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)

    held = calibration_batches(cfg, 4, seed_offset=9090)
    init_loss = float(np.mean([loss_and_grads(params, config, b, want_grads=False)[0] for b in held]))

    curve = []
    for step in range(1, cfg.steps + 1):
        batch = _next_batch(cfg, data_rng, corrupt_rng, corpus)
        try:
            loss, grads = loss_and_grads(params, config, batch)
        except NumericError as exc:
            raise DivergenceError(f"loss became non-finite at step {step}") from exc
        opt.step(params, grads)
        curve.append((step, loss))

    final_loss = float(np.mean([loss_and_grads(params, config, b, want_grads=False)[0] for b in held]))
    ckpt.meta.update({
        "seed": cfg.seed,
        "steps": cfg.steps,
        "mode": cfg.mode,
        "corpus_hash": tasks.corpus_hash(corpus),
        "train_config": asdict(cfg),
        "heldout_loss_init": init_loss,
        "heldout_loss_final": final_loss,
    })
    if cfg.log_path:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["step", "loss"])
        writer.writerows((step, f"{loss:.6f}") for step, loss in curve)
        write_atomic(cfg.log_path, buf.getvalue())
    return ckpt

