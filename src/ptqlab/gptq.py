"""Layer-wise GPTQ: calibration Hessians plus error-compensated rounding.

Per layer, H = 2 * sum_t x_t x_t^T over calibration token positions. The
damped H is inverted through :func:`~ptqlab.numerics.cholesky_invert_spd`
and the upper Cholesky factor U of that inverse (inv(H) = U^T U) drives the
column loop: after quantizing column j, the not-yet-quantized columns are
updated with err_j = (w_j - q_j) / U[j, j] and W[:, k] -= err_j * U[j, k],
which reproduces the sequential optimal-brain-surgeon compensation exactly
while factorizing only once. Group scales are taken from the current
(already compensated) weights when a group is first visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NotPositiveDefiniteError, ParameterError
from .model import ModelCheckpoint, prediction_targets
from .model.config import MODE_DIFFUSION, Batch
from .model.network import forward_logits
from .numerics import cholesky_upper_of_inverse
from .quant import (DEFAULT_GROUP_SIZE, QUANT_BITS, GroupQuantSpec, QuantizedWeight,
                    dequantize, group_scales, round_half_away_from_zero)

ORDER_ASCENDING = "ascending"
ORDER_BY_DIAG_DESC = "by_diag_desc"
MAX_RETRIES = 3  # damping escalations (x10 each) before a layer fails


@dataclass(frozen=True)
class GptqConfig:
    bits: int = 4  # callers that sweep widths replace it per call
    group_size: int = DEFAULT_GROUP_SIZE
    damping: float = 0.01  # fraction of mean(diag H)
    column_order: str = ORDER_ASCENDING

    def __post_init__(self):
        if self.bits not in QUANT_BITS:
            raise ParameterError(f"GPTQ supports bits in {QUANT_BITS}, got {self.bits}")
        if self.damping <= 0:
            raise ParameterError("damping fraction must be > 0")
        if self.column_order not in (ORDER_ASCENDING, ORDER_BY_DIAG_DESC):
            raise ParameterError(f"unknown column order {self.column_order!r}")
        self.spec()  # validates group_size

    def spec(self) -> GroupQuantSpec:
        return GroupQuantSpec(self.bits, self.group_size)


@dataclass
class LayerCalibration:
    path: str
    hessian: np.ndarray  # (d_in, d_in) float64, 2 * sum x x^T
    n_samples: int = 0

    def add(self, x: np.ndarray) -> None:
        """Accumulate a (tokens, d_in) block of layer inputs."""
        x = np.asarray(x, dtype=np.float64)
        self.hessian += 2.0 * (x.T @ x)
        self.n_samples += x.shape[0]


def calibration_inputs(ckpt: ModelCheckpoint, batch: Batch) -> np.ndarray:
    """Model input for a calibration batch in the checkpoint's native mode.

    Diffusion checkpoints are calibrated on masked inputs drawn from the
    training distribution (the batch's own loss mask); AR checkpoints see
    the clean tokens.
    """
    if ckpt.config.mode == MODE_DIFFUSION and batch.loss_mask.any():
        input_ids, _, _ = prediction_targets(ckpt.config, batch)
        return input_ids
    return batch.token_ids


def collect_calibration(ckpt: ModelCheckpoint, batches, paths=None) -> dict:
    """Accumulate per-layer Hessians over the calibration batches."""
    if not batches:
        raise ContractError("no calibration batches")
    if paths is None:
        paths = ckpt.quantizable_paths()
    calibs = {p: LayerCalibration(p, np.zeros((ckpt.params[p].shape[1],) * 2)) for p in paths}
    total_tokens = 0
    for batch in batches:
        capture: dict = {}
        forward_logits(ckpt.params, ckpt.config, calibration_inputs(ckpt, batch), capture=capture)
        for p in paths:
            for x in capture.get(p, ()):
                calibs[p].add(x)
        total_tokens += batch.token_ids.size
    if total_tokens == 0:
        raise ContractError("calibration batches contain zero tokens")
    return calibs


def _damped_inverse_factor(h: np.ndarray, damping: float):
    """Upper Cholesky factor of inv(H + delta I), escalating delta on failure."""
    delta = damping * float(np.mean(np.diag(h)))
    if delta <= 0:
        delta = damping
    for attempt in range(MAX_RETRIES + 1):
        try:
            return cholesky_upper_of_inverse(h + delta * np.eye(h.shape[0]))
        except NotPositiveDefiniteError:
            if attempt == MAX_RETRIES:
                raise
            delta *= 10.0
    raise AssertionError("unreachable")


def gptq_quantize_layer(weight: np.ndarray, calib: LayerCalibration, cfg: GptqConfig):
    """(QuantizedWeight, recon_error) for one layer.

    recon_error is tr(D^T D H) / 2 with D the weight change and H the raw
    calibration Hessian, i.e. the ||D X||_F^2 reconstruction objective.
    """
    if calib.n_samples <= 0:
        raise ContractError(f"layer {calib.path}: no calibration samples")
    w_orig = np.asarray(weight, dtype=np.float64)
    d_out, d_in = w_orig.shape
    h = calib.hessian
    if h.shape != (d_in, d_in):
        raise ParameterError(f"Hessian shape {h.shape} does not match d_in={d_in}")

    if cfg.column_order == ORDER_BY_DIAG_DESC:
        perm = np.argsort(-np.diag(h), kind="stable")
    else:
        perm = np.arange(d_in)
    wp = w_orig[:, perm].copy()
    hp = h[perm][:, perm]

    upper = _damped_inverse_factor(hp, cfg.damping)
    qmax = cfg.spec().qmax
    gs = cfg.group_size
    n_groups = math.ceil(d_in / gs)
    scales = np.zeros((d_out, n_groups), dtype=np.float64)
    seen_group = np.zeros(n_groups, dtype=bool)
    codes_perm = np.zeros((d_out, d_in), dtype=np.int16)
    deq_perm = np.zeros((d_out, d_in), dtype=np.float64)

    group_of = perm // gs  # original-index group of each processed column
    col_in_group = {g: np.nonzero(group_of == g)[0] for g in range(n_groups)}

    for j in range(d_in):
        g = group_of[j]
        if not seen_group[g]:
            # scales from the current (compensated) weights of this group
            scales[:, g] = group_scales(wp[:, col_in_group[g]], qmax)
            seen_group[g] = True
        s = scales[:, g]
        codes = np.clip(round_half_away_from_zero(wp[:, j] / s), -qmax, qmax).astype(np.int16)
        deq = codes.astype(np.float64) * s
        codes_perm[:, j] = codes
        deq_perm[:, j] = deq
        if j + 1 < d_in:
            err = (wp[:, j] - deq) / upper[j, j]
            wp[:, j + 1:] -= np.outer(err, upper[j, j + 1:])

    inv_perm = np.argsort(perm)
    qw = QuantizedWeight((d_out, d_in), cfg.spec(), scales,
                         codes_perm[:, inv_perm])
    delta = w_orig - deq_perm[:, inv_perm]
    recon_error = float(np.trace(delta.T @ delta @ h)) / 2.0
    return qw, recon_error


def _stage_key(path: str):
    # q/k/v share inputs and do not affect each other's inputs
    parts = path.split(".")  # blocks.<i>.<attn|mlp>.<layer>.weight
    return (int(parts[1]), {"q": 0, "k": 0, "v": 0, "o": 1, "fc_in": 2, "fc_out": 3}[parts[-2]])


def gptq_quantize_model(ckpt: ModelCheckpoint, batches, cfg: GptqConfig):
    """Quantize layers in forward order; returns (checkpoint, per-layer report).

    Each stage's calibration inputs come from the already-quantized prefix
    of the model, so downstream layers see the activation distribution they
    will face at inference time.
    """
    stages: dict = {}
    for p in ckpt.quantizable_paths():
        stages.setdefault(_stage_key(p), []).append(p)
    out = ckpt.copy()
    report = []
    for key in sorted(stages):
        calibs = collect_calibration(out, batches, stages[key])
        for p in stages[key]:
            qw, err = gptq_quantize_layer(out.params[p], calibs[p], cfg)
            out.params[p] = _deq32(qw)
            report.append(_report_row(p, cfg, err, qw))
    out.meta = dict(out.meta)
    out.meta["quantization"] = {"method": "gptq", "bits": cfg.bits, "group_size": cfg.group_size}
    return out, report


def _deq32(qw: QuantizedWeight) -> np.ndarray:
    return dequantize(qw).astype(np.float32)


def _report_row(path: str, cfg: GptqConfig, recon_error: float, qw: QuantizedWeight) -> dict:
    return {
        "path": path,
        "bits": cfg.bits,
        "recon_error": recon_error,
        "scale_min": float(qw.scales.min()),
        "scale_mean": float(qw.scales.mean()),
        "scale_max": float(qw.scales.max()),
    }
