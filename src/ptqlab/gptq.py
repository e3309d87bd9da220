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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, NotPositiveDefiniteError, ParameterError
from .model import ModelCheckpoint, prediction_targets
from .model.checkpoint import EMBEDDING_PATHS
from .model.network import block_fwd, block_index, embed_fwd, projection_key
from .numerics import cholesky_upper_of_inverse
from .quant import (DEFAULT_GROUP_SIZE, GroupQuantSpec, QuantizedWeight, QuantPlan,
                    dequantize, group_scales, quantized_copy, round_half_away_from_zero)

ORDER_ASCENDING = "ascending"
ORDER_BY_DIAG_DESC = "by_diag_desc"
MAX_RETRIES = 3  # damping escalations (x10 each) before a layer fails


@dataclass(frozen=True)
class GptqConfig:
    group_size: int = DEFAULT_GROUP_SIZE  # of every plan the pipeline builds
    damping: float = 0.01  # fraction of mean(diag H)
    column_order: str = ORDER_ASCENDING

    def __post_init__(self):
        if self.group_size < 1:
            raise ParameterError(f"group_size must be >= 1, got {self.group_size}")
        if self.damping <= 0:
            raise ParameterError("damping fraction must be > 0")
        if self.column_order not in (ORDER_ASCENDING, ORDER_BY_DIAG_DESC):
            raise ParameterError(f"unknown column order {self.column_order!r}")


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


def collect_calibration(ckpt: ModelCheckpoint, inputs, paths) -> dict:
    """Accumulate the Hessians of the layers at ``paths`` from their block's cached inputs.

    The layers share one input, as the layers of a stage of
    :func:`gptq_quantize_model` do: the block runs from each cached input
    (one per calibration batch) up to that input and no further, and one
    ``2 xᵀx`` per batch serves every layer. The layers' calibrations share
    that Hessian array.
    """
    i = block_index(paths[0])
    calib = LayerCalibration(paths[0], np.zeros((ckpt.params[paths[0]].shape[1],) * 2))
    for x in inputs:
        calib.add(block_fwd(ckpt.params, ckpt.config, i, x, stop=paths[0]))
    return {p: replace(calib, path=p) for p in paths}


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


def gptq_quantize_layer(weight: np.ndarray, calib: LayerCalibration, spec: GroupQuantSpec,
                        cfg: GptqConfig):
    """(QuantizedWeight, recon_error) for one layer on ``spec``'s grid (2-8 bits).

    recon_error is tr(D^T D H) / 2 with D the weight change and H the raw
    calibration Hessian, i.e. the ||D X||_F^2 reconstruction objective.
    """
    if spec.passthrough:
        raise ParameterError("16 bits is passthrough: the weight is kept, not quantized")
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
    # row j of the working copy is column perm[j]: each step reads one
    # contiguous row and updates the contiguous rows below it
    wt = np.ascontiguousarray(w_orig[:, perm].T)
    hp = h[perm][:, perm]

    upper = _damped_inverse_factor(hp, cfg.damping)
    qmax = spec.qmax
    gs = spec.group_size
    n_groups = math.ceil(d_in / gs)
    scales_t = np.zeros((n_groups, d_out), dtype=np.float64)
    seen_group = np.zeros(n_groups, dtype=bool)
    codes_t = np.zeros((d_in, d_out), dtype=np.int16)

    group_of = perm // gs  # original-index group of each processed column
    col_in_group = {g: np.nonzero(group_of == g)[0] for g in range(n_groups)}

    # column buffers, allocated once: the scaled and the quantized column,
    # the scaled error, and the rank-1 update of the rows below
    scaled = np.empty(d_out)
    q = np.empty(d_out)
    err = np.empty(d_out)
    update = np.empty((d_in, d_out))
    for j in range(d_in):
        g = group_of[j]
        s = scales_t[g]
        if not seen_group[g]:
            # scales from the current (compensated) weights of this group
            s[:] = group_scales(wt[col_in_group[g]].T, qmax)
            seen_group[g] = True
        w_j = wt[j]
        np.divide(w_j, s, out=scaled)
        round_half_away_from_zero(scaled, out=q)
        np.maximum(q, -qmax, out=q)
        np.minimum(q, qmax, out=q)
        codes_t[j] = q
        deq = np.multiply(codes_t[j], s, out=q)
        if j + 1 < d_in:
            np.subtract(w_j, deq, out=err)
            err /= upper[j, j]
            rows = update[:d_in - j - 1]
            np.multiply(upper[j, j + 1:, None], err, out=rows)
            wt[j + 1:] -= rows
        w_j[:] = deq  # the working copy ends as the dequantized weight

    inv_perm = np.argsort(perm)
    qw = QuantizedWeight((d_out, d_in), spec, np.ascontiguousarray(scales_t.T),
                         np.ascontiguousarray(codes_t[inv_perm].T))
    delta = w_orig - np.ascontiguousarray(wt[inv_perm].T)
    recon_error = float(np.trace(delta.T @ delta @ h)) / 2.0
    return qw, recon_error


def gptq_quantize_model(ckpt: ModelCheckpoint, plan: QuantPlan, batches, cfg: GptqConfig):
    """Quantize each layer at its planned width in forward order; returns
    (checkpoint, per-layer report).

    Each stage's calibration inputs come from the already-quantized prefix
    of the model, so downstream layers see the activation distribution they
    will face at inference time. The input of every block is cached per
    batch and advanced through a block once all its layers are quantized,
    so a stage runs only its own block, and the head never runs. 16-bit
    layers pass through, and a stage of only 16-bit layers is skipped.
    """
    if not batches:
        raise ContractError("no calibration batches")
    embedded = sorted(set(plan.bits) & set(EMBEDDING_PATHS))
    if embedded:
        raise ParameterError(f"GPTQ does not quantize the embedding paths {embedded}")
    out = quantized_copy(ckpt, plan, "gptq")
    stages: dict = {}
    for p in ckpt.quantizable_paths():
        if not plan.spec(p).passthrough:
            stages.setdefault(projection_key(p)[:2], []).append(p)  # (block, stage)
    inputs = [embed_fwd(out.params, out.config, prediction_targets(out.config, b)[0])[0]
              for b in batches]
    block = 0
    report = []
    for key in sorted(stages):
        while block < key[0]:
            inputs = [block_fwd(out.params, out.config, block, x)[0] for x in inputs]
            block += 1
        calibs = collect_calibration(out, inputs, stages[key])
        for p in stages[key]:
            qw, err = gptq_quantize_layer(out.params[p], calibs[p], plan.spec(p), cfg)
            out.params[p] = _deq32(qw)
            report.append(_report_row(p, err, qw))
    return out, report


def _deq32(qw: QuantizedWeight) -> np.ndarray:
    return dequantize(qw).astype(np.float32)


def _report_row(path: str, recon_error: float, qw: QuantizedWeight) -> dict:
    return {
        "path": path,
        "bits": qw.spec.bits,
        "recon_error": recon_error,
        "scale_min": float(qw.scales.min()),
        "scale_mean": float(qw.scales.mean()),
        "scale_max": float(qw.scales.max()),
    }
