"""Layer-wise GPTQ: calibration Hessians plus error-compensated rounding.

Per stage (the layers that read one input), H = 2 * sum_t x_t x_t^T over
calibration token positions, in float64. The upper Cholesky factor U of
the damped H's inverse (inv(H) = U^T U), which
:func:`~ptqlab.numerics.cholesky_upper_of_inverse` takes from one
factorization of H, drives the column loop, which walks the columns in
index order: after quantizing column j, the not-yet-quantized columns are
updated with err_j = (w_j - q_j) / U[j, j] and W[:, k] -= err_j * U[j, k],
which reproduces the sequential optimal-brain-surgeon compensation exactly
while factorizing only once. A group's scales are taken from its current
(already compensated) weights when the loop reaches the group's first
column, and codes are rounded by :func:`~ptqlab.quant.grid_codes`, as RTN
rounds them. :func:`gptq_quantize_model` runs on one BLAS thread
(:func:`~ptqlab.numerics.one_blas_thread`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, NotPositiveDefiniteError, ParameterError, require_count,
                     require_positive)
from .model import ModelCheckpoint, prediction_targets
from .model.network import block_fwd, block_index, embed_fwd, projection_key
from .numerics import cholesky_upper_of_inverse, one_blas_thread
from .quant import (DEFAULT_GROUP_SIZE, GroupQuantSpec, QuantizedWeight, QuantPlan,
                    dequantize, grid_codes, group_scales, quantized_copy)

MAX_RETRIES = 3  # damping escalations (x10 each) before a layer fails


@dataclass(frozen=True)
class GptqConfig:
    group_size: int = DEFAULT_GROUP_SIZE  # of every plan the pipeline builds
    damping: float = 0.01  # fraction of mean(diag H)

    def __post_init__(self):
        require_count("group_size", self.group_size)
        require_positive("damping", self.damping)


def collect_calibration(ckpt: ModelCheckpoint, inputs, paths) -> np.ndarray:
    """The float64 Hessian ``2 Σ xᵀx`` that the layers at ``paths`` share.

    The layers share one input, as the layers of a stage of
    :func:`gptq_quantize_model` do: the block runs from each cached input
    (one per calibration batch) up to that input and no further, and one
    ``2 xᵀx`` per batch is added to the sum.
    """
    i = block_index(paths[0])
    h = np.zeros((ckpt.params[paths[0]].shape[1],) * 2)
    for x in inputs:
        layer_in = block_fwd(ckpt.params, ckpt.config, i, x, stop=paths[0]).astype(np.float64)
        h += 2.0 * (layer_in.T @ layer_in)
    return h


def _damped_inverse_factor(h: np.ndarray, damping: float):
    """Upper Cholesky factor of inv(H + delta I), escalating delta on failure."""
    delta = damping * float(np.mean(np.diag(h)))
    if delta <= 0:
        delta = damping
    for _ in range(MAX_RETRIES):
        try:
            return cholesky_upper_of_inverse(h + delta * np.eye(h.shape[0]))
        except NotPositiveDefiniteError:
            delta *= 10.0
    return cholesky_upper_of_inverse(h + delta * np.eye(h.shape[0]))  # its failure propagates


def gptq_quantize_layer(weight: np.ndarray, hessian: np.ndarray, spec: GroupQuantSpec,
                        cfg: GptqConfig):
    """(QuantizedWeight, recon_error) for one layer on ``spec``'s grid (2-8 bits).

    ``hessian`` is the layer's calibration Hessian ``2 Σ xᵀx`` (float64).
    recon_error is tr(D H D^T) / 2 with D the weight change and H that raw
    Hessian, i.e. the ||D X||_F^2 reconstruction objective.
    """
    if spec.passthrough:
        raise ParameterError("16 bits is passthrough: the weight is kept, not quantized")
    w_orig = np.asarray(weight, dtype=np.float64)
    d_out, d_in = w_orig.shape
    if hessian.shape != (d_in, d_in):
        raise ParameterError(f"Hessian shape {hessian.shape} does not match d_in={d_in}")

    # row j of the working copy is column j: each step reads one contiguous
    # row and updates the contiguous rows below it (a copy even where the
    # transpose of a one-row float64 weight is already contiguous)
    wt = w_orig.T.copy()

    upper = _damped_inverse_factor(hessian, cfg.damping)
    qmax = spec.qmax
    gs = spec.group_size
    scales_t = np.zeros((math.ceil(d_in / gs), d_out), dtype=np.float64)
    codes_t = np.zeros((d_in, d_out), dtype=np.int16)
    for j in range(d_in):
        s = scales_t[j // gs]
        if j % gs == 0:
            # scales from the current (compensated) weights of this group
            s[:] = group_scales(wt[j:j + gs].T, qmax)
        codes_t[j] = grid_codes(wt[j], s, qmax)
        deq = codes_t[j] * s
        wt[j + 1:] -= upper[j, j + 1:, None] * ((wt[j] - deq) / upper[j, j])
        wt[j] = deq  # the working copy ends as the dequantized weight

    qw = QuantizedWeight(spec, np.ascontiguousarray(scales_t.T), np.ascontiguousarray(codes_t.T))
    delta = w_orig - np.ascontiguousarray(wt.T)
    recon_error = float(np.sum((delta @ hessian) * delta)) / 2.0
    return qw, recon_error


@one_blas_thread()
def gptq_quantize_model(ckpt: ModelCheckpoint, plan: QuantPlan, batches, cfg: GptqConfig):
    """Quantize each layer at its planned width in forward order; the returned
    checkpoint's ``meta["quantization"]["layers"]`` holds each quantized layer's row.

    Each stage's calibration inputs come from the already-quantized prefix
    of the model, so downstream layers see the activation distribution they
    will face at inference time. The input of every block is cached per
    batch and advanced through a block once all its layers are quantized,
    so a stage runs only its own block, and the head never runs. 16-bit
    layers pass through, and a stage of only 16-bit layers is skipped.
    """
    if not batches:
        raise ContractError("no calibration batches")
    out = quantized_copy(ckpt, plan, "gptq")
    stages: dict = {}
    for p in ckpt.quantizable_paths():
        if not plan.spec(p).passthrough:
            stages.setdefault(projection_key(p)[:2], []).append(p)  # (block, stage)
    inputs = [embed_fwd(out.params, out.config, prediction_targets(out.config, b)[0])[0]
              for b in batches]
    block = 0
    rows = out.meta["quantization"]["layers"] = []
    for key in sorted(stages):
        while block < key[0]:
            inputs = [block_fwd(out.params, out.config, block, x)[0] for x in inputs]
            block += 1
        hessian = collect_calibration(out, inputs, stages[key])
        for p in stages[key]:
            qw, err = gptq_quantize_layer(out.params[p], hessian, plan.spec(p), cfg)
            out.params[p] = dequantize(qw).astype(np.float32)
            rows.append({"path": p, "bits": qw.spec.bits, "recon_error": err,
                         "scale_min": float(qw.scales.min()),
                         "scale_mean": float(qw.scales.mean()),
                         "scale_max": float(qw.scales.max())})
    return out
