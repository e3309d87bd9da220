"""Per-group symmetric simulated quantization.

Weight matrices are partitioned along the input dimension (axis 1) into
fixed-size groups; each (row, group) pair gets one scale. The grid is
symmetric with qmax = 2**(bits-1) - 1 and no zero point, values are rounded
half away from zero, and 16 bits means exact passthrough. Quantized models
keep float32 storage: weights are replaced by their dequantized values
("simulated" quantization), so only accuracy effects are modeled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CoverageError, NumericError, ParameterError
from .model.checkpoint import EMBEDDING_PATHS, ModelCheckpoint

SUPPORTED_BITS = (2, 3, 4, 8, 16)
QUANT_BITS = (2, 3, 4, 8)  # widths that actually round
DEFAULT_GROUP_SIZE = 128
SCALE_BITS = 16  # storage cost of one per-group scale

PROVENANCE_UNIFORM = "uniform"
PROVENANCE_HAWQ = "hawq_split"
PROVENANCE_MANUAL = "manual"


@dataclass(frozen=True)
class GroupQuantSpec:
    bits: int
    group_size: int = DEFAULT_GROUP_SIZE

    def __post_init__(self):
        if self.bits not in SUPPORTED_BITS:
            raise ParameterError(f"bits must be one of {SUPPORTED_BITS}, got {self.bits}")
        if self.group_size < 1:
            raise ParameterError(f"group_size must be >= 1, got {self.group_size}")

    @property
    def passthrough(self) -> bool:
        return self.bits == 16

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1


@dataclass
class QuantizedWeight:
    shape: tuple
    spec: GroupQuantSpec
    scales: np.ndarray | None  # (d_out, n_groups) float64; None for passthrough
    codes: np.ndarray | None   # (d_out, d_in) int16; None for passthrough
    values: np.ndarray | None = None  # original array (passthrough only)


def round_half_away_from_zero(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def group_scales(blocks: np.ndarray, qmax: int) -> np.ndarray:
    """Scale per group of the last axis: peak |w| / qmax, 1 for an all-zero group."""
    peak = np.max(np.abs(blocks), axis=-1)
    return np.where(peak > 0, peak / qmax, 1.0)


def _grouped(x: np.ndarray, group_size: int) -> np.ndarray:
    """(rows, n_groups, group_size) copy of a 2-D array, the last group zero-padded."""
    d_out, d_in = x.shape
    n_groups = math.ceil(d_in / group_size)
    return np.pad(x, ((0, 0), (0, n_groups * group_size - d_in))).reshape(
        d_out, n_groups, group_size)


def _ungrouped(blocks: np.ndarray, d_in: int) -> np.ndarray:
    """Inverse of :func:`_grouped`: the first ``d_in`` columns, C-contiguous."""
    return np.ascontiguousarray(blocks.reshape(blocks.shape[0], -1)[:, :d_in])


def quantize_weight(weight: np.ndarray, spec: GroupQuantSpec) -> QuantizedWeight:
    """Quantize a 2-D weight group-by-group along the input dimension."""
    weight = np.asarray(weight)
    if weight.ndim != 2:
        raise ParameterError(f"expected a 2-D weight, got shape {weight.shape}")
    if spec.passthrough:
        return QuantizedWeight(weight.shape, spec, None, None, weight.copy())
    w = weight.astype(np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericError("non-finite values in weight")
    blocks = _grouped(w, spec.group_size)  # zero padding leaves every peak unchanged
    scales = group_scales(blocks, spec.qmax)
    codes = np.clip(round_half_away_from_zero(blocks / scales[..., None]),
                    -spec.qmax, spec.qmax).astype(np.int16)
    return QuantizedWeight(weight.shape, spec, scales, _ungrouped(codes, w.shape[1]))


def dequantize(qw: QuantizedWeight) -> np.ndarray:
    """code * scale per element; exact passthrough when bits == 16."""
    if qw.spec.passthrough:
        return qw.values.copy()
    blocks = _grouped(qw.codes, qw.spec.group_size).astype(np.float64)
    return _ungrouped(blocks * qw.scales[..., None], qw.shape[1])


@dataclass
class QuantPlan:
    """Per-module bitwidth assignment covering a checkpoint's quantizable weights."""

    specs: dict = field(default_factory=dict)  # path -> GroupQuantSpec
    provenance: str = PROVENANCE_MANUAL
    ratios: tuple | None = None  # recorded split ratios for hawq_split plans

    def paths(self) -> list:
        return sorted(self.specs)

    def save(self, path, config_hash: str | None = None) -> None:
        sizes = {s.group_size for s in self.specs.values()}
        if len(sizes) > 1:
            raise ParameterError("plan file format requires a single group_size")
        doc = {
            "version": 1,
            "group_size": sizes.pop() if sizes else DEFAULT_GROUP_SIZE,
            "provenance": self.provenance,
            "modules": [{"path": p, "bits": self.specs[p].bits} for p in self.paths()],
        }
        if self.ratios is not None:
            doc["ratios"] = list(self.ratios)
        if config_hash is not None:
            doc["config_hash"] = config_hash
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "QuantPlan":
        doc = json.loads(Path(path).read_text())
        gs = int(doc["group_size"])
        specs = {m["path"]: GroupQuantSpec(int(m["bits"]), gs) for m in doc["modules"]}
        ratios = tuple(doc["ratios"]) if "ratios" in doc else None
        return cls(specs, doc.get("provenance", PROVENANCE_MANUAL), ratios)


def uniform_plan(ckpt: ModelCheckpoint, bits: int,
                 group_size: int = DEFAULT_GROUP_SIZE) -> QuantPlan:
    spec = GroupQuantSpec(bits, group_size)
    return QuantPlan({p: spec for p in ckpt.quantizable_paths()}, PROVENANCE_UNIFORM)


def check_coverage(ckpt: ModelCheckpoint, plan: QuantPlan) -> None:
    """Plan must cover every quantizable path; it may add the embedding paths."""
    required = set(ckpt.quantizable_paths())
    allowed = required | set(EMBEDDING_PATHS)
    have = set(plan.specs)
    missing = sorted(required - have)
    unknown = sorted(have - allowed)
    if missing or unknown:
        raise CoverageError(
            f"plan does not match checkpoint: missing={missing} unknown={unknown}",
            missing=missing, unknown=unknown)


def rtn_quantize_model(ckpt: ModelCheckpoint, plan: QuantPlan) -> ModelCheckpoint:
    """Round-to-nearest: replace each planned weight by dequantize(quantize(w))."""
    check_coverage(ckpt, plan)
    out = ckpt.copy()
    for path, spec in plan.specs.items():
        if spec.passthrough:
            continue
        qw = quantize_weight(out.params[path], spec)
        out.params[path] = dequantize(qw).astype(np.float32)
    out.meta = dict(out.meta)
    out.meta["quantization"] = {"method": "rtn", "plan": {p: plan.specs[p].bits for p in plan.paths()}}
    return out


def memory_footprint(plan: QuantPlan, ckpt: ModelCheckpoint):
    """(raw_avg_bits, effective_avg_bits, total_bytes_effective) over plan modules.

    Effective bits add the per-group scale overhead 16/group_size for
    quantized modules; passthrough modules carry no scale storage.
    """
    check_coverage(ckpt, plan)
    total_n = 0
    raw_sum = 0.0
    eff_sum = 0.0
    for path, spec in plan.specs.items():
        n = ckpt.n_params(path)
        eff = spec.bits if spec.passthrough else spec.bits + SCALE_BITS / spec.group_size
        total_n += n
        raw_sum += n * spec.bits
        eff_sum += n * eff
    return raw_sum / total_n, eff_sum / total_n, eff_sum / 8.0
