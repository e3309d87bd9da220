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

from .errors import ContractError, CoverageError, NumericError, ParameterError, require_count
from .files import write_atomic
from .model.checkpoint import ModelCheckpoint

SUPPORTED_BITS = (2, 3, 4, 8, 16)
DEFAULT_GROUP_SIZE = 128
SCALE_BITS = 16  # storage cost of one per-group scale


@dataclass(frozen=True)
class GroupQuantSpec:
    bits: int
    group_size: int = DEFAULT_GROUP_SIZE

    def __post_init__(self):
        if type(self.bits) is not int or self.bits not in SUPPORTED_BITS:
            raise ParameterError(f"bits must be an integer in {SUPPORTED_BITS}, got {self.bits!r}")
        require_count("group_size", self.group_size)

    @property
    def passthrough(self) -> bool:
        return self.bits == 16

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1


@dataclass
class QuantizedWeight:
    spec: GroupQuantSpec
    scales: np.ndarray  # (d_out, n_groups) float64
    codes: np.ndarray   # (d_out, d_in) int16


def round_half_away_from_zero(x: np.ndarray) -> np.ndarray:
    """trunc(x + copysign(0.5, x)), which is sign(x) * floor(|x| + 0.5) for finite x."""
    return np.trunc(x + np.copysign(0.5, x))


def grid_codes(values: np.ndarray, scales: np.ndarray, qmax: int) -> np.ndarray:
    """int16 codes of ``values`` on the grid of ``scales``, clipped to ±qmax (RTN's and GPTQ's)."""
    return np.clip(round_half_away_from_zero(values / scales), -qmax, qmax).astype(np.int16)


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
    """Quantize a 2-D weight group-by-group along the input dimension (2-8 bits)."""
    weight = np.asarray(weight)
    if weight.ndim != 2:
        raise ParameterError(f"expected a 2-D weight, got shape {weight.shape}")
    if spec.passthrough:
        raise ParameterError("16 bits is passthrough: the weight is kept, not quantized")
    w = weight.astype(np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericError("non-finite values in weight")
    blocks = _grouped(w, spec.group_size)  # zero padding leaves every peak unchanged
    scales = group_scales(blocks, spec.qmax)
    codes = grid_codes(blocks, scales[..., None], spec.qmax)
    return QuantizedWeight(spec, scales, _ungrouped(codes, w.shape[1]))


def dequantize(qw: QuantizedWeight) -> np.ndarray:
    """code * scale per element."""
    blocks = _grouped(qw.codes, qw.spec.group_size).astype(np.float64)
    return _ungrouped(blocks * qw.scales[..., None], qw.codes.shape[1])


@dataclass
class QuantPlan:
    """Bitwidth per module path of a checkpoint's quantizable weights, one group size for all."""

    bits: dict = field(default_factory=dict)  # path -> bits
    group_size: int = DEFAULT_GROUP_SIZE

    def __post_init__(self):
        for path in self.bits:
            self.spec(path)  # validates the width and the group size

    def paths(self) -> list:
        return sorted(self.bits)

    def spec(self, path: str) -> GroupQuantSpec:
        return GroupQuantSpec(self.bits[path], self.group_size)

    def save(self, path) -> None:
        doc = {"group_size": self.group_size,
               "modules": [{"path": p, "bits": self.bits[p]} for p in self.paths()]}
        write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "QuantPlan":
        try:
            doc = json.loads(Path(path).read_text())
            bits = {}
            for m in doc["modules"]:
                if m["path"] in bits:
                    raise ParameterError(f"module {m['path']} is listed twice")
                bits[m["path"]] = m["bits"]
            return cls(bits, doc["group_size"])
        except (ValueError, KeyError, TypeError, ParameterError) as exc:
            raise ContractError(f"plan {path} is malformed: {type(exc).__name__}: {exc}") from exc


def uniform_plan(ckpt: ModelCheckpoint, bits: int,
                 group_size: int = DEFAULT_GROUP_SIZE) -> QuantPlan:
    return QuantPlan(dict.fromkeys(ckpt.quantizable_paths(), bits), group_size)


def check_coverage(ckpt: ModelCheckpoint, plan: QuantPlan) -> None:
    """The plan names exactly the checkpoint's quantizable paths."""
    required = set(ckpt.quantizable_paths())
    have = set(plan.bits)
    missing = sorted(required - have)
    unknown = sorted(have - required)
    if missing or unknown:
        raise CoverageError(
            f"plan does not match checkpoint: missing={missing} unknown={unknown}")


def quantized_copy(ckpt: ModelCheckpoint, plan: QuantPlan, method: str) -> ModelCheckpoint:
    """A copy of ``ckpt`` for ``method`` to quantize by ``plan``; its meta records both."""
    check_coverage(ckpt, plan)
    out = ckpt.copy()
    out.meta["quantization"] = {"method": method, "plan": dict(plan.bits),
                                "group_size": plan.group_size}
    return out


def rtn_quantize_model(ckpt: ModelCheckpoint, plan: QuantPlan) -> ModelCheckpoint:
    """Round-to-nearest: replace each planned weight by dequantize(quantize(w))."""
    out = quantized_copy(ckpt, plan, "rtn")
    for path in plan.bits:
        spec = plan.spec(path)
        if not spec.passthrough:
            qw = quantize_weight(out.params[path], spec)
            out.params[path] = dequantize(qw).astype(np.float32)
    return out


def memory_footprint(plan: QuantPlan, ckpt: ModelCheckpoint):
    """(raw_avg_bits, effective_avg_bits) over plan modules.

    Effective bits add the per-group scale overhead 16/group_size for
    quantized modules; passthrough modules carry no scale storage.
    """
    check_coverage(ckpt, plan)
    total_n = 0
    raw_sum = 0.0
    eff_sum = 0.0
    for path in plan.bits:
        spec = plan.spec(path)
        n = ckpt.n_params(path)
        eff = spec.bits if spec.passthrough else spec.bits + SCALE_BITS / spec.group_size
        total_n += n
        raw_sum += n * spec.bits
        eff_sum += n * eff
    return raw_sum / total_n, eff_sum / total_n
