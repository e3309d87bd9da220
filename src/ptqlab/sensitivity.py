"""Curvature-based sensitivity scoring via sparse finite-difference HVPs.

For each scored module the top Hessian eigenvalue is estimated by power
iteration where H v is approximated with a forward difference of gradients,
(grad(W + eps v) - grad(W)) / eps. Directions are sparse: a fraction
``rho`` of coordinates is drawn once, and every iterate is projected back
onto that support before renormalizing, so the estimate targets the Hessian
restricted to the sampled support and the cost stays O(rho * n). All of
this math runs in float64 on a private copy of the parameters; the source
checkpoint is never mutated.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError, ParameterError
from .model import ModelCheckpoint, loss_and_grads
from .numerics import make_rng, sample_sparse_direction

CONVERGENCE_TOL = 1e-2

RANK_RAW = "raw"
RANK_NORMALIZED = "normalized"


@dataclass(frozen=True)
class SensitivityConfig:
    rho: float = 0.1
    n_power_iters: int = 5
    eps_scale: float = 1e-3  # eps = eps_scale * (1 + max|W|)
    n_batches: int = 8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise ParameterError(f"rho must be in (0, 1], got {self.rho}")
        if self.n_power_iters < 1:
            raise ParameterError("n_power_iters must be >= 1")
        if self.eps_scale <= 0:
            raise ParameterError("eps_scale must be > 0")


@dataclass
class SensitivityRecord:
    path: str
    lam: float  # top-eigenvalue estimate, >= 0
    n_params: int
    iters_used: int
    converged: bool

    @property
    def sensitivity_raw(self) -> float:
        return self.lam

    @property
    def sensitivity_normalized(self) -> float:
        return self.lam / self.n_params

    def to_dict(self) -> dict:
        return {"path": self.path, "lambda": self.lam, "n_params": self.n_params,
                "sensitivity_raw": self.sensitivity_raw,
                "sensitivity_normalized": self.sensitivity_normalized,
                "iters_used": self.iters_used, "converged": self.converged}

    @classmethod
    def from_dict(cls, d: dict) -> "SensitivityRecord":
        return cls(d["path"], float(d["lambda"]), int(d["n_params"]),
                   int(d["iters_used"]), bool(d["converged"]))


def finite_diff_hvp(grad_fn, v: np.ndarray, eps: float, base_grad: np.ndarray | None = None) -> np.ndarray:
    """(grad(w + eps v) - grad(w)) / eps over a flat parameter vector."""
    if base_grad is None:
        base_grad = grad_fn(None)
    g_plus = grad_fn(eps * v)
    hv = (g_plus - base_grad) / eps
    if not np.all(np.isfinite(hv)):
        raise NumericError(f"non-finite HVP (eps={eps})")
    return hv


def power_iteration(grad_fn, n_params: int, rng, rho: float, n_iters: int, eps: float):
    """(lambda, iters_used, converged): top eigenvalue on the sampled support."""
    base = grad_fn(None)
    v = sample_sparse_direction(rng, n_params, rho)
    support = v != 0
    lam_prev = None
    lam = 0.0
    converged = False
    iters = 0
    for _ in range(n_iters):
        iters += 1
        hv = finite_diff_hvp(grad_fn, v, eps, base_grad=base)
        if rho < 1.0:
            hv = np.where(support, hv, 0.0)
        lam = float(np.linalg.norm(hv))
        if lam == 0.0:
            converged = True  # flat direction
            break
        v = hv / lam
        if lam_prev is not None:
            converged = abs(lam - lam_prev) / lam < CONVERGENCE_TOL
        lam_prev = lam
    return lam, iters, converged


class ModuleGradientOracle:
    """Averaged gradient of the loss w.r.t. one module's weight, in float64.

    Works on a private float64 copy of the parameters; a perturbation is
    applied and restored around each gradient call, so the source
    checkpoint's bytes never change.
    """

    def __init__(self, ckpt: ModelCheckpoint, batches, path: str):
        if not batches:
            raise ParameterError("need at least one calibration batch")
        self.config = ckpt.config
        self.batches = list(batches)
        self.path = path
        self.params = {k: v.astype(np.float64) for k, v in ckpt.params.items()}
        self.n_params = int(self.params[path].size)

    def gradient(self, delta: np.ndarray | None = None) -> np.ndarray:
        weight = self.params[self.path]
        if delta is not None:
            self.params[self.path] = weight + delta.reshape(weight.shape)
        try:
            acc = np.zeros(self.n_params, dtype=np.float64)
            for batch in self.batches:
                _, grads = loss_and_grads(self.params, self.config, batch, dtype=np.float64)
                acc += grads[self.path].ravel()
        finally:
            self.params[self.path] = weight
        return acc / len(self.batches)

    def max_abs_weight(self) -> float:
        return float(np.max(np.abs(self.params[self.path])))


def default_eps(oracle: ModuleGradientOracle, eps_scale: float) -> float:
    return eps_scale * (1.0 + oracle.max_abs_weight())


def _module_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "little") ^ (seed * 0x9E3779B97F4A7C15)) % (2**63)


def power_iteration_sensitivity(ckpt: ModelCheckpoint, batches, path: str,
                                cfg: SensitivityConfig) -> SensitivityRecord:
    """Score one module on a fixed calibration sub-sample."""
    oracle = ModuleGradientOracle(ckpt, batches[:cfg.n_batches], path)
    eps = default_eps(oracle, cfg.eps_scale)
    rng = make_rng(_module_seed(cfg.seed, path))
    lam, iters, converged = power_iteration(
        oracle.gradient, oracle.n_params, rng, cfg.rho, cfg.n_power_iters, eps)
    return SensitivityRecord(path, lam, oracle.n_params, iters, converged)


def compute_sensitivities(ckpt: ModelCheckpoint, batches, cfg: SensitivityConfig) -> list:
    """One record per quantizable module, in forward order."""
    return [power_iteration_sensitivity(ckpt, batches, path, cfg)
            for path in ckpt.quantizable_paths()]


def rank_sensitivities(records, mode: str = RANK_RAW) -> list:
    """Descending by the chosen sensitivity; ties broken by path order."""
    if not records:
        raise ParameterError("no sensitivity records to rank")
    if mode == RANK_RAW:
        key = lambda r: (-r.sensitivity_raw, r.path)
    elif mode == RANK_NORMALIZED:
        key = lambda r: (-r.sensitivity_normalized, r.path)
    else:
        raise ParameterError(f"unknown ranking mode {mode!r}")
    return sorted(records, key=key)


def save_report(records, cfg: SensitivityConfig, json_path, csv_path=None,
                config_hash: str | None = None) -> None:
    doc = {"config": asdict(cfg), "records": [r.to_dict() for r in records]}
    if config_hash is not None:
        doc["config_hash"] = config_hash
    Path(json_path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "lambda", "n_params", "sensitivity_raw",
                            "sensitivity_normalized", "iters_used", "converged"])
            for r in records:
                writer.writerow([r.path, f"{r.lam:.6g}", r.n_params,
                                f"{r.sensitivity_raw:.6g}", f"{r.sensitivity_normalized:.6g}",
                                r.iters_used, int(r.converged)])


def load_report(json_path) -> tuple:
    """(records, the config_hash the report was written with, or None)."""
    doc = json.loads(Path(json_path).read_text())
    return [SensitivityRecord.from_dict(d) for d in doc["records"]], doc.get("config_hash")
