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

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (ContractError, NumericError, ParameterError, is_number, require_count,
                     require_positive)
from .files import write_atomic
from .model import ModelCheckpoint, forward_logits, loss_and_grads, prediction_targets
from .model.network import block_index
from .numerics import make_rng, one_blas_thread, sample_sparse_direction

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
        if not is_number(self.rho) or not 0.0 < self.rho <= 1.0:
            raise ParameterError(f"rho must be a number in (0, 1], got {self.rho!r}")
        require_count("n_power_iters", self.n_power_iters)
        require_count("n_batches", self.n_batches)
        require_positive("eps_scale", self.eps_scale)


@dataclass
class SensitivityRecord:
    path: str
    lam: float  # top-eigenvalue estimate, >= 0
    n_params: int
    iters_used: int
    converged: bool

    @property
    def sensitivity_normalized(self) -> float:
        return self.lam / self.n_params

    def to_dict(self) -> dict:
        return {"path": self.path, "lambda": self.lam, "n_params": self.n_params,
                "iters_used": self.iters_used, "converged": self.converged}

    @classmethod
    def from_dict(cls, d: dict) -> "SensitivityRecord":
        path, lam, converged = d["path"], d["lambda"], d["converged"]  # never coerced
        if type(path) is not str:
            raise ParameterError(f"path {path!r} must be a string")
        if not (is_number(lam) and 0 <= lam < math.inf) or type(converged) is not bool:
            raise ParameterError(f"lambda {lam!r} must be a finite number >= 0, "
                                 f"converged {converged!r} a bool")
        require_count("n_params", d["n_params"])
        require_count("iters_used", d["iters_used"])
        return cls(path, float(lam), d["n_params"], d["iters_used"], converged)


def finite_diff_hvp(grad_fn, v: np.ndarray, eps: float, base_grad: np.ndarray) -> np.ndarray:
    """(grad(w + eps v) - base_grad) / eps over a flat parameter vector; base_grad = grad(w)."""
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
        hv = np.where(support, finite_diff_hvp(grad_fn, v, eps, base), 0.0)
        lam = float(np.linalg.norm(hv))
        if lam == 0.0:
            converged = True  # flat direction
            break
        v = hv / lam
        if lam_prev is not None:
            converged = abs(lam - lam_prev) / lam < CONVERGENCE_TOL
        lam_prev = lam
    return lam, iters, converged


def float64_pass(ckpt: ModelCheckpoint, batches) -> tuple:
    """(float64 parameter copy, per-batch block inputs) shared by a model's oracles.

    One unperturbed forward per batch caches the input of every block, so
    a gradient call can resume at the block of its module.
    """
    if not batches:
        raise ParameterError("need at least one calibration batch")
    params = {k: v.astype(np.float64) for k, v in ckpt.params.items()}
    inputs = []
    for batch in batches:
        input_ids, _, _ = prediction_targets(ckpt.config, batch)
        inputs.append(forward_logits(params, ckpt.config, input_ids, np.float64)[1]["inputs"])
    return params, inputs


class ModuleGradientOracle:
    """Averaged gradient of the loss w.r.t. one module's weight, in float64.

    ``params`` and ``inputs`` come from :func:`float64_pass`. Each call
    resumes the forward at the module's block from its cached input and
    stops the backward at the module. A perturbation is applied to the
    float64 copy and restored around each call, so the source checkpoint's
    bytes never change.
    """

    def __init__(self, config, params: dict, batches, inputs, path: str):
        self.config = config
        self.params = params
        self.batches = list(batches)
        self.path = path
        self.block = block_index(path)
        self.inputs = [x[self.block] for x in inputs]
        self.n_params = int(params[path].size)

    def gradient(self, delta: np.ndarray | None = None) -> np.ndarray:
        weight = self.params[self.path]
        if delta is not None:
            self.params[self.path] = weight + delta.reshape(weight.shape)
        try:
            acc = np.zeros(self.n_params, dtype=np.float64)
            for batch, x in zip(self.batches, self.inputs):
                _, grads = loss_and_grads(self.params, self.config, batch, np.float64,
                                          start=self.block, x=x, stop=self.path)
                acc += grads[self.path].ravel()
        finally:
            self.params[self.path] = weight
        return acc / len(self.batches)


def _module_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "little") ^ (seed * 0x9E3779B97F4A7C15)) % (2**63)


def power_iteration_sensitivity(oracle: ModuleGradientOracle,
                                cfg: SensitivityConfig) -> SensitivityRecord:
    """Score the oracle's module."""
    eps = cfg.eps_scale * (1.0 + float(np.max(np.abs(oracle.params[oracle.path]))))
    rng = make_rng(_module_seed(cfg.seed, oracle.path))
    lam, iters, converged = power_iteration(
        oracle.gradient, oracle.n_params, rng, cfg.rho, cfg.n_power_iters, eps)
    return SensitivityRecord(oracle.path, lam, oracle.n_params, iters, converged)


@one_blas_thread()
def compute_sensitivities(ckpt: ModelCheckpoint, batches, cfg: SensitivityConfig) -> list:
    """One record per quantizable module, in forward order, scored on ``batches``."""
    params, inputs = float64_pass(ckpt, batches)
    return [power_iteration_sensitivity(
                ModuleGradientOracle(ckpt.config, params, batches, inputs, path), cfg)
            for path in ckpt.quantizable_paths()]


def rank_sensitivities(records, mode: str = RANK_RAW) -> list:
    """Descending by the chosen sensitivity; ties broken by path order."""
    if not records:
        raise ParameterError("no sensitivity records to rank")
    if mode == RANK_RAW:
        key = lambda r: (-r.lam, r.path)
    elif mode == RANK_NORMALIZED:
        key = lambda r: (-r.sensitivity_normalized, r.path)
    else:
        raise ParameterError(f"unknown ranking mode {mode!r}")
    return sorted(records, key=key)


def save_report(records, cfg: SensitivityConfig, json_path, config_hash: str) -> None:
    doc = {"config": asdict(cfg), "records": [r.to_dict() for r in records],
           "config_hash": config_hash}
    write_atomic(json_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_report(json_path) -> tuple:
    """(records, the config_hash the report was written with, or None)."""
    try:
        doc = json.loads(Path(json_path).read_text())
        records = [SensitivityRecord.from_dict(d) for d in doc["records"]]
        if len({r.path for r in records}) < len(records):  # it would count twice in a cut
            raise ParameterError("a module is listed twice")
        return records, doc.get("config_hash")
    except (ValueError, KeyError, TypeError, ParameterError) as exc:
        raise ContractError(f"sensitivity report {json_path} is malformed: "
                            f"{type(exc).__name__}: {exc}") from exc
