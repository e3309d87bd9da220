"""Workspace-as-database orchestration for the CLI.

The pipeline config is one JSON file validated as a whole before any stage
runs. Every artifact embeds the hash of the config scope that produced it
(training hash for checkpoints, sensitivity hash for reports, ...), and
stages refuse to consume artifacts whose recorded hash no longer matches
the active config unless forced. The eval grid is content-addressed per
cell, which is what makes ``reproduce`` idempotent.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import fcntl
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .allocator import BIT_LEVELS, assign_precision, bit_levels, budget_plan, split_ratios
from .errors import ContractError, ParameterError
from .evaluation import (UNIT_AR_TOKEN, UNIT_DIFFUSION_STEP, EvalResult, GridConfig,
                         LatencyConfig, TaskSuite, evaluate_tasks, measure_latency, plan_grid)
from .files import write_atomic
from .gptq import GptqConfig, gptq_quantize_model
from .model import MODE_AR, MODE_DIFFUSION, ModelCheckpoint
from .quant import QuantPlan, memory_footprint, rtn_quantize_model, uniform_plan
from .reporting import emit
from .sensitivity import (SensitivityConfig, compute_sensitivities, load_report,
                          rank_sensitivities, save_report)
from .trainer import TrainConfig, calibration_batches, train

ENV_WORKSPACE = "PTQLAB_WORKSPACE"
MODELS = (MODE_AR, MODE_DIFFUSION)
LATENCY_UNIT = {MODE_AR: UNIT_AR_TOKEN, MODE_DIFFUSION: UNIT_DIFFUSION_STEP}

# Config sections built from a dataclass, with the fields the file may not
# set because the pipeline sets them: seeds come from the top-level seed, and
# the training mode, log path and latency unit from the model at hand.
SECTIONS = {
    "train": (TrainConfig, ("seed", "mode", "log_path")),
    "suite": (TaskSuite, ()),
    "latency": (LatencyConfig, ("unit_of_work",)),
    "sensitivity": (SensitivityConfig, ("seed",)),
    "grid": (GridConfig, ()),
    "gptq": (GptqConfig, ()),
}
ASSIGN_KEYS = ("ratios", "levels")


@dataclass
class PipelineConfig:
    workspace: str
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    suite: TaskSuite = field(default_factory=TaskSuite)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    sensitivity: SensitivityConfig = field(default_factory=SensitivityConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    gptq: GptqConfig = field(default_factory=GptqConfig)
    assign_ratios: tuple = (0.5, 0.5, 0.0)
    assign_levels: tuple = (16, 8, 4)

    def __post_init__(self):
        # the run seed is the one owner of the section seeds
        self.train = dataclasses.replace(self.train, seed=self.seed)
        self.sensitivity = dataclasses.replace(self.sensitivity, seed=self.seed)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (IsADirectoryError, PermissionError) as exc:
            raise ParameterError(f"config {path} cannot be read: {exc}") from exc
        except ValueError as exc:
            raise ParameterError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise ParameterError("config must be a JSON object")
        unknown = set(doc) - {"workspace", "seed", "assign", *SECTIONS}
        if unknown:
            raise ParameterError(f"unknown config sections: {sorted(unknown)}")
        if "workspace" not in doc:
            raise ParameterError("config needs a 'workspace' entry")
        try:  # a value of the wrong type fails inside the dataclasses
            seed = int(doc.get("seed", 0))
            sections = {}
            for name, (section_cls, fixed) in SECTIONS.items():
                keys = [f.name for f in dataclasses.fields(section_cls) if f.name not in fixed]
                sections[name] = section_cls(**_section(doc, name, keys))
            assign = {f"assign_{k}": v for k, v in _section(doc, "assign", ASSIGN_KEYS).items()}
            cfg = cls(workspace=doc["workspace"], seed=seed, **sections, **assign)
            split_ratios(cfg.assign_ratios)  # validate eagerly
            bit_levels(cfg.assign_levels)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed config value: {exc}") from exc
        return cfg

    # -- scope hashes -------------------------------------------------------

    def train_hash(self, mode: str) -> str:
        cfg = dataclasses.replace(self.train, mode=mode, log_path=None)
        return _hash({"train": dataclasses.asdict(cfg), "seed": self.seed})

    def sensitivity_hash(self, mode: str) -> str:
        return _hash({"parent": self.train_hash(mode),
                      "sens": dataclasses.asdict(self.sensitivity)})

    def plan_hash(self, mode: str, ratios, levels) -> str:
        return _hash({"parent": self.sensitivity_hash(mode),
                      "ratios": list(ratios), "levels": list(levels),
                      "rank_mode": self.grid.rank_mode, "group_size": self.gptq.group_size})


def _hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _latency(cfg: PipelineConfig, mode: str) -> LatencyConfig:
    """The latency protocol with ``mode``'s unit of work."""
    return dataclasses.replace(cfg.latency, unit_of_work=LATENCY_UNIT[mode])


def cell_hasher(cfg: PipelineConfig, mode: str, fingerprint: str):
    """Cache key of each :func:`plan_grid` cell (model, method, bits_or_plan) of ``mode``.

    It hashes the cell and the run seed, the fingerprint of the cell's
    checkpoint, and every config section but ``train``, which the
    fingerprint already covers; the latency section carries the cell's unit.
    Each key is :func:`_hash` of that payload. The payload's sorted JSON
    starts with "cell", which sorts before every other key, so the rest is
    serialized once per model and each cell only prepends its own entry.
    """
    latency = _latency(cfg, mode)
    sections = {name: dataclasses.asdict(latency if name == "latency" else getattr(cfg, name))
                for name in SECTIONS if name != "train"}
    rest = json.dumps({"ckpt": fingerprint, **sections}, sort_keys=True)[1:]

    def key(cell) -> str:
        text = f'{{"cell": {json.dumps([*cell, cfg.seed])}, {rest}'
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    return key


def _section(doc: dict, name: str, keys) -> dict:
    """A config section's entries, lists as tuples; unknown keys are an error."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ParameterError(f"config section {name!r} must be an object")
    unknown = set(section) - set(keys)
    if unknown:
        raise ParameterError(f"unknown keys in config section {name!r}: {sorted(unknown)}; "
                             f"known: {sorted(keys)}")
    return {k: _frozen(v) for k, v in section.items()}


def _frozen(value):
    return tuple(_frozen(v) for v in value) if isinstance(value, list) else value


class Workspace:
    def __init__(self, cfg: PipelineConfig):
        root = os.environ.get(ENV_WORKSPACE) or cfg.workspace
        self.root = Path(root)
        self.cfg = cfg

    def path(self, *parts) -> Path:
        p = self.root.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def checkpoint_path(self, mode: str) -> Path:
        return self.path("checkpoints", f"{mode}.ckpt")

    def require_checkpoint(self, mode: str, force: bool = False) -> ModelCheckpoint:
        path = self.checkpoint_path(mode)
        if not path.exists():
            raise ContractError(f"missing checkpoint {path}; run `ptqlab train` first")
        ckpt = ModelCheckpoint.load(path)
        want = self.cfg.train_hash(mode)
        got = ckpt.meta.get("pipeline_train_hash")
        if got != want and not force:
            raise ContractError(
                f"checkpoint {path} was produced by train hash {got}, current config "
                f"gives {want}; re-run `ptqlab train` or pass --force")
        return ckpt


# ---------------------------------------------------------------------------
# Stages


def stage_train(ws: Workspace, force: bool = False) -> dict:
    """Train the AR/diffusion pair (skipped when hashes already match)."""
    out = {}
    for mode in MODELS:
        path = ws.checkpoint_path(mode)
        want = ws.cfg.train_hash(mode)
        if path.exists() and not force:
            try:
                existing = ws.require_checkpoint(mode)
                out[mode] = {"checkpoint": str(path), "reused": True,
                             "train_hash": want,
                             "heldout_loss_final": existing.meta["heldout_loss_final"]}
                continue
            except ContractError:
                pass  # stale hash: retrain
        cfg = dataclasses.replace(ws.cfg.train, mode=mode,
                                  log_path=str(ws.path("logs", f"train_{mode}.csv")))
        ckpt = train(cfg)
        ckpt.meta["pipeline_train_hash"] = want
        ckpt.save(path)
        out[mode] = {"checkpoint": str(path), "reused": False, "train_hash": want,
                     "heldout_loss_final": ckpt.meta["heldout_loss_final"]}
    return out


def _calibration(ckpt: ModelCheckpoint, n_batches: int) -> list:
    return calibration_batches(TrainConfig(**ckpt.meta["train_config"]), n_batches)


def stage_sensitivity(ws: Workspace, mode: str, force: bool = False,
                      ckpt: ModelCheckpoint | None = None) -> dict:
    """Score every module of ``mode``'s checkpoint (``ckpt`` when already loaded)."""
    if ckpt is None:
        ckpt = ws.require_checkpoint(mode, force)
    cfg = ws.cfg
    records = compute_sensitivities(ckpt, _calibration(ckpt, cfg.sensitivity.n_batches),
                                    cfg.sensitivity)
    json_path = ws.path("sensitivity", f"{mode}.json")
    csv_path = ws.path("sensitivity", f"{mode}.csv")
    config_hash = cfg.sensitivity_hash(mode)
    save_report(records, cfg.sensitivity, json_path, csv_path, config_hash)
    return {"report": str(json_path), "csv": str(csv_path),
            "n_records": len(records), "config_hash": config_hash}


def stage_assign(ws: Workspace, mode: str, ratios=None, levels=None,
                 budget: float | None = None, force: bool = False) -> dict:
    if budget is not None and ratios is not None:
        raise ParameterError("--budget chooses the ratios; pass --budget or --ratios, not both")
    cfg = ws.cfg
    levels = bit_levels(levels or cfg.assign_levels)
    if budget is not None and levels != BIT_LEVELS:  # the waterfill raises 4 -> 8 -> 16 bits
        raise ParameterError(f"--budget assigns the levels {BIT_LEVELS}, not {levels}")
    split = split_ratios(ratios or cfg.assign_ratios)
    json_path = ws.path("sensitivity", f"{mode}.json")
    if not json_path.exists():
        raise ContractError(f"missing sensitivity report {json_path}; "
                            f"run `ptqlab sensitivity --model {mode}` first")
    records, got = load_report(json_path)
    want = cfg.sensitivity_hash(mode)
    if got != want and not force:
        raise ContractError(f"sensitivity report hash {got} does not match current config "
                            f"{want}; re-run `ptqlab sensitivity` or pass --force")
    ranked = rank_sensitivities(records, cfg.grid.rank_mode)
    if budget is not None:
        ckpt = ws.require_checkpoint(mode, force)
        sized = [(r.path, ckpt.n_params(r.path)) for r in ranked]
        plan, achieved = budget_plan(sized, budget, cfg.gptq.group_size)
    else:
        plan = assign_precision(ranked, split, cfg.gptq.group_size, levels)
        achieved = None
    config_hash = cfg.plan_hash(mode, plan.ratios, levels)
    plan_path = ws.path("plans", f"{mode}_{config_hash}.json")
    plan.save(plan_path, config_hash)
    out = {"plan": str(plan_path), "ratios": list(plan.ratios), "config_hash": config_hash}
    if achieved is not None:
        out["achieved_avg_bits"] = achieved
    return out


def quantize(cfg: PipelineConfig, ckpt: ModelCheckpoint, method: str, plan: QuantPlan,
             batches=None) -> tuple:
    """(quantized checkpoint, GPTQ per-layer rows) of ``plan``; writes nothing.

    Method "gptq" runs GPTQ on its calibration ``batches`` (drawn here if
    not given) with ``cfg.gptq``; any other method rounds to nearest.
    """
    if method != "gptq":
        return rtn_quantize_model(ckpt, plan), []
    if batches is None:
        batches = _calibration(ckpt, cfg.grid.n_calibration_batches)
    return gptq_quantize_model(ckpt, plan, batches, cfg.gptq)


def stage_quantize(ws: Workspace, mode: str, method: str, bits: int | None = None,
                   plan_path=None, force: bool = False) -> dict:
    if (bits is None) == (plan_path is None):
        raise ParameterError("quantize takes exactly one of --bits and --plan")
    ckpt = ws.require_checkpoint(mode, force)
    if plan_path is None:
        plan, label = uniform_plan(ckpt, bits, ws.cfg.gptq.group_size), f"{bits}bit"
    else:
        plan, label = QuantPlan.load(plan_path), Path(plan_path).stem
    quantized, report_rows = quantize(ws.cfg, ckpt, method, plan)
    out_path = ws.path("quantized", f"{mode}_{method}_{label}.ckpt")
    quantized.save(out_path)
    plan_sidecar = ws.path("quantized", f"{mode}_{method}_{label}.plan.json")
    plan.save(plan_sidecar)
    result = {"checkpoint": str(out_path), "plan": str(plan_sidecar)}
    if report_rows:
        report_path = ws.path("quantized", f"{mode}_{method}_{label}.layers.csv")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(report_rows[0]))
        writer.writeheader()
        writer.writerows(report_rows)
        write_atomic(report_path, buf.getvalue())
        result["layer_report"] = str(report_path)
    return result


def stage_bench(ws: Workspace, mode: str, force: bool = False) -> dict:
    ckpt = ws.require_checkpoint(mode, force)
    cfg = _latency(ws.cfg, mode)
    with _bench_lock(ws):
        res = measure_latency(ckpt, cfg)
    return {"mode": mode, "unit_of_work": cfg.unit_of_work, "mean_ms": res.mean_ms,
            "std_ms": res.std_ms, "warmup_runs": res.warmup_runs,
            "timed_runs": res.timed_runs, "timer_warning": res.timer_warning}


@contextlib.contextmanager
def _bench_lock(ws: Workspace, timeout_s: float = 600.0):
    """Hold an exclusive ``flock`` on ``bench.lock`` so that only one latency
    benchmark runs in a workspace at a time.

    The kernel drops the lock when its holder exits, however it exits, so a
    lock never outlives its process. The file is never removed: after an
    unlink, a third process could lock a new file while this one still holds
    the old.
    """
    path = ws.path("bench.lock")
    fd = os.open(path, os.O_CREAT | os.O_RDWR)
    try:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if time.monotonic() > deadline:
                    raise ContractError(f"benchmark lock {path} is still held by another "
                                        f"run after {timeout_s} s") from None
                time.sleep(0.05)
        yield
    finally:
        os.close(fd)  # releases the lock


def stage_eval(ws: Workspace, force: bool = False) -> dict:
    """One EvalResult per :func:`plan_grid` cell, each cached under a hash of
    everything that decides it; failed cells are recorded, never cached.

    Each cell is a plan, built by the CLI's steps and applied by one
    :func:`quantize` call: the 16-bit plan for the baseline, the grid width
    for RTN and GPTQ, and for HAWQ (rounded to nearest) the plan of
    :func:`stage_sensitivity` then :func:`stage_assign`.
    Calibration batches and sensitivities are computed only when a cell
    needing them misses the cache, so a finished grid re-runs with no model
    forward.
    """
    cfg = ws.cfg
    ckpts = {mode: ws.require_checkpoint(mode, force) for mode in MODELS}
    # the checkpoint file holds ckpt.to_bytes(), so its sha256 is the same
    # fingerprint without serializing the model again
    keys = {mode: cell_hasher(cfg, mode, hashlib.sha256(
                ws.checkpoint_path(mode).read_bytes()).hexdigest()[:16])
            for mode in MODELS}
    batches, scored = {}, set()  # per mode: GPTQ calibration, sensitivity report written

    def build(mode, method, label):
        ckpt = ckpts[mode]
        if method == "hawq":
            if mode not in scored:
                stage_sensitivity(ws, mode, force, ckpt)
                scored.add(mode)
            hi, lo = (int(b) for b in label.removeprefix("hawq-").split("/"))
            split = (cfg.grid.hawq_ratio, 1.0 - cfg.grid.hawq_ratio, 0.0)
            plan = QuantPlan.load(stage_assign(ws, mode, split, (hi, lo, lo), force=force)["plan"])
        else:  # the baseline is the 16-bit plan
            plan = uniform_plan(ckpt, int(label.removesuffix("bit")), cfg.gptq.group_size)
        if method == "gptq" and mode not in batches:
            batches[mode] = _calibration(ckpt, cfg.grid.n_calibration_batches)
        quantized, _ = quantize(cfg, ckpt, method, plan, batches.get(mode))
        raw_bits, eff_bits, _ = memory_footprint(plan, ckpt)
        return quantized, raw_bits, eff_bits

    results = []
    with _bench_lock(ws):
        for name, method, label in plan_grid(cfg.grid):
            mode = name.removeprefix("toy-")
            config_hash = keys[mode]((name, method, label))
            result = _cache_load(ws, config_hash)
            if result is None:
                try:
                    quantized, raw_bits, eff_bits = build(mode, method, label)
                    scores = evaluate_tasks(quantized, cfg.suite)
                    lat = measure_latency(quantized, _latency(cfg, mode))
                    result = EvalResult(name, mode, method, label, scores, lat.mean_ms,
                                        lat.std_ms, raw_bits, eff_bits, cfg.seed, config_hash,
                                        timer_warning=lat.timer_warning)
                except Exception as exc:  # record the failed row, keep the grid going
                    nan = float("nan")
                    result = EvalResult(name, mode, method, label, {}, nan, nan, nan, nan,
                                        cfg.seed, config_hash, status="failed",
                                        error=f"{type(exc).__name__}: {exc}\n"
                                              f"{traceback.format_exc(limit=3)}")
                else:
                    _cache_store(ws, config_hash, result)
            results.append(result)
    failed = [r for r in results if r.status != "ok"]
    return {"results": results, "n_cells": len(results), "n_failed": len(failed)}


def _cache_load(ws: Workspace, config_hash: str) -> EvalResult | None:
    """The cached cell, or None on a miss; an unreadable entry is a miss."""
    try:
        return EvalResult(**json.loads((ws.root / "cache" / f"{config_hash}.json").read_text()))
    except (FileNotFoundError, ValueError, TypeError):
        return None


def _cache_store(ws: Workspace, config_hash: str, result: EvalResult) -> None:
    write_atomic(ws.path("cache", f"{config_hash}.json"),
                 json.dumps(result.to_dict(), sort_keys=True))


def stage_report(ws: Workspace, results=None) -> dict:
    if results is None:
        results = stage_eval(ws)["results"]
    written = emit(results, ws.path("report"))
    return {name: str(path) for name, path in written.items()}


def reproduce(ws: Workspace, force: bool = False) -> dict:
    """train -> grid -> report, idempotent through the eval cache."""
    trained = stage_train(ws, force)
    evaled = stage_eval(ws, force)
    report = stage_report(ws, evaled["results"])
    return {"train": trained,
            "eval": {"n_cells": evaled["n_cells"], "n_failed": evaled["n_failed"]},
            "report": report}
