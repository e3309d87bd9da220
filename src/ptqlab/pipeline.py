"""Workspace-as-database orchestration for the CLI.

The pipeline config is one JSON file validated as a whole before any stage
runs. A checkpoint embeds the hash of its training config; a sensitivity
report or grid cell embeds the fingerprint of the verified checkpoint it was
computed from (the sha256 of its bytes, taken once per command) plus its own
config scope, and a plan is named by its widths and group size. Stages
refuse artifacts whose recorded hash no longer matches and name the stage
to re-run. The eval grid is content-addressed per cell, which is
what makes ``reproduce`` idempotent.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import fcntl
import functools
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .allocator import BIT_LEVELS, assign_precision, bit_levels, budget_plan, split_ratios
from .errors import ContractError, ParameterError, is_number, require_count
from .evaluation import (LATENCY_UNIT, EvalResult, GridConfig, LatencyConfig, TaskSuite,
                         evaluate_tasks, measure_latency, plan_grid)
from .files import write_atomic
from .gptq import GptqConfig, gptq_quantize_model
from .model import MODE_AR, MODE_DIFFUSION, ModelCheckpoint
from .quant import QuantPlan, memory_footprint, rtn_quantize_model, uniform_plan
from .reporting import emit
from .sensitivity import (SensitivityConfig, compute_sensitivities, load_report,
                          rank_sensitivities, save_report)
from .tasks import corpus_hash, load_corpus
from .trainer import TrainConfig, calibration_batches, train

MODELS = (MODE_AR, MODE_DIFFUSION)

# Config sections built from a dataclass, with the fields the file may not
# set. The pipeline sets the seeds (from the top-level seed) and the training
# mode, log path and latency unit (from the model at hand); the Adam
# constants and the suite seed are fixed.
SECTIONS = {
    "train": (TrainConfig, ("seed", "mode", "log_path", "beta1", "beta2", "adam_eps")),
    "suite": (TaskSuite, ("seed",)),
    "latency": (LatencyConfig, ("unit_of_work",)),
    "sensitivity": (SensitivityConfig, ("seed",)),
    "grid": (GridConfig, ()),
    "gptq": (GptqConfig, ()),
}


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

    def __post_init__(self):
        if not isinstance(self.workspace, str) or not self.workspace:
            raise ParameterError(f"workspace must be a non-empty string, got {self.workspace!r}")
        require_count("seed", self.seed, 0)
        if self.latency.seq_len > self.train.max_seq_len:
            raise ParameterError(f"latency.seq_len {self.latency.seq_len} is above "
                                 f"train.max_seq_len {self.train.max_seq_len}")
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
        unknown = set(doc) - {"workspace", "seed", *SECTIONS}
        if unknown:
            raise ParameterError(f"unknown config sections: {sorted(unknown)}")
        if "workspace" not in doc:
            raise ParameterError("config needs a 'workspace' entry")
        try:  # a value of the wrong type fails inside the dataclasses
            sections = {}
            for name, (section_cls, fixed) in SECTIONS.items():
                keys = [f.name for f in dataclasses.fields(section_cls) if f.name not in fixed]
                sections[name] = section_cls(**_section(doc, name, keys))
            return cls(workspace=doc["workspace"], seed=doc.get("seed", 0), **sections)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed config value: {exc}") from exc

    # -- scope hashes -------------------------------------------------------

    def train_hash(self, mode: str) -> str:
        # the train and sensitivity sections are flat: vars() is their asdict()
        train = {**vars(self.train), "mode": mode, "log_path": None}
        return _hash({"train": train, "seed": self.seed})

    def sensitivity_hash(self, fingerprint: str) -> str:
        return _hash({"parent": fingerprint, "sens": vars(self.sensitivity)})


def _hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _latency(cfg: PipelineConfig, mode: str) -> LatencyConfig:
    """The latency protocol with ``mode``'s unit of work."""
    return dataclasses.replace(cfg.latency, unit_of_work=LATENCY_UNIT[mode])


def cell_hasher(cfg: PipelineConfig, mode: str, fingerprint: str):
    """Cache key of each :func:`plan_grid` cell (model, method, bits_or_plan) of ``mode``.

    It hashes the cell and the run seed, the fingerprint of the cell's
    checkpoint (:attr:`ModelCheckpoint.fingerprint`), and every config
    section but ``train``, which the fingerprint already covers; the latency
    section carries the cell's unit.
    Each key is :func:`_hash` of that payload. The payload's sorted JSON
    starts with "cell", which sorts before every other key, so the rest is
    serialized once per model and each cell only prepends its own entry.
    """
    latency = _latency(cfg, mode)
    # the sections are flat: vars() is their asdict()
    sections = {name: vars(latency if name == "latency" else getattr(cfg, name))
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
        self.root = Path(cfg.workspace)
        self.cfg = cfg

    def path(self, *parts) -> Path:
        return self.root.joinpath(*parts)

    def checkpoint_path(self, mode: str) -> Path:
        return self.path("checkpoints", f"{mode}.ckpt")

    @functools.cached_property
    def corpus_digest(self) -> str:
        """sha256 of the configured corpus, read once per workspace object."""
        return corpus_hash(load_corpus(self.cfg.train.corpus_path))

    def require_checkpoint(self, mode: str) -> ModelCheckpoint:
        """``mode``'s checkpoint, if the current config and corpus bytes trained it."""
        path = self.checkpoint_path(mode)
        if not path.exists():
            raise ContractError(f"missing checkpoint {path}; run `ptqlab train` first")
        ckpt = ModelCheckpoint.load(path)
        want = self.cfg.train_hash(mode)
        got = ckpt.meta.get("pipeline_train_hash")
        if got != want:
            raise ContractError(
                f"checkpoint {path} was produced by train hash {got}, current config "
                f"gives {want}; re-run `ptqlab train`")
        if ckpt.meta.get("corpus_hash") != self.corpus_digest:
            raise ContractError(f"checkpoint {path} was trained on a corpus other than the "
                                f"configured one; re-run `ptqlab train`")
        return ckpt


# ---------------------------------------------------------------------------
# Stages


def stage_train(ws: Workspace) -> dict:
    """Train each model whose checkpoint is missing, corrupt or stale."""
    out = {}
    for mode in MODELS:
        path = ws.checkpoint_path(mode)
        want = ws.cfg.train_hash(mode)
        try:
            ckpt, reused = ws.require_checkpoint(mode), True
        except ContractError:
            cfg = dataclasses.replace(ws.cfg.train, mode=mode,
                                      log_path=str(ws.path("logs", f"train_{mode}.csv")))
            ckpt, reused = train(cfg), False
            ckpt.meta["pipeline_train_hash"] = want
            ckpt.save(path)
        out[mode] = {"checkpoint": str(path), "reused": reused, "train_hash": want,
                     "heldout_loss_final": ckpt.meta["heldout_loss_final"]}
    return out


def _calibration(ckpt: ModelCheckpoint, n_batches: int) -> list:
    return calibration_batches(TrainConfig(**ckpt.meta["train_config"]), n_batches)


# The stages below take a checkpoint that their caller verified with
# Workspace.require_checkpoint, and read its mode from its config and the
# parent of their artifacts from its fingerprint.


def stage_sensitivity(ws: Workspace, ckpt: ModelCheckpoint) -> dict:
    """Score every module of ``ckpt``."""
    cfg, mode = ws.cfg, ckpt.config.mode
    records = compute_sensitivities(ckpt, _calibration(ckpt, cfg.sensitivity.n_batches),
                                    cfg.sensitivity)
    json_path = ws.path("sensitivity", f"{mode}.json")
    config_hash = cfg.sensitivity_hash(ckpt.fingerprint)
    save_report(records, cfg.sensitivity, json_path, config_hash)
    return {"report": str(json_path), "n_records": len(records), "config_hash": config_hash}


def stage_assign(ws: Workspace, ckpt: ModelCheckpoint, ratios=None, levels=None,
                 budget: float | None = None) -> dict:
    """Write ``ckpt``'s plan as ``plans/<mode>_<hash of its widths and group size>.json``;
    without ``ratios`` it splits at ``grid.hawq_ratio``, as the grid's HAWQ cells do."""
    if budget is not None and ratios is not None:
        raise ParameterError("--budget chooses the ratios; pass --budget or --ratios, not both")
    cfg, mode = ws.cfg, ckpt.config.mode
    levels = bit_levels(levels or BIT_LEVELS)
    split = split_ratios(ratios or (cfg.grid.hawq_ratio, 1.0 - cfg.grid.hawq_ratio, 0.0))
    json_path = ws.path("sensitivity", f"{mode}.json")
    if not json_path.exists():
        raise ContractError(f"missing sensitivity report {json_path}; "
                            f"run `ptqlab sensitivity --model {mode}` first")
    records, got = load_report(json_path)
    want = cfg.sensitivity_hash(ckpt.fingerprint)
    if got != want:
        raise ContractError(f"sensitivity report hash {got} does not match the checkpoint "
                            f"and config ({want}); re-run `ptqlab sensitivity --model {mode}`")
    ranked = rank_sensitivities(records, cfg.grid.rank_mode)
    if budget is not None:
        plan = budget_plan([(r.path, ckpt.n_params(r.path)) for r in ranked], budget,
                           cfg.gptq.group_size, levels)
    else:
        plan = assign_precision(ranked, split, cfg.gptq.group_size, levels)
    achieved, _ = memory_footprint(plan, ckpt)
    name = _hash({"bits": plan.bits, "group_size": plan.group_size})
    plan_path = ws.path("plans", f"{mode}_{name}.json")
    plan.save(plan_path)
    return {"plan": str(plan_path), "achieved_avg_bits": achieved}


def quantize(cfg: PipelineConfig, ckpt: ModelCheckpoint, method: str, plan: QuantPlan) -> tuple:
    """(quantized checkpoint, GPTQ per-layer rows) of ``plan``; writes nothing.

    Method "gptq" runs GPTQ with ``cfg.gptq`` on ``grid.n_calibration_batches``
    calibration batches drawn here; any other method rounds to nearest.
    """
    if method != "gptq":
        return rtn_quantize_model(ckpt, plan), []
    batches = _calibration(ckpt, cfg.grid.n_calibration_batches)
    return gptq_quantize_model(ckpt, plan, batches, cfg.gptq)


def stage_quantize(ws: Workspace, ckpt: ModelCheckpoint, method: str, bits: int | None = None,
                   plan_path=None) -> dict:
    if (bits is None) == (plan_path is None):
        raise ParameterError("quantize takes exactly one of --bits and --plan")
    mode = ckpt.config.mode
    if plan_path is None:
        plan, label = uniform_plan(ckpt, bits, ws.cfg.gptq.group_size), f"{bits}bit"
    else:
        plan, label = QuantPlan.load(plan_path), Path(plan_path).stem
    quantized, report_rows = quantize(ws.cfg, ckpt, method, plan)
    out_path = ws.path("quantized", f"{mode}_{method}_{label}.ckpt")
    quantized.save(out_path)  # its header records the plan
    result = {"checkpoint": str(out_path)}
    if report_rows:
        report_path = ws.path("quantized", f"{mode}_{method}_{label}.layers.csv")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(report_rows[0]))
        writer.writeheader()
        writer.writerows(report_rows)
        write_atomic(report_path, buf.getvalue())
        result["layer_report"] = str(report_path)
    return result


def stage_bench(ws: Workspace, ckpt: ModelCheckpoint) -> dict:
    mode = ckpt.config.mode
    cfg = _latency(ws.cfg, mode)
    with _bench_lock(ws):
        res = measure_latency(ckpt, cfg)
    return {"mode": mode, "unit_of_work": cfg.unit_of_work, "mean_ms": res.mean_ms,
            "std_ms": res.std_ms, "warmup_runs": cfg.warmup_runs, "timed_runs": cfg.timed_runs}


@contextlib.contextmanager
def _bench_lock(ws: Workspace, timeout_s: float = 600.0):
    """Hold an exclusive ``flock`` on ``bench.lock`` so that only one latency
    benchmark runs in a workspace at a time.

    The kernel drops the lock when its holder exits, however it exits, so a
    lock never outlives its process. The file is never removed: after an
    unlink, a third process could lock a new file while this one still holds
    the old.
    """
    ws.root.mkdir(parents=True, exist_ok=True)
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


def stage_eval(ws: Workspace) -> dict:
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
    ckpts = {mode: ws.require_checkpoint(mode) for mode in MODELS}
    keys = {mode: cell_hasher(cfg, mode, ckpts[mode].fingerprint) for mode in MODELS}
    scored = set()  # modes whose sensitivity report this grid wrote

    def build(mode, method, label):
        ckpt = ckpts[mode]
        if method == "hawq":
            if mode not in scored:
                stage_sensitivity(ws, ckpt)
                scored.add(mode)
            hi, lo = (int(b) for b in label.removeprefix("hawq-").split("/"))
            plan = QuantPlan.load(stage_assign(ws, ckpt, levels=(hi, lo, lo))["plan"])
        else:  # the baseline is the 16-bit plan
            plan = uniform_plan(ckpt, int(label.removesuffix("bit")), cfg.gptq.group_size)
        quantized, _ = quantize(cfg, ckpt, method, plan)
        raw_bits, eff_bits = memory_footprint(plan, ckpt)
        return quantized, raw_bits, eff_bits

    results = []
    with _bench_lock(ws):
        for name, method, label in plan_grid(cfg.grid):
            mode = name.removeprefix("toy-")
            config_hash = keys[mode]((name, method, label))
            result = _cache_load(ws, (name, mode, method, label, cfg.seed), config_hash)
            if result is None:
                try:
                    quantized, raw_bits, eff_bits = build(mode, method, label)
                    scores = evaluate_tasks(quantized, cfg.suite)
                    lat = measure_latency(quantized, _latency(cfg, mode))
                    result = EvalResult(name, mode, method, label, scores, lat.mean_ms,
                                        lat.std_ms, raw_bits, eff_bits, cfg.seed, config_hash)
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


def _cache_load(ws: Workspace, cell: tuple, config_hash: str) -> EvalResult | None:
    """The cached result of ``cell`` (model, mode, method, bits_or_plan, seed), or
    None on a miss. An entry that is unreadable, holds a value of the wrong type or
    one no ok cell has, or describes another cell (copied under another key, say)
    is a miss."""
    try:
        r = EvalResult(**json.loads(ws.path("cache", f"{config_hash}.json").read_text()))
    except (FileNotFoundError, ValueError, TypeError):
        return None
    ok = ((r.model, r.mode, r.method, r.bits_or_plan, r.seed, r.config_hash, r.status)
          == (*cell, config_hash, "ok") and type(r.seed) is int
          and isinstance(r.scores, dict) and set(r.scores) == set(ws.cfg.suite.tasks)
          and all(is_number(s) and 0 <= s <= 1 for s in r.scores.values())
          and all(is_number(v) and 0 <= v < math.inf  # NaN fails, as no ok cell has it
                  for v in (r.lat_mean_ms, r.lat_std_ms, r.raw_bits, r.eff_bits)))
    return r if ok else None


def _cache_store(ws: Workspace, config_hash: str, result: EvalResult) -> None:
    write_atomic(ws.path("cache", f"{config_hash}.json"),
                 json.dumps(result.to_dict(), sort_keys=True))


def stage_report(ws: Workspace, results) -> dict:
    written = emit(results, ws.path("report"))
    return {name: str(path) for name, path in written.items()}


def reproduce(ws: Workspace) -> dict:
    """train -> grid -> report, idempotent through the eval cache."""
    trained = stage_train(ws)
    evaled = stage_eval(ws)
    report = stage_report(ws, evaled["results"])
    return {"train": trained,
            "eval": {"n_cells": evaled["n_cells"], "n_failed": evaled["n_failed"]},
            "report": report}
