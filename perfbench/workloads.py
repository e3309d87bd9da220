"""The three workloads, each a closed loop of one client in one process.

Every operation calls a public stage function of ``ptqlab.pipeline`` and
starts only after the previous one returned. The only input ptqlab receives
is the generated config JSON, which carries the workload seed. Each
operation's outputs are checked (digests, statuses, ranges); an operation
whose check fails counts as failed. See ``perfbench/NOTES.md`` for why
these workloads were chosen.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ptqlab import pipeline
from ptqlab.evaluation import plan_grid
from ptqlab.model import ModelCheckpoint

# Relative to the checkout root (the benchmark runs from there). Checkpoint
# bytes embed the training log path, so the workspace path must be the same
# on every run for the checkpoint digests to repeat.
WORK = Path(".perfbench")
CONFIG_PATH = WORK / "config.json"
WORKSPACE = WORK / "ws"

# Sections of the generated config per size. "default" is the measured
# size; "tiny" keeps the benchmark's own tests short.
SIZES = {
    "default": {
        # A learning rate above ptqlab's default, so that 40 steps give
        # non-zero held-out accuracies for the grid digest to pin.
        "train": {"steps": 40, "learning_rate": 3e-3},
        "suite": {"n_eval_prompts": 1},
        "latency": {"warmup_runs": 2, "timed_runs": 4},
        "sensitivity": {"n_batches": 1, "n_power_iters": 1},
        "grid": {"n_calibration_batches": 1},
    },
    "tiny": {
        "train": {"steps": 3, "batch_size": 8},
        "suite": {"n_eval_prompts": 1, "diffusion_steps": 4},
        "latency": {"warmup_runs": 1, "timed_runs": 2},
        "sensitivity": {"n_batches": 1, "n_power_iters": 1},
        "grid": {"n_calibration_batches": 1, "bits": [4]},
    },
}

# Training settings of the grid workloads (ptq-grid, cached-rerun), merged
# over the size's "train" section. Their one calibration batch, which
# sensitivity and GPTQ share, is drawn from the training distribution. With
# text rows the seed would decide whether that batch is 32 tokens long
# instead of 20, and with it the work and memory of every grid. Batch 16
# halves the float64 work of sensitivity and calibration, so that about eight
# cold grids fit in one run. train-pair keeps ptqlab's text_fraction and
# batch size.
GRID_TRAIN = {
    "default": {"text_fraction": 0.0, "batch_size": 16},
    "tiny": {"text_fraction": 0.0},
}

REPORT_FILES = ("results.csv", "report.json")

VALIDATE = ("import sys; sys.path.insert(0, sys.argv[1]); from ptqlab import pipeline; "
            "pipeline.Workspace(pipeline.PipelineConfig.load(sys.argv[2]))")
SRC = Path(pipeline.__file__).resolve().parents[1]


def config_doc(seed: int, size: str, grid_train: bool) -> dict:
    doc = {"workspace": str(WORKSPACE), "seed": seed, **SIZES[size]}
    if grid_train:
        doc["train"] = {**doc["train"], **GRID_TRAIN[size]}
    return doc


@dataclass
class Op:
    """One timed operation: a train run, a cold grid or a rerun."""

    seconds: float
    units: int  # train steps, grid cells or reruns done by the operation
    problems: list = field(default_factory=list)
    cells: int = 0  # grid cells the operation returned
    built: int = 0  # grid cells it had to build (cache misses)
    spread: dict = field(default_factory=dict)  # mode -> max/min lat_mean_ms

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def grid_digest(csv_text: str) -> str:
    """Digest of the deterministic columns of results.csv.

    Latency and the config hash are left out: latency is wall-clock, and
    the config hash covers the checkpoint bytes, which the train-pair
    digest already pins. Sensitivity λ are not digested at all, because
    their last bits change with the BLAS thread count; the hawq cells'
    eff_bits pin the sensitivity ranking instead.
    """
    rows = csv.DictReader(io.StringIO(csv_text))
    keep = ("model", "method", "bits_or_plan", "task", "score", "raw_bits", "eff_bits")
    text = "\n".join(",".join(row[k] for k in keep) for row in rows)
    return sha256(text.encode())


def grid_problems(results, csv_text: str, n_expected: int) -> list:
    problems = []
    if len(results) != n_expected:
        problems.append(f"grid returned {len(results)} cells, expected {n_expected}")
    bad = [f"{r.model}/{r.method}/{r.bits_or_plan}" for r in results if r.status != "ok"]
    if bad:
        problems.append(f"cells not ok: {bad}")
    for row in csv.DictReader(io.StringIO(csv_text)):
        if not 0.0 <= float(row["score"]) <= 1.0:
            problems.append(f"score {row['score']} outside [0, 1]")
    return problems


def cell_spread(report_json: bytes) -> dict:
    """max/min of the cells' lat_mean_ms, per model mode."""
    out = {}
    for mode in pipeline.MODELS:
        lats = [r["lat_mean_ms"] for r in json.loads(report_json)["results"]
                if r["mode"] == mode and r["status"] == "ok"]
        out[mode] = max(lats) / min(lats) if lats else 0.0
    return out


class Workload:
    name = ""
    setups = 1  # set-ups per run; setup_s is their median
    grid_train = True  # trains with GRID_TRAIN
    alias = ("", 1.0, "")  # workload-specific name, scale and unit of ops_per_s

    def __init__(self, seed: int, size: str, reference: dict | None):
        self.seed = seed
        self.size = size
        self.reference = reference  # expected digests, or None when not applicable
        self.first_digest = None
        self.ws = None

    def prepare(self) -> None:
        """A fresh workspace and the generated config, validated the way the
        CLI does it before any stage: a fresh interpreter imports ptqlab and
        loads the config."""
        shutil.rmtree(WORK, ignore_errors=True)
        WORKSPACE.mkdir(parents=True)
        CONFIG_PATH.write_text(json.dumps(config_doc(self.seed, self.size, self.grid_train),
                                          indent=2, sort_keys=True) + "\n")
        # no timeout: with one, the wait polls in steps of up to 50 ms, which
        # would quantize setup_s
        subprocess.run([sys.executable, "-c", VALIDATE, str(SRC), str(CONFIG_PATH)],
                       check=True)
        self.ws = pipeline.Workspace(pipeline.PipelineConfig.load(CONFIG_PATH))

    def check_digest(self, digest, ref_key: str, problems: list) -> None:
        """All repeats agree; at the reference seed and size, so does the reference."""
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append(f"{ref_key} digest {digest} differs from the first repeat's "
                            f"{self.first_digest}")
        if self.reference is not None and digest != self.reference[ref_key]:
            problems.append(f"{ref_key} digest {digest} differs from the reference "
                            f"{self.reference[ref_key]}")

    def n_cells(self) -> int:
        return len(plan_grid(self.ws.cfg.grid))

    def report_bytes(self) -> dict:
        return {name: (self.ws.root / "report" / name).read_bytes() for name in REPORT_FILES}

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> Op:
        raise NotImplementedError


class TrainPair(Workload):
    """stage_train for both modes on a fresh workspace, per operation."""

    name = "train-pair"
    setups = 9  # a set-up is only the ~0.3 s config check, so take more of them
    grid_train = False
    alias = ("train_steps_per_s", 1.0, "1/s")

    def setup(self) -> None:
        self.prepare()

    def op(self) -> Op:
        shutil.rmtree(WORKSPACE, ignore_errors=True)
        t0 = time.perf_counter()
        out = pipeline.stage_train(self.ws)
        seconds = time.perf_counter() - t0
        problems = []
        digest = {}
        for mode in pipeline.MODELS:
            if out[mode]["reused"]:
                problems.append(f"{mode} checkpoint was reused, not trained")
            blob = self.ws.checkpoint_path(mode).read_bytes()
            digest[mode] = sha256(blob)
            meta = ModelCheckpoint.from_bytes(blob).meta
            if not meta["heldout_loss_final"] < meta["heldout_loss_init"]:
                problems.append(f"{mode} held-out loss did not fall: "
                                f"{meta['heldout_loss_init']} -> {meta['heldout_loss_final']}")
        self.check_digest(digest, "checkpoints", problems)
        steps = self.ws.cfg.train.steps * len(pipeline.MODELS)
        return Op(seconds, steps, problems)


class PtqGrid(Workload):
    """Cold-cache stage_eval then stage_report over the whole grid, per operation."""

    name = "ptq-grid"
    setups = 3
    alias = ("grid_cells_per_min", 60.0, "1/min")

    def setup(self) -> None:
        self.prepare()
        pipeline.stage_train(self.ws)

    def op(self) -> Op:
        for sub in ("cache", "report"):
            shutil.rmtree(self.ws.root / sub, ignore_errors=True)
        t0 = time.perf_counter()
        evaled = pipeline.stage_eval(self.ws)
        pipeline.stage_report(self.ws, evaled["results"])
        seconds = time.perf_counter() - t0
        report = self.report_bytes()
        csv_text = report["results.csv"].decode()
        problems = grid_problems(evaled["results"], csv_text, self.n_cells())
        self.check_digest(grid_digest(csv_text), "grid", problems)
        built = len(list((self.ws.root / "cache").glob("*.json")))
        return Op(seconds, evaled["n_cells"], problems, cells=evaled["n_cells"], built=built,
                  spread=cell_spread(report["report.json"]))


def _cache_listing(ws) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in (ws.root / "cache").glob("*.json")}


class CachedRerun(Workload):
    """reproduce on a complete workspace: every cell a cache hit, per operation."""

    name = "cached-rerun"
    setups = 3
    alias = ("reruns_per_s", 1.0, "1/s")

    def setup(self) -> None:
        self.prepare()
        # the steps of reproduce, called one by one to keep the cold results
        pipeline.stage_train(self.ws)
        evaled = pipeline.stage_eval(self.ws)
        pipeline.stage_report(self.ws, evaled["results"])
        self.cold = self.report_bytes()
        self.listing = _cache_listing(self.ws)
        csv_text = self.cold["results.csv"].decode()
        self.setup_problems = grid_problems(evaled["results"], csv_text, self.n_cells())
        self.check_digest(grid_digest(csv_text), "grid", self.setup_problems)

    def op(self) -> Op:
        t0 = time.perf_counter()
        evaled = pipeline.reproduce(self.ws)["eval"]
        seconds = time.perf_counter() - t0
        problems = list(self.setup_problems)
        if evaled["n_cells"] != self.n_cells() or evaled["n_failed"]:
            problems.append(f"rerun: {evaled['n_cells']} cells, {evaled['n_failed']} failed")
        report = self.report_bytes()
        for name in REPORT_FILES:
            if report[name] != self.cold[name]:
                problems.append(f"{name} differs from the cold run's")
        listing = _cache_listing(self.ws)
        built = sum(1 for k, v in listing.items() if self.listing.get(k) != v)
        if built:
            problems.append(f"rerun built {built} cells")
        return Op(seconds, 1, problems, cells=evaled["n_cells"], built=built,
                  spread=cell_spread(report["report.json"]))


WORKLOADS = {w.name: w for w in (TrainPair, PtqGrid, CachedRerun)}
