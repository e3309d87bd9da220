"""Task scoring, single-unit latency timing, and the experiment grid's plan.

One grid cell = (model, method, bits-or-plan). Every cell is scored on the
same task suite and timed under the same latency protocol;
:func:`ptqlab.pipeline.stage_eval` builds, runs and caches the cells that
:func:`plan_grid` lists.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from . import tasks
from .errors import ContractError, ParameterError
from .model import (MASK_ID, MODE_AR, MODE_DIFFUSION, ModelCheckpoint, forward_logits,
                    generate_ar, generate_diffusion)
from .numerics import make_rng

GRID_BITS = (2, 3, 4, 8)
CSV_FIELDS = ["model", "mode", "method", "bits_or_plan", "task", "score",
              "lat_mean_ms", "lat_std_ms", "raw_bits", "eff_bits", "seed", "config_hash"]

UNIT_AR_TOKEN = "ar_token"
UNIT_DIFFUSION_STEP = "diffusion_step"


@dataclass(frozen=True)
class TaskSuite:
    tasks: tuple = tasks.ALL_TASKS
    n_eval_prompts: int = 50
    seed: int = 424242  # disjoint from training stream seeds by construction
    diffusion_steps: int = 16

    def __post_init__(self):
        if not self.tasks:
            raise ContractError("task suite is empty")
        unknown = [t for t in self.tasks if t not in tasks.ALL_TASKS]
        if unknown:
            raise ParameterError(f"unknown tasks: {unknown}")


@dataclass(frozen=True)
class LatencyConfig:
    warmup_runs: int = 200
    timed_runs: int = 2000
    seq_len: int = 128
    unit_of_work: str = UNIT_AR_TOKEN

    def __post_init__(self):
        if self.warmup_runs < 0:
            raise ParameterError("warmup_runs must be >= 0")
        if self.timed_runs < 2:
            raise ParameterError("timed_runs must be >= 2")
        if self.unit_of_work not in (UNIT_AR_TOKEN, UNIT_DIFFUSION_STEP):
            raise ParameterError(f"unknown unit_of_work {self.unit_of_work!r}")


@dataclass
class LatencyResult:
    mean_ms: float
    std_ms: float
    warmup_runs: int
    timed_runs: int
    timer_warning: bool = False


@dataclass
class EvalResult:
    model: str
    mode: str
    method: str
    bits_or_plan: str
    scores: dict
    lat_mean_ms: float
    lat_std_ms: float
    raw_bits: float
    eff_bits: float
    seed: int
    config_hash: str
    status: str = "ok"
    error: str = ""
    timer_warning: bool = False

    def mean_score(self) -> float:
        return float(np.mean(list(self.scores.values()))) if self.scores else float("nan")


def _task_seed(seed: int, task: str) -> int:
    digest = hashlib.sha256(f"{seed}:{task}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


def _exact_match_score(ckpt: ModelCheckpoint, task: str, suite: TaskSuite) -> float:
    rng = make_rng(_task_seed(suite.seed, task))
    hits = 0
    for _ in range(suite.n_eval_prompts):
        ex = tasks.sample_example(rng, task)
        if ckpt.config.mode == MODE_AR:
            out = generate_ar(ckpt, ex.prompt, len(ex.answer))
        else:
            out = generate_diffusion(ckpt, ex.prompt, len(ex.answer), suite.diffusion_steps)
        hits += tuple(out[len(ex.prompt):]) == ex.answer
    return hits / suite.n_eval_prompts


def _heldout_accuracy(ckpt: ModelCheckpoint, suite: TaskSuite) -> float:
    """Teacher-forced argmax accuracy over held-out answer regions."""
    rng = make_rng(_task_seed(suite.seed, "heldout_token_accuracy"))
    rows, _ = tasks.sample_task_rows(rng, max(suite.n_eval_prompts, 1))
    answer_cols = np.arange(tasks.TASK_ROW_LEN - tasks.PAYLOAD_LEN, tasks.TASK_ROW_LEN)
    if ckpt.config.mode == MODE_AR:
        logits, _ = forward_logits(ckpt.params, ckpt.config, rows)
        pred = np.argmax(logits[:, answer_cols - 1], axis=-1)
    else:
        corrupted = rows.copy()
        corrupted[:, answer_cols] = MASK_ID
        logits, _ = forward_logits(ckpt.params, ckpt.config, corrupted)
        pred = np.argmax(logits[:, answer_cols], axis=-1)
    return float(np.mean(pred == rows[:, answer_cols]))


def evaluate_tasks(ckpt: ModelCheckpoint, suite: TaskSuite) -> dict:
    """Per-task scores in [0, 1]; exact-match for generation tasks."""
    scores = {}
    for task in suite.tasks:
        if task == "heldout_token_accuracy":
            scores[task] = _heldout_accuracy(ckpt, suite)
        else:
            scores[task] = _exact_match_score(ckpt, task, suite)
    return scores


def _latency_state(ckpt: ModelCheckpoint, cfg: LatencyConfig) -> np.ndarray:
    """Deterministic work unit input: context bytes, masked tail for diffusion."""
    seq_len = min(cfg.seq_len, ckpt.config.max_seq_len)
    ids = (np.arange(seq_len, dtype=np.int64) * 7 + 13) % 251  # plain byte content
    ids[0] = tasks.BOS_ID
    if cfg.unit_of_work == UNIT_DIFFUSION_STEP:
        ids[seq_len // 2:] = MASK_ID
    return ids[None, :]


def measure_latency(ckpt: ModelCheckpoint, cfg: LatencyConfig) -> LatencyResult:
    """Time exactly one unit of work per run on a monotonic wall clock.

    The unit is a single full-sequence forward: over the masked sequence for
    a diffusion denoising step, over the context (last-position logits) for
    one AR token. Runs ``warmup_runs`` unmeasured then ``timed_runs``
    measured iterations.
    """
    wanted = MODE_DIFFUSION if cfg.unit_of_work == UNIT_DIFFUSION_STEP else MODE_AR
    if ckpt.config.mode != wanted:
        raise ContractError(f"unit {cfg.unit_of_work!r} needs a {wanted} checkpoint, "
                            f"got {ckpt.config.mode}")
    state = _latency_state(ckpt, cfg)
    params, config = ckpt.params, ckpt.config

    def unit():
        forward_logits(params, config, state)

    for _ in range(cfg.warmup_runs):
        unit()
    samples = np.empty(cfg.timed_runs, dtype=np.float64)
    for i in range(cfg.timed_runs):
        t0 = time.perf_counter()
        unit()
        samples[i] = time.perf_counter() - t0
    mean_ms = float(samples.mean() * 1e3)
    std_ms = float(samples.std(ddof=1) * 1e3)
    resolution_ms = time.get_clock_info("perf_counter").resolution * 1e3
    return LatencyResult(mean_ms, std_ms, cfg.warmup_runs, cfg.timed_runs,
                         timer_warning=resolution_ms > 0.01 * mean_ms)


@dataclass(frozen=True)
class GridConfig:
    bits: tuple = GRID_BITS
    hawq_splits: tuple = ((16, 8), (8, 4))  # 50/50 two-level splits
    hawq_ratio: float = 0.5
    rank_mode: str = "raw"
    n_calibration_batches: int = 8


def plan_grid(grid: GridConfig = GridConfig()) -> list:
    """(model, method, bits_or_plan) rows of the grid, in the order it runs them."""
    rows = []
    for mode in (MODE_AR, MODE_DIFFUSION):
        name = f"toy-{mode}"
        rows.append((name, "baseline", "16bit"))
        for b in grid.bits:
            rows.append((name, "rtn", f"{b}bit"))
            rows.append((name, "gptq", f"{b}bit"))
        for hi, lo in grid.hawq_splits:
            rows.append((name, "hawq", f"hawq-{hi}/{lo}"))
    return rows
