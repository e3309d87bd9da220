"""Task scoring, single-unit latency timing, and the experiment grid's plan.

One grid cell = (model, method, bits-or-plan). Every cell is scored on the
same task suite and timed under the same latency protocol;
:func:`ptqlab.pipeline.model_cells` builds, runs and caches the cells that
:func:`plan_grid` lists for one model.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from . import tasks
from .allocator import bit_levels
from .errors import ContractError, ParameterError, is_number, require_count
from .model import (MASK_ID, MODE_AR, MODE_DIFFUSION, Batch, ModelCheckpoint, forward_logits,
                    generate_ar, generate_diffusion, prediction_targets)
from .numerics import make_rng
from .quant import GroupQuantSpec
from .sensitivity import RANK_NORMALIZED, RANK_RAW

GRID_BITS = (2, 3, 4, 8)
CSV_FIELDS = ["model", "mode", "method", "bits_or_plan", "task", "score",
              "lat_mean_ms", "lat_std_ms", "raw_bits", "eff_bits", "seed", "config_hash"]

UNIT_AR_TOKEN = "ar_token"
UNIT_DIFFUSION_STEP = "diffusion_step"
LATENCY_UNIT = {MODE_AR: UNIT_AR_TOKEN, MODE_DIFFUSION: UNIT_DIFFUSION_STEP}


@dataclass(frozen=True)
class TaskSuite:
    tasks: tuple = tasks.ALL_TASKS
    n_eval_prompts: int = 50
    seed: int = 424242  # disjoint from training stream seeds by construction
    diffusion_steps: int = 16

    def __post_init__(self):
        if not self.tasks:
            raise ParameterError("task suite is empty: suite.tasks names no task")
        if not isinstance(self.tasks, tuple):  # a string or an object is no list of names
            raise TypeError(f"suite.tasks must be an array of task names, got {self.tasks!r}")
        require_count("n_eval_prompts", self.n_eval_prompts)
        require_count("diffusion_steps", self.diffusion_steps)
        require_count("seed", self.seed, 0)
        # a repeated task would key the same cells under another hash
        if (any(t not in tasks.ALL_TASKS for t in self.tasks)
                or len(set(self.tasks)) < len(self.tasks)):
            raise ParameterError(f"suite.tasks must name tasks of {list(tasks.ALL_TASKS)}, "
                                 f"each once, got {list(self.tasks)}")


@dataclass(frozen=True)
class LatencyConfig:
    warmup_runs: int = 200
    timed_runs: int = 2000
    seq_len: int = 128
    unit_of_work: str = UNIT_AR_TOKEN

    def __post_init__(self):
        require_count("warmup_runs", self.warmup_runs, 0)
        require_count("timed_runs", self.timed_runs, 2)
        require_count("seq_len", self.seq_len)
        if self.unit_of_work not in LATENCY_UNIT.values():
            raise ParameterError(f"unknown unit_of_work {self.unit_of_work!r}")


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

    def to_dict(self) -> dict:
        """Every field by name, as ``dataclasses.asdict`` gives it, at a fraction of its cost."""
        return dict(vars(self), scores=dict(self.scores))

    def mean_score(self) -> float:
        """Mean over the tasks in name order, so a fresh result and its cached
        copy (whose scores come back sorted) give the same float."""
        return float(np.mean([self.scores[t] for t in sorted(self.scores)]))


def _task_seed(seed: int, task: str) -> int:
    digest = hashlib.sha256(f"{seed}:{task}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


def _heldout_accuracy(ckpt: ModelCheckpoint, suite: TaskSuite) -> float:
    """Teacher-forced argmax accuracy over held-out answer regions."""
    rng = make_rng(_task_seed(suite.seed, "heldout_token_accuracy"))
    rows = tasks.sample_task_rows(rng, suite.n_eval_prompts)
    answers = np.zeros(rows.shape, dtype=bool)
    answers[:, tasks.TASK_ROW_LEN - tasks.PAYLOAD_LEN:] = True
    input_ids, at, targets = prediction_targets(ckpt.config, Batch(rows, answers))
    logits, _ = forward_logits(ckpt.params, ckpt.config, input_ids)
    return float(np.mean(np.argmax(logits[at], axis=-1) == targets))


def evaluate_tasks(ckpt: ModelCheckpoint, suite: TaskSuite) -> dict:
    """Per-task scores in [0, 1]; exact-match for generation tasks.

    Each generation task draws its prompts from its own seeded stream. All
    prompts have the same layout, so those of every generation task decode
    together in one batch.
    """
    hits = dict.fromkeys((t for t in suite.tasks if t in tasks.GENERATION_TASKS), 0)
    examples = []
    for task in hits:
        rng = make_rng(_task_seed(suite.seed, task))
        examples += [tasks.sample_example(rng, task) for _ in range(suite.n_eval_prompts)]
    if examples:
        prompts = [ex.prompt for ex in examples]
        n_new = len(examples[0].answer)
        if ckpt.config.mode == MODE_AR:
            outs = generate_ar(ckpt, prompts, n_new)
        else:
            outs = generate_diffusion(ckpt, prompts, n_new, suite.diffusion_steps)
        for ex, out in zip(examples, outs):
            hits[ex.task] += tuple(out[len(ex.prompt):]) == ex.answer
    return {task: hits[task] / suite.n_eval_prompts if task in hits
            else _heldout_accuracy(ckpt, suite) for task in suite.tasks}


def _latency_state(ckpt: ModelCheckpoint, cfg: LatencyConfig) -> np.ndarray:
    """Deterministic work unit input: context bytes, masked tail for diffusion."""
    ids = (np.arange(cfg.seq_len, dtype=np.int64) * 7 + 13) % 251  # plain byte content
    ids[0] = tasks.BOS_ID
    if cfg.unit_of_work == UNIT_DIFFUSION_STEP:
        ids[cfg.seq_len // 2:] = MASK_ID
    return ids[None, :]


def measure_latency(ckpt: ModelCheckpoint, cfg: LatencyConfig) -> tuple[float, float]:
    """(mean_ms, std_ms): time exactly one unit of work per run on a monotonic
    wall clock.

    The unit is a single full-sequence forward: over the masked sequence for
    a diffusion denoising step, over the context (last-position logits) for
    one AR token. Runs ``warmup_runs`` unmeasured then ``timed_runs``
    measured iterations.
    """
    wanted = LATENCY_UNIT[ckpt.config.mode]
    if cfg.unit_of_work != wanted:
        raise ContractError(f"a {ckpt.config.mode} checkpoint is timed by the unit {wanted!r}, "
                            f"not {cfg.unit_of_work!r}")
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
    return float(samples.mean() * 1e3), float(samples.std(ddof=1) * 1e3)


@dataclass(frozen=True)
class GridConfig:
    bits: tuple = GRID_BITS
    hawq_splits: tuple = ((16, 8), (8, 4))  # 50/50 two-level splits
    hawq_ratio: float = 0.5
    rank_mode: str = RANK_RAW
    n_calibration_batches: int = 8

    def __post_init__(self):
        for split in self.hawq_splits:
            if len(split) != 2:
                raise ParameterError(f"a hawq split is two widths hi, lo, got {list(split)}")
            bit_levels((*split, split[1]))  # integers, hi >= lo
        for b in (*self.bits, *(b for split in self.hawq_splits for b in split)):
            GroupQuantSpec(b)
        # a repeated width or split repeats cells that share one cache key
        if len(set(self.bits)) < len(self.bits):
            raise ParameterError(f"grid.bits lists a width twice: {list(self.bits)}")
        if len({tuple(split) for split in self.hawq_splits}) < len(self.hawq_splits):
            raise ParameterError(f"grid.hawq_splits lists a split twice: {list(self.hawq_splits)}")
        if not is_number(self.hawq_ratio) or not 0.0 <= self.hawq_ratio <= 1.0:
            raise ParameterError(f"hawq_ratio must be a number in [0, 1], got {self.hawq_ratio!r}")
        if self.rank_mode not in (RANK_RAW, RANK_NORMALIZED):
            raise ParameterError(f"unknown ranking mode {self.rank_mode!r}")
        require_count("n_calibration_batches", self.n_calibration_batches)


def plan_grid(grid: GridConfig = GridConfig(), modes=(MODE_AR, MODE_DIFFUSION)) -> list:
    """(model, method, bits_or_plan) rows of the grid for ``modes``, in the order it runs them."""
    rows = []
    for mode in modes:
        name = f"toy-{mode}"
        rows.append((name, "baseline", "16bit"))
        for b in grid.bits:
            rows.append((name, "rtn", f"{b}bit"))
            rows.append((name, "gptq", f"{b}bit"))
        for hi, lo in grid.hawq_splits:
            rows.append((name, "hawq", f"hawq-{hi}/{lo}"))
    return rows
