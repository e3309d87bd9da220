"""Synthetic byte-level tasks and batch builders shared by trainer and eval.

Every task instance is a fixed-layout byte string::

    [BOS] <tag> ':' <payload x 8> '>' <answer x 8>

with a one-letter tag per task. The answer is a deterministic function of
the payload, so the generator doubles as the scoring oracle (exact match =
pass@1). Text rows are raw windows of the bundled public-domain shard.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ParameterError
from .model.config import BOS_ID, Batch
from .numerics import Rng

PAYLOAD_LEN = 8
ALPHABET = np.arange(ord("a"), ord("z") + 1)
TASK_ROW_LEN = 1 + 2 + PAYLOAD_LEN + 1 + PAYLOAD_LEN  # BOS tag ':' payload '>' answer
TEXT_ROW_LEN = 32

GENERATION_TASKS = ("copy", "reverse", "pattern_completion")
ALL_TASKS = GENERATION_TASKS + ("heldout_token_accuracy",)

_TAGS = {"copy": ord("C"), "reverse": ord("R"), "pattern_completion": ord("P")}


@dataclass(frozen=True)
class TaskExample:
    task: str
    prompt: tuple  # token ids including BOS, ending at '>'
    answer: tuple  # token ids, length PAYLOAD_LEN

    @property
    def tokens(self) -> tuple:
        return self.prompt + self.answer


def sample_example(rng: Rng, task: str) -> TaskExample:
    if task == "pattern_completion":
        period = int(rng.integers(2, 4))  # 2 or 3
        pattern = rng.choice(ALPHABET, size=period, replace=True)
        payload = np.array([pattern[i % period] for i in range(PAYLOAD_LEN)])
        answer = np.array([pattern[(PAYLOAD_LEN + i) % period] for i in range(PAYLOAD_LEN)])
    elif task in ("copy", "reverse"):
        payload = rng.choice(ALPHABET, size=PAYLOAD_LEN, replace=True)
        answer = payload[::-1] if task == "reverse" else payload
    else:
        raise ParameterError(f"unknown generation task {task!r}")
    prompt = (BOS_ID, _TAGS[task], ord(":")) + tuple(int(c) for c in payload) + (ord(">"),)
    return TaskExample(task, prompt, tuple(int(c) for c in answer))


def sample_task_rows(rng: Rng, n_rows: int) -> np.ndarray:
    """Token grid of ``n_rows`` examples, each of a uniformly drawn generation task."""
    examples = [sample_example(rng, GENERATION_TASKS[int(rng.integers(0, len(GENERATION_TASKS)))])
                for _ in range(n_rows)]
    return np.array([ex.tokens for ex in examples], dtype=np.int64)


def load_corpus(path=None) -> bytes:
    if path is not None:
        with open(path, "rb") as fh:
            return fh.read()
    return resources.files("ptqlab.data").joinpath("corpus.txt").read_bytes()


def corpus_hash(corpus: bytes) -> str:
    return hashlib.sha256(corpus).hexdigest()


def sample_text_rows(rng: Rng, n_rows: int, corpus: bytes) -> np.ndarray:
    if len(corpus) < TEXT_ROW_LEN:
        raise ParameterError("corpus shorter than one text row")
    starts = rng.integers(0, len(corpus) - (TEXT_ROW_LEN - 1), size=n_rows)
    rows = np.empty((n_rows, TEXT_ROW_LEN), dtype=np.int64)
    rows[:, 0] = BOS_ID
    for i, st in enumerate(starts):
        rows[i, 1:] = np.frombuffer(corpus[st:st + TEXT_ROW_LEN - 1], dtype=np.uint8)
    return rows


def ar_batch(token_ids: np.ndarray) -> Batch:
    """Next-token targets at every position after BOS."""
    mask = np.ones_like(token_ids, dtype=bool)
    mask[:, 0] = False
    return Batch(token_ids, mask)


def diffusion_batch(token_ids: np.ndarray, rng: Rng, completion_start: int | None = None) -> Batch:
    """Denoising batch: per-batch mask ratio uniform in [0.1, 0.9), at least one mask per row.

    When ``completion_start`` is given, half of the batches restrict masking
    to the completion region so the infill pattern used at generation time
    (prompt fully visible, answer masked) is well covered; the rest mask
    uniformly over all non-BOS positions.
    """
    ratio = rng.uniform(0.1, 0.9)
    lo = 1
    if completion_start is not None and rng.random() < 0.5:
        lo = completion_start
    mask = np.zeros(token_ids.shape, dtype=bool)
    mask[:, lo:] = rng.random((token_ids.shape[0], token_ids.shape[1] - lo)) < ratio
    for r in np.nonzero(~mask.any(axis=1))[0]:
        mask[r, int(rng.integers(lo, token_ids.shape[1]))] = True
    return Batch(token_ids, mask)

