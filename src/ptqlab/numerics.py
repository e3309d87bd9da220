"""Dense linear algebra and deterministic RNG.

Conventions used throughout the package:

* Tensors are plain ``numpy.ndarray``s. Persistent state (checkpoints) is
  stored as little-endian float32; reductions and everything feeding the
  sensitivity math accumulate in float64.
* Randomness always flows through a ``numpy.random.Generator`` seeded with
  :func:`make_rng` (PCG64), which gives identical draw sequences for a given
  seed across runs and platforms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefiniteError, ParameterError, ShapeError

Rng = np.random.Generator


def make_rng(seed: int) -> Rng:
    """Deterministic generator: same 64-bit seed, same draw sequence."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def cholesky_invert_spd(h: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive-definite matrix via Cholesky.

    The caller is responsible for symmetry; positive definiteness is checked
    by the factorization itself. Raises :class:`NotPositiveDefiniteError` on
    a non-positive pivot so callers can add damping and retry. The result is
    explicitly symmetrized.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"expected square matrix, got {h.shape}")
    try:
        lower = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
    inv_lower = np.linalg.solve(lower, np.eye(h.shape[0]))
    inv = inv_lower.T @ inv_lower
    return (inv + inv.T) / 2.0


def cholesky_upper_of_inverse(h: np.ndarray) -> np.ndarray:
    """Upper-triangular U with inv(h) == U.T @ U, for an SPD ``h``.

    This is the factor whose rows drive sequential error compensation in the
    GPTQ solver; computed from the symmetrized inverse for stability.
    """
    inv = cholesky_invert_spd(h)
    try:
        return np.linalg.cholesky(inv).T
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"inverse lost positive definiteness: {exc}") from exc


def sample_sparse_direction(rng: Rng, n_params: int, rho: float) -> np.ndarray:
    """Unit-norm sparse Rademacher direction with ceil(rho * n) nonzeros.

    The support is drawn uniformly without replacement; nonzero entries are
    +/-1 before normalization, so every nonzero has magnitude
    1/sqrt(nnz) afterwards. ``rho`` must lie in (0, 1]; the ceiling keeps at
    least one active coordinate even for tiny layers.
    """
    if n_params < 1:
        raise ParameterError(f"n_params must be >= 1, got {n_params}")
    if not (0.0 < rho <= 1.0):
        raise ParameterError(f"rho must be in (0, 1], got {rho}")
    nnz = math.ceil(rho * n_params)
    v = np.zeros(n_params, dtype=np.float64)
    support = rng.choice(n_params, size=nnz, replace=False)
    signs = rng.integers(0, 2, size=nnz) * 2 - 1
    v[support] = signs.astype(np.float64)
    return v / np.linalg.norm(v)
