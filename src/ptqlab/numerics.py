"""Dense linear algebra and deterministic RNG.

Conventions used throughout the package:

* Tensors are plain ``numpy.ndarray``s. Persistent state (checkpoints) is
  stored as little-endian float32; reductions and everything feeding the
  sensitivity math accumulate in float64.
* Randomness always flows through a ``numpy.random.Generator`` seeded with
  :func:`make_rng` (PCG64), which gives identical draw sequences for a given
  seed across runs and platforms.
* The curvature math (sensitivities and GPTQ) runs inside
  :func:`one_blas_thread`, so its float64 sums do not depend on how many
  threads the machine gives numpy's BLAS.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from pathlib import Path

import numpy as np

from .errors import NotPositiveDefiniteError, ParameterError

Rng = np.random.Generator


def make_rng(seed: int) -> Rng:
    """Deterministic generator: same 64-bit seed, same draw sequence."""
    return np.random.Generator(np.random.PCG64(int(seed)))


@functools.cache
def _blas_thread_calls():
    """(get, set) of the OpenBLAS thread count of numpy's Linux wheels; no-ops without it."""
    for lib in sorted(Path(np.__file__).parents[1].glob("numpy.libs/*openblas*")):
        dll = ctypes.CDLL(str(lib))  # the library numpy already loaded
        # numpy 2 wheels ship scipy-openblas, numpy 1 wheels OpenBLAS with 64_ names
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_"):
            if hasattr(dll, name.format("set")):
                get, set_ = getattr(dll, name.format("get")), getattr(dll, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return (lambda: 1), (lambda n: None)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block (or decorated function) with numpy's BLAS on one thread.

    A float64 product split over BLAS threads rounds differently from one
    done in a single thread, so this pins one thread and restores the
    previous count on exit. Where numpy's BLAS is not the OpenBLAS of its
    Linux wheels it does nothing, and the bytes may then depend on the
    thread setting.
    """
    get, set_ = _blas_thread_calls()
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def cholesky_upper_of_inverse(h: np.ndarray) -> np.ndarray:
    """Upper-triangular U with inv(h) == U.T @ U, for an SPD ``h``.

    This is the factor whose rows drive sequential error compensation in the
    GPTQ solver. With P the index reversal and P h P = L L^T, U = P inv(L) P,
    so one factorization suffices. Raises :class:`NotPositiveDefiniteError`
    when it fails, so callers can add damping and retry.
    """
    try:
        inv_lower = np.linalg.inv(np.linalg.cholesky(np.ascontiguousarray(h[::-1, ::-1])))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
    # the pivoting inverse leaves rounding residue where inv(L) is exactly 0
    return np.triu(inv_lower[::-1, ::-1])


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
