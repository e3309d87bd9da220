import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ptqlab import numerics
from ptqlab.errors import NotPositiveDefiniteError, ParameterError
from ptqlab.numerics import (_blas_thread_calls, cholesky_upper_of_inverse, make_rng,
                             one_blas_thread, sample_sparse_direction)


class TestCholeskyInvert:
    def test_identity(self):
        assert np.allclose(cholesky_upper_of_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        upper = cholesky_upper_of_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(upper, np.diag([1.0 / math.sqrt(2.0), 0.5]), atol=1e-14)
        assert np.allclose(upper.T @ upper, np.diag([0.5, 0.25]), atol=1e-14)

    def test_multiply_back_random_spd(self):
        rng = make_rng(11)
        for n in (6, 32, 128):
            m = rng.standard_normal((n, n))
            a = m.T @ m + np.eye(n)
            upper = cholesky_upper_of_inverse(a)
            err = np.abs(a @ (upper.T @ upper) - np.eye(n)).max()
            assert err <= 1e-8
            assert np.array_equal(upper, np.triu(upper))

    @pytest.mark.parametrize("n", [1, 5, 64, 256])
    def test_matches_the_dense_inverse(self, n):
        rng = make_rng(12)
        m = rng.standard_normal((n, n))
        a = m.T @ m + np.eye(n)
        upper = cholesky_upper_of_inverse(a)
        inv = np.linalg.inv(a)
        assert np.array_equal(upper, np.triu(upper))
        assert np.all(np.diag(upper) > 0)
        assert np.abs(upper.T @ upper - inv).max() <= 1e-10 * np.abs(inv).max()

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_upper_of_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


# A sensitivity report and a GPTQ layer report of an untrained model at the
# default architecture, whose products OpenBLAS splits over its threads.
CURVATURE_REPORTS = """
import json
from ptqlab.gptq import GptqConfig, gptq_quantize_model
from ptqlab.model import new_checkpoint
from ptqlab.quant import uniform_plan
from ptqlab.sensitivity import SensitivityConfig, compute_sensitivities
from ptqlab.trainer import TrainConfig, calibration_batches

cfg = TrainConfig()
ckpt = new_checkpoint(cfg.model_config(), 0)
batches = calibration_batches(cfg, 1)
records = compute_sensitivities(ckpt, batches, SensitivityConfig(n_power_iters=1, n_batches=1))
quantized = gptq_quantize_model(ckpt, uniform_plan(ckpt, 4), batches, GptqConfig())
layers = quantized.meta["quantization"]["layers"]
print(json.dumps([[r.to_dict() for r in records], layers]))
"""


class TestOneBlasThread:
    def test_pins_one_thread_and_restores_the_count(self):
        get, _ = _blas_thread_calls()
        before = get()
        with one_blas_thread():
            assert get() == 1
        assert get() == before

    def test_without_a_thread_setter_the_body_runs_and_nothing_is_set(self, monkeypatch):
        get, _ = _blas_thread_calls()
        before = get()
        monkeypatch.setattr(numerics.ctypes, "CDLL", lambda path: object())  # exports nothing
        # the cached lookup found the setter; look again, uncached
        monkeypatch.setattr(numerics, "_blas_thread_calls", _blas_thread_calls.__wrapped__)
        ran = []
        with one_blas_thread():
            ran.append(get())
        assert ran == [before]

    def test_curvature_bytes_do_not_depend_on_the_thread_setting(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = [subprocess.run([sys.executable, "-c", CURVATURE_REPORTS], check=True,
                              capture_output=True, timeout=600,
                              env={**os.environ, "PYTHONPATH": src,
                                   "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
        assert out[0] and out[0] == out[1]


class TestSparseDirection:
    def test_dense_limit(self):
        v = sample_sparse_direction(make_rng(0), 4, 1.0)
        assert np.count_nonzero(v) == 4
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_paper_default_ratio(self):
        v = sample_sparse_direction(make_rng(1), 100, 0.1)
        nz = v[v != 0]
        assert nz.size == 10
        assert np.allclose(np.abs(nz), 1.0 / math.sqrt(10), atol=1e-12)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_ceiling_forces_one(self):
        v = sample_sparse_direction(make_rng(2), 1, 0.5)
        assert np.count_nonzero(v) == 1
        assert abs(abs(v[0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n,rho", [(7, 0.3), (50, 0.25), (13, 0.99), (64, 0.5)])
    def test_nonzero_count_is_ceil(self, n, rho):
        v = sample_sparse_direction(make_rng(5), n, rho)
        assert np.count_nonzero(v) == math.ceil(rho * n)

    def test_rho_out_of_range(self):
        for rho in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                sample_sparse_direction(make_rng(0), 10, rho)

    def test_deterministic_given_seed(self):
        a = sample_sparse_direction(make_rng(99), 50, 0.3)
        b = sample_sparse_direction(make_rng(99), 50, 0.3)
        assert a.tobytes() == b.tobytes()

    def test_support_uniformity_chi_square(self):
        # 1e4 draws of a single active coordinate out of 20
        rng = make_rng(123)
        counts = np.zeros(20)
        for _ in range(10_000):
            v = sample_sparse_direction(rng, 20, 0.05)
            counts[np.nonzero(v)[0][0]] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.001
