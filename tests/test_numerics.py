import math

import numpy as np
import pytest
from scipy import stats

from ptqlab.errors import NotPositiveDefiniteError, ParameterError
from ptqlab.numerics import cholesky_invert_spd, make_rng, sample_sparse_direction


class TestCholeskyInvert:
    def test_identity(self):
        assert np.allclose(cholesky_invert_spd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        inv = cholesky_invert_spd(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-14)

    def test_multiply_back_random_spd(self):
        rng = make_rng(11)
        for n in (6, 32, 128):
            m = rng.standard_normal((n, n))
            a = m.T @ m + np.eye(n)
            inv = cholesky_invert_spd(a)
            err = np.abs(a @ inv - np.eye(n)).max()
            assert err <= 1e-8
            assert np.abs(inv - inv.T).max() <= 1e-9

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_invert_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


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
