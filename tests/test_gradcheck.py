import numpy as np

from gradcheck import finite_diff_grad_check


class TestGradCheck:
    def test_quadratic_exact(self):
        x = np.array([1.0, 2.0])
        err = finite_diff_grad_check(lambda v: float(np.sum(v**2)), 2.0 * x, x, eps=1e-5)
        assert err <= 1e-6

    def test_sin_against_cos(self):
        x = np.array([0.3])
        err = finite_diff_grad_check(lambda v: float(np.sum(np.sin(v))), np.cos(x), x, eps=1e-5)
        assert err <= 1e-6

    def test_flags_wrong_gradient(self):
        x = np.array([1.0, 2.0])
        # claimed gradient off by a factor of two in either direction is flagged
        err_half = finite_diff_grad_check(lambda v: float(np.sum(v**2)), x, x, eps=1e-5)
        assert 0.99 <= err_half <= 1.01  # |2x - x| / |x|
        err_double = finite_diff_grad_check(lambda v: float(np.sum(v**2)), 4.0 * x, x, eps=1e-5)
        assert err_double >= 0.4
