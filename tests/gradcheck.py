"""Central-difference gradient check, the oracle for the model's backward passes."""

import math

import numpy as np

from ptqlab.errors import NumericError, ShapeError


def finite_diff_grad_check(f, analytic_grad: np.ndarray, point: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between central differences of ``f`` and a gradient.

    Returns max_i |(f(x + eps e_i) - f(x - eps e_i)) / (2 eps) - g_i|
    / (|g_i| + 1e-8). Used as the oracle for every hand-written backward
    pass in the model.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if point.shape != analytic_grad.shape:
        raise ShapeError(f"gradient shape {analytic_grad.shape} != point shape {point.shape}")
    flat = point.ravel()
    grad = analytic_grad.ravel()
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        bumped = point.copy().ravel()
        bumped[i] = orig + eps
        f_plus = float(f(bumped.reshape(point.shape)))
        bumped[i] = orig - eps
        f_minus = float(f(bumped.reshape(point.shape)))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError("f returned non-finite value during grad check")
        numeric = (f_plus - f_minus) / (2.0 * eps)
        err = abs(numeric - grad[i]) / (abs(grad[i]) + 1e-8)
        worst = max(worst, err)
    return worst
