"""Central finite differences: the independent oracle for analytic gradients.

Criterion 1 and the engine and model tests compare exact meta-gradients and
model gradients against it. It reads only f's values, so it shares no code
with what it checks.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from treemaml.numerics import NumericalError


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    Evaluates f at x +- h*e_i per coordinate. Raises NumericalError if any
    evaluation is non-finite.
    """
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    base = np.asarray(x, dtype=np.float64)
    grad = np.empty(base.shape[0])
    for i in range(base.shape[0]):
        bumped = base.copy()
        bumped[i] = base[i] + h
        fp = float(f(bumped))
        bumped[i] = base[i] - h
        fm = float(f(bumped))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericalError(f"non-finite f at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad
