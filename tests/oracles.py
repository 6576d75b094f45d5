"""Independent numerical oracles used by the tests, and the plain dycent run they check.

The oracles deliberately avoid the package's own gradient code paths so
the checks stay two-sided: analytic gradients are compared against
central finite differences computed here.
"""

import numpy as np

from dycent.objective import _TOY_B_LIMIT_R2
from dycent.optimizer import DycentState, dycent_step, run_loop


def dycent_run(x0, obj, cfg, max_iters, seed):
    """Up to max_iters dycent steps from x0 in run_loop; returns their traces.

    Stops early (without error) at a stationary point; a numerical
    failure propagates as NonFiniteStepError.
    """
    state = DycentState(rng=np.random.default_rng(seed))

    def step(i, x):
        return dycent_step(x, obj, cfg, state)

    return run_loop(x0, (step for _ in range(max_iters)))[0]


def numpy_toy_a():
    """toy_a's (value, gradient) in numpy scalar math: np.float64 coordinates and np.sin/np.cos.

    The package evaluates the 2-D surfaces on Python floats; these numpy
    formulations are the reference its bits are checked against.
    """

    def value(p):
        x, y = p
        return float(-(y * y) * np.sin(x))

    def grad(p):
        x, y = p
        return np.array([-(y * y) * np.cos(x), -2.0 * y * np.sin(x)])

    return value, grad


def numpy_toy_b():
    """toy_b's (value, gradient) in numpy scalar math, origin patch included."""

    def value(p):
        u = float(p @ p)
        if u < _TOY_B_LIMIT_R2:
            return -1.0
        return float(-np.sin(u) / u)

    def grad(p):
        u = float(p @ p)
        if u < _TOY_B_LIMIT_R2:
            return np.zeros(2)
        dfdu = (np.sin(u) - u * np.cos(u)) / (u * u)
        return dfdu * 2.0 * p

    return value, grad


def central_diff_gradient(value_fn, x, step=1e-6):
    """Central-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        grad[j] = (value_fn(xp) - value_fn(xm)) / (2.0 * step)
    return grad


def relative_error(approx, exact):
    """Max elementwise error of approx vs exact, relative to the gradient scale."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    scale = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.max(np.abs(approx - exact))) / scale
