"""Independent numerical oracles used by the tests, and the plain dycent run they check.

The oracles deliberately avoid the package's own gradient code paths so
the checks stay two-sided: analytic gradients are compared against
central finite differences computed here. The reference forms (numpy
scalar math for the toy surfaces, the @ operator for the quadratics and
the MLP, a per-step loop for each theory check, a cell-by-cell CSV row,
baseline updates with Python-float constants, a baseline run that
evaluates at every step, the MLP's own-label entries picked by a (row,
label) index) are the plain formulations whose bits the package's faster
code must reproduce.
"""

import math

import numpy as np

from dycent.baselines import BaselineState
from dycent.mlmodels import CLASSES, FEATURES, MlpObjective
from dycent.objective import _TOY_B_LIMIT_R2
from dycent.optimizer import DycentState, NonFiniteStepError, dycent_step, run_loop
from dycent.records import CSV_COLUMNS, TrajectoryRecord, csv_cell
from dycent.theory import DescentReport, WolfeReport
from dycent.vecmath import norm


def dycent_run(x0, obj, cfg, max_iters, seed):
    """Up to max_iters dycent steps from x0 in run_loop; returns their traces.

    Stops early (without error) at a stationary point; a numerical
    failure raises the NonFiniteStepError run_loop returns.
    """
    state = DycentState(rng=np.random.default_rng(seed))

    def step(x):
        return dycent_step(x, obj, cfg, state)

    traces, stop, _ = run_loop(x0, (step for _ in range(max_iters)))
    if isinstance(stop, NonFiniteStepError):
        raise stop
    return traces


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


def matmul_quadratic(a):
    """The quadratic's (value, gradient) as the @ operator forms them: x^T A x / 2
    and A x, or ||x||^2 / 2 and x where a is None.

    The package evaluates the quadratics with ndarray.dot; this is the
    reference its bits are checked against.
    """
    if a is None:
        return (lambda x: 0.5 * float(x @ x)), (lambda x: x.copy())
    return (lambda x: 0.5 * float(x @ (a @ x))), (lambda x: a @ x)


def scalar_check_descent(trajectory, f_before, L, tol=1e-10):
    """theory.check_descent as a loop over the steps, one np.dot per step."""
    violations = 0
    min_margin = math.inf
    for tr, f1 in zip(trajectory, f_before, strict=True):
        grad_sq = float(np.dot(tr.g1, tr.g1))
        margin = (f1 - tr.f_after) - grad_sq / (2.0 * L)
        if not margin >= -tol:  # a NaN margin is a violation too
            violations += 1
        min_margin = min(min_margin, margin)
    return DescentReport(violations=violations, min_decrease_margin=min_margin)


def scalar_wolfe_report(trajectory, f_before, obj, c1, c2=0.9):
    """theory.wolfe_report as a loop over the steps, one np.dot per product."""
    if not 0.0 < c1 < c2 < 1.0:
        raise ValueError(f"need 0 < c1 < c2 < 1, got c1={c1}, c2={c2}")
    report = WolfeReport(armijo_pass=[], curvature_pass=[])
    for tr, f1, nxt in zip(trajectory, f_before, [*trajectory[1:], None], strict=True):
        grad_sq = float(np.dot(tr.g1, tr.g1))
        if nxt is not None and nxt.x1.tobytes() == tr.x_new.tobytes():
            g_new = -nxt.g1
        else:
            g_new = obj.gradient(tr.x_new)
        report.armijo_pass.append(tr.f_after <= f1 - c1 * tr.d_used * grad_sq)
        report.curvature_pass.append(abs(float(np.dot(g_new, tr.g1))) <= c2 * grad_sq)
    return report


def csv_row_by_cell(record, i):
    """record's trajectory CSV row at index i, one csv_cell per column: the reference
    for TrajectoryRecord.csv_row, which formats the row in one f-string."""
    return ",".join([csv_cell(i)] + [csv_cell(getattr(record, c)) for c in CSV_COLUMNS[1:]])


def python_float_baseline_step(x, g, cfg, state):
    """One baseline update with Python floats as array operands: the config's
    lr, and the published defaults written out here (momentum 0.9, beta1 0.9,
    beta2 0.999, eps 1e-8). The reference for baseline_step, which reads 0-d
    arrays: module constants and an lr built once per config."""
    momentum, beta1, beta2, eps = 0.9, 0.9, 0.999, 1e-8
    x = np.asarray(x, dtype=np.float64)
    t = state.step_count + 1

    if cfg.method == "sgd":
        x_new = x - cfg.lr * g
    elif cfg.method == "sgdm":
        state.m = momentum * state.m + g
        x_new = x - cfg.lr * state.m
    elif cfg.method == "rmsprop":
        state.v = beta2 * state.v + (1.0 - beta2) * g * g
        x_new = x - cfg.lr * g / (np.sqrt(state.v) + eps)
    else:  # the Adam family
        state.m = beta1 * state.m + (1.0 - beta1) * g
        if cfg.method == "adabelief":
            diff = g - state.m
            state.v = beta2 * state.v + (1.0 - beta2) * diff * diff + eps
        else:
            state.v = beta2 * state.v + (1.0 - beta2) * g * g
        m_hat = state.m / (1.0 - beta1**t)
        v_hat = state.v / (1.0 - beta2**t)
        step = cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
        prev = state.prev_grad
        if cfg.method == "diffgrad":
            step = 1.0 / (1.0 + np.exp(-np.abs(prev - g))) * step
        elif cfg.method.startswith("angulargrad_"):
            with np.errstate(divide="ignore"):  # 1 + prev*g == 0: tan = inf, theta = 90 deg
                theta = np.arctan(np.abs((prev - g) / (1.0 + prev * g)))
            trig = np.cos if cfg.method == "angulargrad_cos" else np.tan
            step = (0.5 * np.tanh(np.abs(trig(theta))) + 0.5) * step
        x_new = x - step

    state.prev_grad = g
    state.step_count = t
    return x_new


def every_step_baseline_run(x0, obj, cfg, max_iters):
    """Up to max_iters baseline updates from x0, each evaluating the gradient
    at its start and the value where it lands, even where the update leaves
    the point's bytes as they were; returns the records a run logs.

    Stops at a vanishing gradient, as a run does; the reference for the
    baseline stepper, which evaluates nothing at a point it did not leave.
    """
    state = BaselineState.zeros(len(x0))
    x = np.array(x0, dtype=np.float64)
    records = []
    for _ in range(max_iters):
        g = obj.gradient(x)
        if norm(g) == 0.0:
            break
        x = python_float_baseline_step(x, g, cfg, state)
        records.append(TrajectoryRecord(f=obj.value(x), grad_norm=norm(g)))
    return records


class PickMlpObjective(MlpObjective):
    """MlpObjective in its first formulation: the rows pinned by a fancy
    index, offsets summed in each unpack, the products by the @ operator
    and ReLU against a Python float, each row's own-label entry read and
    decremented through a (row, label) fancy index, and the class-axis max,
    the class and bias sums, the mean and the bounds check by the ndarray
    methods. Each pin, of a range of a vector too, indexes the dataset
    afresh. It inherits __init__, clear_batch, which pins every row through
    this class's set_batch, and predict, whose forward pass is this
    class's own, so accuracy too is checked against @."""

    def set_batch(self, ctx):
        idx = ctx.batch_indices
        if idx.min() < 0 or idx.max() >= len(self.data):
            raise ValueError("batch indices out of dataset bounds")
        self._pin(self.data.features[idx], self.data.labels[idx])

    def _pin(self, rows, labels):
        self._rows = rows
        self._pick = (np.arange(len(labels)), labels)
        self._memo_key = None
        self._memo = ()

    def _unpack(self, params):
        h = self.spec.hidden_dim
        i = 0
        w1 = params[i : i + FEATURES * h].reshape(FEATURES, h)
        i += FEATURES * h
        b1 = params[i : i + h]
        i += h
        w2 = params[i : i + h * CLASSES].reshape(h, CLASSES)
        i += h * CLASSES
        b2 = params[i : i + CLASSES]
        return w1, b1, w2, b2

    def _forward(self, unpacked, x):
        w1, b1, w2, b2 = unpacked
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0)
        return z1, a1, a1 @ w2 + b2

    def _pinned_pass(self, x, unpacked=None):
        key = x.tobytes()
        if key != self._memo_key:
            z1, a1, logits = self._forward(unpacked or self._unpack(x), self._rows)
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            self._memo = z1, a1, shifted, e, e.sum(axis=1, keepdims=True)
            self._memo_key = key
        return self._memo

    def value(self, x):
        _, _, shifted, _, sums = self._pinned_pass(self._check_dim(x))
        picked = shifted[self._pick] - np.log(sums[:, 0])
        return float(-(picked.sum() / picked.size))

    def gradient(self, x):
        x = self._check_dim(x)
        unpacked = self._unpack(x)
        z1, a1, _, e, sums = self._pinned_pass(x, unpacked)
        dlogits = e / sums
        dlogits[self._pick] -= 1.0
        dlogits /= len(dlogits)
        gw2 = a1.T @ dlogits
        gb2 = dlogits.sum(axis=0)
        da1 = dlogits @ unpacked[2].T
        dz1 = da1 * (z1 > 0.0)
        gw1 = self._rows.T @ dz1
        gb1 = dz1.sum(axis=0)
        return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


def mean_accuracy(obj, params):
    """accuracy() as the mean of a bool array."""
    return float(np.mean(obj.predict(params, obj.data.features) == obj.data.labels))


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
