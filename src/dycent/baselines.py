"""The comparison optimizers, behind one step interface.

Update rules follow the canonical published formulations:

  sgd               x -= lr * g
  sgdm              v = mu*v + g;  x -= lr * v
  rmsprop           s = b2*s + (1-b2)*g^2;  x -= lr * g / (sqrt(s) + eps)
  adam              m, v EMAs with bias correction; x -= lr * m^ / (sqrt(v^) + eps)
  adabelief         like adam but v tracks (g - m)^2 + eps
  diffgrad          adam scaled by sigmoid(|g_prev - g|), elementwise
  angulargrad_cos   adam scaled by 0.5*tanh(|cos theta|) + 0.5, theta the
                    elementwise angle between successive gradients
  angulargrad_tan   same with 0.5*tanh(|tan theta|) + 0.5
"""

import math
from dataclasses import dataclass

import numpy as np

from .objective import Objective
from .optimizer import NonFiniteStepError, run_loop
from .records import TrajectoryRecord
from .vecmath import DimensionError, ParamVector, ZeroGradientError, norm

METHODS = (
    "sgd",
    "sgdm",
    "adam",
    "rmsprop",
    "adabelief",
    "diffgrad",
    "angulargrad_cos",
    "angulargrad_tan",
)

_ADAM_FAMILY = ("adam", "adabelief", "diffgrad", "angulargrad_cos", "angulargrad_tan")


@dataclass
class BaselineConfig:
    """Hyperparameters; only the fields the chosen method uses are consulted."""

    method: str = "sgd"
    lr: float = 1e-3
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {METHODS}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {self.beta2}")
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


@dataclass
class BaselineState:
    """Accumulators; zero-initialized, lengths equal the parameter dimension."""

    m: np.ndarray
    v: np.ndarray
    prev_grad: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "BaselineState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), prev_grad=np.zeros(dim))


def angular_coefficient(prev_grad: np.ndarray, grad: np.ndarray, flavor: str) -> np.ndarray:
    """Elementwise tanh-squashed coefficient from the angle between
    successive gradient components, treated as slopes of two lines."""
    tan_theta = np.abs((prev_grad - grad) / (1.0 + prev_grad * grad))
    theta = np.arctan(tan_theta)
    if flavor == "cos":
        return 0.5 * np.tanh(np.abs(np.cos(theta))) + 0.5
    return 0.5 * np.tanh(np.abs(np.tan(theta))) + 0.5


def friction_coefficient(prev_grad: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """diffGrad's elementwise sigmoid of the gradient change, in (0, 1)."""
    return 1.0 / (1.0 + np.exp(-np.abs(prev_grad - grad)))


def baseline_step(
    x: ParamVector, obj: Objective, cfg: BaselineConfig, state: BaselineState, g: ParamVector | None = None
) -> ParamVector:
    """One canonical update of the configured method; deterministic. g is obj's gradient at x, if known."""
    x = np.asarray(x, dtype=np.float64)
    if state.m.shape != x.shape:
        raise DimensionError(f"state dimension {state.m.shape} != parameter dimension {x.shape}")
    if g is None:
        g = obj.gradient(x)
    t = state.step_count + 1

    if cfg.method == "sgd":
        x_new = x - cfg.lr * g
    elif cfg.method == "sgdm":
        state.m = cfg.momentum * state.m + g
        x_new = x - cfg.lr * state.m
    elif cfg.method == "rmsprop":
        state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
        x_new = x - cfg.lr * g / (np.sqrt(state.v) + cfg.eps)
    elif cfg.method in _ADAM_FAMILY:
        state.m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
        if cfg.method == "adabelief":
            diff = g - state.m
            state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * diff * diff + cfg.eps
        else:
            state.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
        m_hat = state.m / (1.0 - cfg.beta1**t)
        v_hat = state.v / (1.0 - cfg.beta2**t)
        step = cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        if cfg.method == "diffgrad":
            step = friction_coefficient(state.prev_grad, g) * step
        elif cfg.method == "angulargrad_cos":
            step = angular_coefficient(state.prev_grad, g, "cos") * step
        elif cfg.method == "angulargrad_tan":
            step = angular_coefficient(state.prev_grad, g, "tan") * step
        x_new = x - step
    else:  # pragma: no cover - guarded by config validation
        raise ValueError(f"unknown method {cfg.method!r}")

    state.prev_grad = g
    state.step_count = t
    return x_new


def baseline_stepper(obj: Objective, cfg: BaselineConfig, state: BaselineState):
    """baseline_step as a run_loop step that logs a TrajectoryRecord; the
    gradient of the stop check is the one the update uses. A gradient or a
    new value that is not finite raises NonFiniteStepError."""

    def step(i, x, f):
        g = obj.gradient(x)
        grad_norm = norm(g)
        if grad_norm == 0.0:
            raise ZeroGradientError("stationary point: gradient vanished")
        if not math.isfinite(grad_norm):
            raise NonFiniteStepError(f"gradient is not finite (norm {grad_norm})")
        x_new = baseline_step(x, obj, cfg, state, g)
        f_new = obj.value(x_new)
        if not math.isfinite(f_new):
            raise NonFiniteStepError(f"value at the new point is not finite ({f_new})")
        return x_new, f_new, TrajectoryRecord(iter=i, f=f_new, grad_norm=grad_norm)

    return step


def run_baseline(
    x0: ParamVector,
    obj: Objective,
    cfg: BaselineConfig,
    max_iters: int,
) -> list[TrajectoryRecord]:
    """Iterate baseline_step from x0, logging one record per iteration.

    Stops early at an exactly stationary point, and raises
    NonFiniteStepError where a gradient or value is not finite.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    step = baseline_stepper(obj, cfg, BaselineState.zeros(np.size(x0)))
    return run_loop(x0, obj, [(step, [None] * max_iters)])[0]

