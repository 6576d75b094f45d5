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
from .optimizer import NonFiniteStepError
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

# Momentum, the moment decays and the denominator floor, at their published defaults.
MOMENTUM = 0.9
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# A 0-d float64 array as an operand skips the conversion numpy makes of a
# Python float on every array operation; the IEEE operation, and so the bits,
# are the same.
_ONE = np.array(1.0)
_HALF = np.array(0.5)
_MOMENTUM = np.array(MOMENTUM)
_BETA1, _ONE_MINUS_BETA1 = np.array(BETA1), np.array(1.0 - BETA1)
_BETA2, _ONE_MINUS_BETA2 = np.array(BETA2), np.array(1.0 - BETA2)
_EPS = np.array(EPS)


@dataclass(frozen=True)
class BaselineConfig:
    """The method and its learning rate; the other settings are the module constants.

    Frozen, so the 0-d lr built from the field cannot go stale: a different
    config is built with dataclasses.replace, which builds it anew.
    """

    method: str = "sgd"
    lr: float = 1e-3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {METHODS}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be > 0 and finite, got {self.lr}")
        object.__setattr__(self, "_lr", np.array(self.lr, dtype=np.float64))


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
    with np.errstate(divide="ignore"):  # 1 + prev*g == 0: perpendicular lines, tan = inf, theta = 90 deg
        tan_theta = np.abs((prev_grad - grad) / (_ONE + prev_grad * grad))
    # theta lies in [0, fl(pi/2)], where cos and tan are >= +0, so |cos| and |tan| need no abs;
    # a NaN theta gives a NaN coefficient, and the step's value check stops the run before its record
    theta = np.arctan(tan_theta)
    if flavor == "cos":
        return _HALF * np.tanh(np.cos(theta)) + _HALF
    return _HALF * np.tanh(np.tan(theta)) + _HALF


def friction_coefficient(prev_grad: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """diffGrad's elementwise sigmoid of the gradient change, in (0, 1)."""
    return _ONE / (_ONE + np.exp(-np.abs(prev_grad - grad)))


def baseline_step(x: ParamVector, g: ParamVector, cfg: BaselineConfig, state: BaselineState) -> ParamVector:
    """One canonical update of the configured method from x, g being the objective's gradient at x; deterministic.
    A gradient or a state of another shape than x raises DimensionError before the state changes."""
    x = np.asarray(x, dtype=np.float64)
    if state.m.shape != x.shape:
        raise DimensionError(f"state dimension {state.m.shape} != parameter dimension {x.shape}")
    if g.shape != x.shape:
        raise DimensionError(f"gradient dimension {g.shape} != parameter dimension {x.shape}")
    t = state.step_count + 1
    lr = cfg._lr

    if cfg.method == "sgd":
        x_new = x - lr * g
    elif cfg.method == "sgdm":
        state.m = _MOMENTUM * state.m + g
        x_new = x - lr * state.m
    elif cfg.method == "rmsprop":
        state.v = _BETA2 * state.v + _ONE_MINUS_BETA2 * g * g
        x_new = x - lr * g / (np.sqrt(state.v) + _EPS)
    elif cfg.method in _ADAM_FAMILY:
        state.m = _BETA1 * state.m + _ONE_MINUS_BETA1 * g
        if cfg.method == "adabelief":
            diff = g - state.m
            state.v = _BETA2 * state.v + _ONE_MINUS_BETA2 * diff * diff + _EPS
        else:
            state.v = _BETA2 * state.v + _ONE_MINUS_BETA2 * g * g
        # the bias corrections change every step, so they stay Python floats
        m_hat = state.m / (1.0 - BETA1**t)
        v_hat = state.v / (1.0 - BETA2**t)
        step = lr * m_hat / (np.sqrt(v_hat) + _EPS)
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
    new value that is not finite raises NonFiniteStepError.

    A step whose new point has the bytes of its start evaluates nothing new:
    its value is the one the step before recorded, and the next step, if it
    starts on the point returned, takes the gradient and its norm this step
    already holds. Byte equality tells 0.0 from -0.0. The records are those
    of evaluating at every step, for as long as obj does not change; a caller
    that changes it between steps, as an epoch pins a batch, builds a new
    stepper for each.
    """
    # carry[0]: (point returned, its value, its (gradient, norm) if the step did not move)
    carry = [None]

    def step(x):
        start = carry[0] if carry[0] is not None and carry[0][0] is x else None
        if start is not None and start[2] is not None:
            g, grad_norm = start[2]
        else:
            g = obj.gradient(x)
            grad_norm = norm(g)
            if grad_norm == 0.0:
                raise ZeroGradientError("stationary point: gradient vanished", g)
            if not math.isfinite(grad_norm):
                raise NonFiniteStepError(f"gradient is not finite (norm {grad_norm})")
        x_new = baseline_step(x, g, cfg, state)
        unmoved = x_new.tobytes() == x.tobytes()
        if unmoved and start is not None:
            f_new = start[1]
        else:
            f_new = obj.value(x_new)
            if not math.isfinite(f_new):
                raise NonFiniteStepError(f"value at the new point is not finite ({f_new})")
        carry[0] = (x_new, f_new, (g, grad_norm) if unmoved else None)
        return x_new, TrajectoryRecord(f=f_new, grad_norm=grad_norm)

    return step
