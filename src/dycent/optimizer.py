"""The angle-probed optimizer.

One step works on triangle geometry: from the current point, walk a small
fixed distance h along a random direction perpendicular to the (negative)
gradient g1, measure the angle theta between g1 and the negative gradient
g2 at the probe point, and step d = h * cot(theta) along normalized g1 —
the estimated distance to the point where the two gradient lines meet.
A small epsilon is added to theta so cot stays bounded, and an EMA of past
step sizes doubles any step that falls below its running average.

Given a Lipschitz constant L of the gradient, the same step runs in the
constrained mode the descent bound is proved for: the probe distance is
0.01 * ||g1|| / L and the step is h * cot(theta) with h at its cap
||g1|| * tan(theta) / L, so every step is ||g1|| / L long, with no EMA or
doubling.

Every driver runs in run_loop, one flat loop over a lazy sequence of step
callables whose length is the run's budget: theory.run_constrained hands it
dycent_step with lipschitz set, and the harness's epoch mode one step per
batch, each pinning its own batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .objective import Objective
from .vecmath import (
    ParamVector,
    RngHandle,
    ZeroGradientError,
    angle_between,
    norm,
    sample_perpendicular,
)

D_AVG_INIT_MODES = ("first_step", "zero")


class NonFiniteStepError(ArithmeticError):
    """A gradient, value or step size came out NaN/Inf; run_loop sets
    logged to the items logged before the step."""

    logged: list


@dataclass
class DycentConfig:
    """Hyperparameters of the angle-probed stepper.

    h: perpendicular probe distance (parameter-space units).
    beta: EMA decay for the average step size.
    epsilon: radians added to the measured angle to bound cot.
    enable_doubling: double steps that fall below the EMA.
    clamp_nonnegative_step: floor the step at 0 (off by default; cot can
        legitimately go negative when the angle exceeds 90 degrees).
    d_avg_init_mode: "first_step" seeds the EMA with the first step size
        (so the first step never doubles); "zero" starts the EMA at 0.
    """

    h: float = 1e-2
    beta: float = 0.9
    epsilon: float = 1e-8
    enable_doubling: bool = True
    clamp_nonnegative_step: bool = False
    d_avg_init_mode: str = "first_step"

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"h must be > 0, got {self.h}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.d_avg_init_mode not in D_AVG_INIT_MODES:
            raise ValueError(
                f"d_avg_init_mode must be one of {D_AVG_INIT_MODES}, got {self.d_avg_init_mode!r}"
            )


@dataclass
class DycentState:
    """Evolving state of one run: the step-size EMA and its RNG."""

    rng: RngHandle
    d_avg: float = 0.0
    step_count: int = 0


@dataclass
class StepTrace:
    """Record of one step; the probe gradient is not kept, and re-evaluating it at x2 re-checks the angle."""

    x1: ParamVector
    x_new: ParamVector  # x1 + d_used * g1 / ||g1||, the point dycent_step returns
    x2: ParamVector
    g1: ParamVector
    p1: ParamVector
    theta: float
    d_raw: float
    d_used: float
    doubled: bool
    f_after: float


def update_average(state: DycentState, cfg: DycentConfig, d: float) -> float:
    """Fold step size d into the EMA; first call may seed it, per config."""
    if cfg.d_avg_init_mode == "first_step" and state.step_count == 0:
        state.d_avg = d
    else:
        state.d_avg = cfg.beta * state.d_avg + (1.0 - cfg.beta) * d
    return state.d_avg


def maybe_double(d: float, d_avg: float, cfg: DycentConfig) -> tuple[float, bool]:
    """Double d when doubling is enabled and d fell strictly below the EMA."""
    if cfg.enable_doubling and d < d_avg:
        return 2.0 * d, True
    return d, False


def constrained_h(grad_norm: float, L: float, theta: float) -> float:
    """Largest probe distance admitted by the decrease bound: grad_norm * tan(theta) / L.

    Only meaningful for 0 < theta < pi/2; beyond that cot is nonpositive
    and the constraint is vacuous, which is flagged as an error.
    """
    if not L > 0:
        raise ValueError(f"L must be > 0, got {L}")
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError(
            f"constraint needs 0 < theta < pi/2 (cot > 0); got theta={theta}"
        )
    return grad_norm * math.tan(theta) / L


def dycent_step(
    x: ParamVector,
    obj: Objective,
    cfg: DycentConfig,
    state: DycentState,
    *,
    lipschitz: float | None = None,
) -> tuple[ParamVector, StepTrace]:
    """One angle-probed step from x; returns the new point and its trace.

    With lipschitz set the step runs in constrained mode (module docstring)
    and cfg.h and the EMA and doubling settings go unused.
    Raises ZeroGradientError at stationary points (the caller decides
    whether to stop or perturb) and NonFiniteStepError if either gradient,
    the step size or f_after is not finite.
    """
    x1 = np.asarray(x, dtype=np.float64)
    g1 = -obj.gradient(x1)
    # each squared norm is formed once; norm() runs only where it overflowed, to rescale
    g1_sq = float(np.vdot(g1, g1))
    g1_norm = math.sqrt(g1_sq) if g1_sq < math.inf else norm(g1)
    if g1_norm == 0.0:
        raise ZeroGradientError("stationary point: gradient vanished")
    if not math.isfinite(g1_norm):
        raise NonFiniteStepError(f"gradient is not finite (norm {g1_norm})")

    h = cfg.h if lipschitz is None else 0.01 * g1_norm / lipschitz
    p1 = sample_perpendicular(g1, state.rng, g_norm=g1_norm)
    x2 = x1 - h * p1
    g2 = -obj.gradient(x2)
    g2_sq = float(np.vdot(g2, g2))
    g2_norm = math.sqrt(g2_sq) if g2_sq < math.inf else norm(g2)
    if not math.isfinite(g2_norm):
        raise NonFiniteStepError(f"probe gradient is not finite (norm {g2_norm})")

    theta = angle_between(g1, g2, a_sq=g1_sq, b_sq=g2_sq) + cfg.epsilon
    tan_theta = math.tan(theta)
    d_raw = h / tan_theta
    if not math.isfinite(d_raw):
        raise NonFiniteStepError(f"step size h*cot(theta) is not finite at theta={theta}")

    if lipschitz is None:
        d_avg = update_average(state, cfg, d_raw)
        d_used, doubled = maybe_double(d_raw, d_avg, cfg)
    else:
        d_used, doubled = constrained_h(g1_norm, lipschitz, theta) * (1.0 / tan_theta), False
    if cfg.clamp_nonnegative_step:
        d_used = max(d_used, 0.0)

    x_new = x1 + d_used * g1 / g1_norm
    state.step_count += 1
    f_after = obj.value(x_new)
    if not math.isfinite(f_after):
        raise NonFiniteStepError(f"value at the new point is not finite ({f_after})")

    trace = StepTrace(
        x1=x1.copy(),
        x_new=x_new,
        x2=x2,
        g1=g1,
        p1=p1,
        theta=theta,
        d_raw=d_raw,
        d_used=d_used,
        doubled=doubled,
        f_after=f_after,
    )
    return x_new, trace


def run_loop(x0: ParamVector, steps) -> tuple[list, str | None, ParamVector]:
    """The run loop every driver shares; returns the logged items, the stop reason and the last point.

    steps is an iterable, lazy and of any length, of step(i, x) callables
    that return (x_new, item); the loop takes each in turn from x0. A
    ZeroGradientError ends the run as "zero_gradient_start" before any
    item, "stationary_point" after. A NonFiniteStepError propagates with
    its logged set to the items so far.
    """
    x = np.asarray(x0, dtype=np.float64)
    items: list = []
    for step in steps:
        try:
            x, item = step(len(items), x)
        except ZeroGradientError:
            return items, "stationary_point" if items else "zero_gradient_start", x
        except NonFiniteStepError as exc:
            exc.logged = items
            raise
        items.append(item)
    return items, None, x
