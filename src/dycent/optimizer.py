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
"""

import math
from dataclasses import dataclass

import numpy as np

from .objective import BatchContext, Objective
from .vecmath import (
    ParamVector,
    RngHandle,
    ZeroGradientError,
    angle_between,
    make_rng,
    norm,
    sample_perpendicular,
)

D_AVG_INIT_MODES = ("first_step", "zero")


class NonFiniteStepError(ArithmeticError):
    """A gradient, value or step size came out NaN/Inf; carries the partial
    trace, and run_loop sets logged to the items logged before the step."""

    def __init__(self, message: str, trace: "StepTrace | None" = None):
        super().__init__(message)
        self.trace = trace
        self.logged: list = []


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

    @classmethod
    def from_seed(cls, seed: int) -> "DycentState":
        return cls(rng=make_rng(seed))


@dataclass
class StepTrace:
    """Full record of one step, sufficient to re-check its geometry."""

    x1: ParamVector
    x2: ParamVector
    g1: ParamVector
    g2: ParamVector
    p1: ParamVector
    theta: float
    d_raw: float
    d_used: float
    doubled: bool
    f_before: float
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
    f_before: float | None = None,
    lipschitz: float | None = None,
) -> tuple[ParamVector, StepTrace]:
    """One angle-probed step from x; returns the new point and its trace.

    f_before is obj's value at x if the caller knows it; None evaluates it.
    With lipschitz set the step runs in constrained mode (module docstring)
    and cfg.h and the EMA and doubling settings go unused.
    Raises ZeroGradientError at stationary points (the caller decides
    whether to stop or perturb) and NonFiniteStepError, with the trace so
    far, if either gradient, the step size or f_after is not finite.
    """
    x1 = np.asarray(x, dtype=np.float64)
    g1 = -obj.gradient(x1)
    g1_norm = norm(g1)
    if g1_norm == 0.0:
        raise ZeroGradientError("stationary point: gradient vanished")
    if f_before is None:
        f_before = obj.value(x1)
    if not math.isfinite(g1_norm):
        nan = np.full_like(x1, math.nan)
        trace = StepTrace(x1, nan, g1, nan, nan, math.nan, math.nan, math.nan, False, f_before, math.nan)
        raise NonFiniteStepError(f"gradient is not finite (norm {g1_norm})", trace)

    h = cfg.h if lipschitz is None else 0.01 * g1_norm / lipschitz
    p1 = sample_perpendicular(g1, state.rng)
    x2 = x1 - h * p1
    g2 = -obj.gradient(x2)
    g2_norm = norm(g2)
    if not math.isfinite(g2_norm):
        trace = StepTrace(x1, x2, g1, g2, p1, math.nan, math.nan, math.nan, False, f_before, math.nan)
        raise NonFiniteStepError(f"probe gradient is not finite (norm {g2_norm})", trace)

    theta = angle_between(g1, g2) + cfg.epsilon
    d_raw = h / math.tan(theta)
    if not math.isfinite(d_raw):
        trace = StepTrace(x1, x2, g1, g2, p1, theta, d_raw, d_raw, False, f_before, math.nan)
        raise NonFiniteStepError(f"step size h*cot(theta) is not finite at theta={theta}", trace)

    if lipschitz is None:
        d_avg = update_average(state, cfg, d_raw)
        d_used, doubled = maybe_double(d_raw, d_avg, cfg)
    else:
        d_used, doubled = constrained_h(g1_norm, lipschitz, theta) * (1.0 / math.tan(theta)), False
    if cfg.clamp_nonnegative_step:
        d_used = max(d_used, 0.0)

    x_new = x1 + d_used * g1 / g1_norm
    state.step_count += 1

    trace = StepTrace(
        x1=x1.copy(),
        x2=x2,
        g1=g1,
        g2=g2,
        p1=p1,
        theta=theta,
        d_raw=d_raw,
        d_used=d_used,
        doubled=doubled,
        f_before=f_before,
        f_after=obj.value(x_new),
    )
    if not math.isfinite(trace.f_after):
        raise NonFiniteStepError(f"value at the new point is not finite ({trace.f_after})", trace)
    return x_new, trace


def run_loop(x0: ParamVector, obj: Objective, schedule, end_epoch=None) -> tuple[list, str | None]:
    """The run loop every driver shares; returns the logged items and the stop reason.

    schedule yields one (step, batches) pair per epoch; a batch is a row
    index array to pin on obj, or None (a deterministic run is one epoch
    of None batches). step(i, x, f) returns (x_new, f_new, item); f is the
    previous f_new, None at the start and after a batch change. end_epoch(x,
    items) runs after each epoch. A ZeroGradientError ends the run as
    "zero_gradient_start" before any item, "stationary_point" after. A
    NonFiniteStepError propagates with its logged set to the items so far.
    """
    x = np.asarray(x0, dtype=np.float64)
    f = None
    items: list = []
    reason = None
    for step, batches in schedule:
        for batch in batches:
            if batch is not None:
                obj.set_batch(BatchContext(batch))
                f = None
            try:
                x, f, item = step(len(items), x, f)
            except ZeroGradientError:
                reason = "stationary_point" if items else "zero_gradient_start"
                break
            except NonFiniteStepError as exc:
                exc.logged = items
                raise
            items.append(item)
        if end_epoch is not None:
            end_epoch(x, items)
        if reason:
            break
    return items, reason


def dycent_stepper(
    obj: Objective, cfg: DycentConfig, state: DycentState, log=lambda i, trace: trace, lipschitz: float | None = None
):
    """dycent_step as a run_loop step; log(i, trace) makes the logged item."""

    def step(i, x, f):
        x_new, trace = dycent_step(x, obj, cfg, state, f, lipschitz)
        return x_new, trace.f_after, log(i, trace)

    return step


def run(
    x0: ParamVector,
    obj: Objective,
    cfg: DycentConfig,
    max_iters: int,
    seed: int,
    lipschitz: float | None = None,
) -> list[StepTrace]:
    """Iterate dycent_step up to max_iters times from x0.

    Stops early (without error) when a stationary point is reached;
    numerical failures propagate with the offending trace attached.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    step = dycent_stepper(obj, cfg, DycentState.from_seed(seed), lipschitz=lipschitz)
    return run_loop(x0, obj, [(step, [None] * max_iters)])[0]
