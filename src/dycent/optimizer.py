"""The angle-probed optimizer.

One step works on triangle geometry: from the current point, walk a small
fixed distance h along a random direction perpendicular to the (negative)
gradient g1, measure the angle theta between g1 and the negative gradient
g2 at the probe point, and step d = h * cot(theta) along normalized g1 —
the estimated distance to the point where the two gradient lines meet.
A small epsilon is added to theta so cot stays bounded, and a step that
falls below the EMA of past step sizes (decay BETA) is doubled.

Given a Lipschitz constant L of the gradient, the same step runs in the
constrained mode the descent bound is proved for. The proof caps h at
||g1|| * tan(theta) / L and steps h * cot(theta), so theta cancels: every
step is ||g1|| / L long, taken as that quotient, with no EMA or doubling.
The probe still runs, at distance 0.01 * ||g1|| / L, and its theta, p1,
x2 and d_raw are recorded in the trace, but the step does not read them.

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

BETA = 0.9  # decay of the EMA of step sizes; a step below the EMA is doubled


class NonFiniteStepError(ArithmeticError):
    """A gradient, value or step size came out NaN/Inf."""


@dataclass(frozen=True)
class DycentConfig:
    """Hyperparameters of the angle-probed stepper.

    Frozen, so a config shared between runs (theory.CONSTRAINED_CONFIG is
    read by every constrained run) cannot be changed under them; a
    different config is built with dataclasses.replace.

    h: perpendicular probe distance (parameter-space units).
    epsilon: radians added to the measured angle to bound cot.
    """

    h: float = 1e-2
    epsilon: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"h must be > 0 and finite, got {self.h}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be > 0 and finite, got {self.epsilon}")


@dataclass
class DycentState:
    """Evolving state of one run: the step-size EMA (None until the first step seeds it) and its RNG."""

    rng: RngHandle
    d_avg: float | None = None


@dataclass(slots=True)
class StepTrace:
    """Record of one step; the probe gradient is not kept, and re-evaluating it at x2 re-checks the angle.

    x1 is np.asarray(x) of the x dycent_step was passed, not a copy, so in
    run_loop step k+1's x1 is the very array step k returned as x_new.
    """

    x1: ParamVector
    x_new: ParamVector  # x1 + d_used * g1 / ||g1||, the point dycent_step returns
    x2: ParamVector
    g1: ParamVector
    g1_norm: float  # ||g1||, as norm(g1) gives it
    p1: ParamVector
    theta: float
    d_raw: float
    d_used: float
    doubled: bool
    f_after: float


def update_average(state: DycentState, d: float) -> float:
    """Fold step size d into the EMA at decay BETA; the first step seeds it, so that step never doubles."""
    state.d_avg = d if state.d_avg is None else BETA * state.d_avg + (1.0 - BETA) * d
    return state.d_avg


def maybe_double(d: float, d_avg: float) -> tuple[float, bool]:
    """Double d when it fell strictly below the EMA."""
    if d < d_avg:
        return 2.0 * d, True
    return d, False


def dycent_step(
    x: ParamVector,
    obj: Objective,
    cfg: DycentConfig,
    state: DycentState,
    *,
    lipschitz: float | None = None,
) -> tuple[ParamVector, StepTrace]:
    """One angle-probed step from x; returns the new point and its trace.

    With lipschitz set the step runs in constrained mode (module docstring):
    d_used is ||g1|| / lipschitz, and cfg.h, the EMA and doubling go
    unused. A lipschitz that is not finite and > 0 raises ValueError
    before any evaluation.
    Raises ZeroGradientError at stationary points, holding the gradient
    taken at x (the caller decides whether to stop or perturb), and
    NonFiniteStepError if either gradient, the step size or f_after is not
    finite.

    The trace's x1 is np.asarray(x) as passed, not a copy: a float64 array
    x is kept itself, so it must not be changed in place while the trace
    is in use.
    """
    if lipschitz is not None and not 0.0 < lipschitz < math.inf:
        raise ValueError(f"lipschitz must be > 0 and finite, got {lipschitz}")
    x1 = np.asarray(x, dtype=np.float64)
    grad1 = obj.gradient(x1)
    g1 = -grad1
    # each squared norm is formed once; norm() runs only where it overflowed, to rescale
    g1_sq = float(np.vdot(g1, g1))
    g1_norm = math.sqrt(g1_sq) if g1_sq < math.inf else norm(g1)
    if g1_norm == 0.0:
        raise ZeroGradientError("stationary point: gradient vanished", grad1)
    if not math.isfinite(g1_norm):
        raise NonFiniteStepError(f"gradient is not finite (norm {g1_norm})")

    h = cfg.h if lipschitz is None else 0.01 * g1_norm / lipschitz
    p1 = sample_perpendicular(g1, state.rng, g_norm=g1_norm)
    x2 = x1 - h * p1
    # the angle of the two gradients is that of their negatives, bit for bit
    grad2 = obj.gradient(x2)
    g2_sq = float(np.vdot(grad2, grad2))
    g2_norm = math.sqrt(g2_sq) if g2_sq < math.inf else norm(grad2)
    if not math.isfinite(g2_norm):
        raise NonFiniteStepError(f"probe gradient is not finite (norm {g2_norm})")

    theta = angle_between(grad1, grad2, a_sq=g1_sq, b_sq=g2_sq) + cfg.epsilon
    d_raw = h / math.tan(theta)
    if not math.isfinite(d_raw):
        raise NonFiniteStepError(f"step size h*cot(theta) is not finite at theta={theta}")

    if lipschitz is None:
        d_avg = update_average(state, d_raw)
        d_used, doubled = maybe_double(d_raw, d_avg)
    else:
        d_used, doubled = g1_norm / lipschitz, False

    x_new = x1 + d_used * g1 / g1_norm
    f_after = obj.value(x_new)
    if not math.isfinite(f_after):
        raise NonFiniteStepError(f"value at the new point is not finite ({f_after})")

    trace = StepTrace(
        x1=x1,
        x_new=x_new,
        x2=x2,
        g1=g1,
        g1_norm=g1_norm,
        p1=p1,
        theta=theta,
        d_raw=d_raw,
        d_used=d_used,
        doubled=doubled,
        f_after=f_after,
    )
    return x_new, trace


def run_loop(x0: ParamVector, steps) -> tuple[list, ZeroGradientError | NonFiniteStepError | None, ParamVector]:
    """The run loop every driver shares; returns the items, the error that stopped the run and the last point.

    steps is an iterable, lazy and of any length, of step(x) callables that
    return (x_new, item); the loop takes each in turn from x0 and keeps one
    item per step, so an item's index in the list is its step's number. The
    stop is None when the steps ran out, else the ZeroGradientError or
    NonFiniteStepError a step raised, the same object with its traceback
    cleared: the traceback's frames would hold the run's state, and the
    callers' frames that hold the stop, in a cycle that only the cyclic GC
    frees. The items are those of the steps before it, and the caller
    decides what the stop means. x0 is copied once, so a later change to the
    caller's array does not reach the items; each step then starts on the
    very array the step before returned.
    """
    x = np.array(x0, dtype=np.float64)
    items: list = []
    for step in steps:
        try:
            x, item = step(x)
        except (ZeroGradientError, NonFiniteStepError) as stop:
            return items, stop.with_traceback(None), x
        items.append(item)
    return items, None, x
