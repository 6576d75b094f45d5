"""Executable checks of the stepper's descent guarantee and the Wolfe
conditions, and the constrained-mode runs they are proved for.

For L-smooth convex objectives, capping the probe distance at
h <= ||grad|| / (L * cot(theta)) makes the step d = h * cot(theta) exactly
||grad|| / L long, which guarantees a per-step decrease of at least
||grad||^2 / (2L) and the sufficient-decrease (Armijo) condition with
c1 = 1/(2L). The curvature condition carries no such guarantee; it is
measured and reported, never asserted. The constrained step itself is
optimizer.dycent_step with lipschitz set; run_constrained is run_loop over
a lazy sequence of max_iters of them, so no budget is built up front.
Since theta cancels, that step is gradient descent with step 1/L up to
rounding, and both guarantees are that method's textbook ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import optimizer
from .objective import Objective
from .optimizer import StepTrace
from .vecmath import ParamVector

# The stepper settings of a constrained run: its probe distance and step come
# from L, so it reads only epsilon (and clamp_nonnegative_step, which is off).
CONSTRAINED_CONFIG = optimizer.DycentConfig(epsilon=1e-12)


@dataclass
class DescentReport:
    """Outcome of checking the per-step decrease bound over a trajectory."""

    violations: int
    min_decrease_margin: float


@dataclass
class WolfeReport:
    """Per-step sufficient-decrease and curvature outcomes for a trajectory."""

    armijo_pass: list[bool]
    curvature_pass: list[bool]


def check_descent(trajectory: list[StepTrace], f_before: list[float], L: float, tol: float = 1e-10) -> DescentReport:
    """Verify f(x_new) <= f_before[k] - ||grad||^2/(2L) + tol on every step k; f_before[k] is f(x1)."""
    violations = 0
    min_margin = math.inf
    for tr, f1 in zip(trajectory, f_before, strict=True):
        grad_sq = float(np.dot(tr.g1, tr.g1))
        margin = (f1 - tr.f_after) - grad_sq / (2.0 * L)
        if margin < -tol:
            violations += 1
        min_margin = min(min_margin, margin)
    return DescentReport(violations=violations, min_decrease_margin=min_margin)


def wolfe_report(
    trajectory: list[StepTrace], f_before: list[float], obj: Objective, c1: float, c2: float = 0.9
) -> WolfeReport:
    """Evaluate both Wolfe conditions on every step k of a trajectory; f_before[k] is f(x1).

    With descent direction p = -grad(x1) = g1, step k passes
    - sufficient decrease (Armijo) if f(x_new) <= f_before[k] - c1 * d_used * ||g1||^2,
      with d_used in the place of the step size. The step moves d_used along
      the unit vector g1/||g1||, so the textbook step size is
      alpha = d_used/||g1||, and this bound asks ||g1|| times the textbook
      decrease c1 * alpha * ||g1||^2: less where ||g1|| < 1, more where ||g1|| > 1;
    - curvature if |grad(x_new)^T p| <= c2 |grad(x1)^T p|, measured for reporting only.

    Both conditions are checked, so the constants must form a valid
    strong-Wolfe pair 0 < c1 < c2 < 1. The gradient at x_new is -g1 of the
    following step where that step starts at x_new bit for bit; otherwise obj
    evaluates it. So a consecutive trajectory costs one gradient evaluation,
    for its last step.
    """
    if not 0.0 < c1 < c2 < 1.0:
        raise ValueError(f"need 0 < c1 < c2 < 1, got c1={c1}, c2={c2}")
    report = WolfeReport(armijo_pass=[], curvature_pass=[])
    for tr, f1, nxt in zip(trajectory, f_before, [*trajectory[1:], None], strict=True):
        grad_sq = float(np.dot(tr.g1, tr.g1))
        # comparing bytes is the exact test and, unlike np.array_equal, cheaper
        # than an analytic gradient
        if nxt is not None and nxt.x1.tobytes() == tr.x_new.tobytes():
            g_new = -nxt.g1
        else:
            g_new = obj.gradient(tr.x_new)
        report.armijo_pass.append(tr.f_after <= f1 - c1 * tr.d_used * grad_sq)
        report.curvature_pass.append(abs(float(np.dot(g_new, tr.g1))) <= c2 * grad_sq)
    return report


def run_constrained(x0: ParamVector, obj: Objective, L: float, max_iters: int, seed: int) -> list[StepTrace]:
    """Constrained mode of the stepper from x0: every step is exactly ||grad||/L long.

    The probe distance 0.01 * ||grad|| / L keeps the measured angle near
    arctan(0.01) on smooth objectives. Stops early at a stationary point.
    """
    state = optimizer.DycentState(rng=np.random.default_rng(seed))
    def step(i, x):
        return optimizer.dycent_step(x, obj, CONSTRAINED_CONFIG, state, lipschitz=L)
    return optimizer.run_loop(x0, (step for _ in range(max_iters)))[0]
