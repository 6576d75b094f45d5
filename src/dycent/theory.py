"""Executable checks of the stepper's descent guarantee and the Wolfe
conditions, and the constrained-mode runs they are proved for.

For L-smooth convex objectives, capping the probe distance at
h <= ||grad|| / (L * cot(theta)) makes the step d = h * cot(theta) exactly
||grad|| / L long, which guarantees a per-step decrease of at least
||grad||^2 / (2L) and the sufficient-decrease (Armijo) condition with
c1 = 1/(2L). The curvature condition carries no such guarantee; it is
measured and reported, never asserted. The constrained step itself is
optimizer.dycent_step with lipschitz set; run_constrained iterates it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import optimizer
from .objective import Objective
from .optimizer import StepTrace, constrained_h  # noqa: F401 - constrained_h stays part of this API
from .vecmath import ParamVector, ZeroGradientError, norm

# The stepper settings of a constrained run: the probe distance comes from
# L, and the decrease bound is proved without the EMA/doubling heuristic.
CONSTRAINED_CONFIG = optimizer.DycentConfig(epsilon=1e-12, enable_doubling=False)


@dataclass
class DescentReport:
    """Outcome of checking the per-step decrease bound over a trajectory."""

    steps_checked: int
    violations: int
    min_decrease_margin: float


@dataclass
class WolfeReport:
    """Per-step sufficient-decrease and curvature outcomes for a trajectory."""

    c1: float
    c2: float
    armijo_pass: list[bool]
    curvature_pass: list[bool]


def check_descent(trajectory: list[StepTrace], L: float, tol: float = 1e-10) -> DescentReport:
    """Verify f(x_new) <= f(x_old) - ||grad||^2/(2L) + tol on every step."""
    violations = 0
    min_margin = math.inf
    for tr in trajectory:
        grad_sq = float(np.dot(tr.g1, tr.g1))
        margin = (tr.f_before - tr.f_after) - grad_sq / (2.0 * L)
        if margin < -tol:
            violations += 1
        min_margin = min(min_margin, margin)
    return DescentReport(
        steps_checked=len(trajectory),
        violations=violations,
        min_decrease_margin=min_margin,
    )


def check_armijo(trace: StepTrace, c1: float) -> bool:
    """Sufficient decrease with step size d_used and descent direction -grad:

        f(x_new) <= f(x1) + c1 * d_used * grad^T(-grad)
                  = f(x1) - c1 * d_used * ||grad||^2
    """
    grad_sq = float(np.dot(trace.g1, trace.g1))
    return trace.f_after <= trace.f_before - c1 * trace.d_used * grad_sq


def check_curvature(
    trace: StepTrace, c2: float, obj: Objective, nxt: StepTrace | None = None
) -> bool:
    """Curvature condition |grad(x_new)^T p| <= c2 |grad(x1)^T p| with p = -grad(x1).

    Needs the gradient at the landing point x_new; used for reporting
    only. nxt, the trajectory's following step, already holds it as -nxt.g1
    when it starts at x_new bit for bit; otherwise obj evaluates it.
    """
    g1_norm = norm(trace.g1)
    if g1_norm == 0.0:
        raise ZeroGradientError("curvature condition undefined at a stationary point")
    x_new = trace.x1 + trace.d_used * trace.g1 / g1_norm
    # comparing bytes is the exact test and, unlike np.array_equal, cheaper
    # than an analytic gradient
    if nxt is not None and nxt.x1.tobytes() == x_new.tobytes():
        g_new = -nxt.g1
    else:
        g_new = obj.gradient(x_new)
    lhs = abs(float(np.dot(g_new, trace.g1)))
    rhs = c2 * float(np.dot(trace.g1, trace.g1))
    return lhs <= rhs


def wolfe_report(
    trajectory: list[StepTrace], obj: Objective, c1: float, c2: float = 0.9
) -> WolfeReport:
    """Evaluate both Wolfe conditions on every step of a trajectory.

    Both conditions are checked, so the constants must form a valid
    strong-Wolfe pair 0 < c1 < c2 < 1. Each landing gradient is taken from
    the following step where that step starts at the landing point, so a
    consecutive trajectory costs one gradient evaluation, for its last step.
    """
    if not 0.0 < c1 < c2 < 1.0:
        raise ValueError(f"need 0 < c1 < c2 < 1, got c1={c1}, c2={c2}")
    return WolfeReport(
        c1=c1,
        c2=c2,
        armijo_pass=[check_armijo(tr, c1) for tr in trajectory],
        curvature_pass=[
            check_curvature(tr, c2, obj, nxt)
            for tr, nxt in zip(trajectory, trajectory[1:] + [None])
        ],
    )


def run_constrained(x0: ParamVector, obj: Objective, L: float, max_iters: int, seed: int) -> list[StepTrace]:
    """Constrained mode of the stepper from x0: every step is exactly ||grad||/L long.

    The probe distance 0.01 * ||grad|| / L keeps the measured angle near
    arctan(0.01) on smooth objectives. Stops early at a stationary point.
    """
    return optimizer.run(x0, obj, CONSTRAINED_CONFIG, max_iters, seed, lipschitz=L)
