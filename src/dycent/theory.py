"""Executable checks of the stepper's descent guarantee and the Wolfe
conditions, plus the constrained-h mode they are proved for.

For L-smooth convex objectives, capping the probe distance at
h <= ||grad|| / (L * cot(theta)) makes the step d = h * cot(theta) exactly
||grad|| / L long, which guarantees a per-step decrease of at least
||grad||^2 / (2L) and the sufficient-decrease (Armijo) condition with
c1 = 1/(2L). The curvature condition carries no such guarantee; it is
measured and reported, never asserted.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .objective import Objective
from .optimizer import StepTrace
from .vecmath import (
    ParamVector,
    RngHandle,
    ZeroGradientError,
    angle_between,
    make_rng,
    norm,
    sample_perpendicular,
)


@dataclass
class DescentReport:
    """Outcome of checking the per-step decrease bound over a trajectory."""

    steps_checked: int
    violations: int
    min_decrease_margin: float
    constrained_h_used: list[float] = field(default_factory=list)


@dataclass
class WolfeReport:
    """Per-step sufficient-decrease and curvature outcomes for a trajectory."""

    c1: float
    c2: float
    armijo_pass: list[bool]
    curvature_pass: list[bool]

    @property
    def armijo_rate(self) -> float:
        return sum(self.armijo_pass) / len(self.armijo_pass) if self.armijo_pass else 1.0

    @property
    def curvature_rate(self) -> float:
        return sum(self.curvature_pass) / len(self.curvature_pass) if self.curvature_pass else 1.0


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


def check_descent(trajectory: list[StepTrace], L: float, tol: float = 1e-10) -> DescentReport:
    """Verify f(x_new) <= f(x_old) - ||grad||^2/(2L) + tol on every step."""
    violations = 0
    min_margin = math.inf
    h_used: list[float] = []
    for tr in trajectory:
        grad_sq = float(np.dot(tr.g1, tr.g1))
        margin = (tr.f_before - tr.f_after) - grad_sq / (2.0 * L)
        if margin < -tol:
            violations += 1
        min_margin = min(min_margin, margin)
        h_used.append(tr.d_used * math.tan(tr.theta))
    return DescentReport(
        steps_checked=len(trajectory),
        violations=violations,
        min_decrease_margin=min_margin,
        constrained_h_used=h_used,
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


def estimate_lipschitz(
    obj: Objective,
    region_samples: int,
    rng: RngHandle,
    bounds: tuple[float, float] = (-1.0, 1.0),
) -> float:
    """Empirical lower bound on the gradient's Lipschitz constant.

    Max of ||grad(x) - grad(y)|| / ||x - y|| over region_samples random
    pairs drawn uniformly from the bounds box.
    """
    if region_samples < 2:
        raise ValueError(f"need at least 2 samples, got {region_samples}")
    lo, hi = bounds
    best = 0.0
    for _ in range(region_samples):
        x = rng.uniform(lo, hi, size=obj.dim)
        y = rng.uniform(lo, hi, size=obj.dim)
        dxy = float(np.linalg.norm(x - y))
        if dxy == 0.0:
            continue
        ratio = float(np.linalg.norm(obj.gradient(x) - obj.gradient(y))) / dxy
        best = max(best, ratio)
    return best


def run_constrained(
    x0: ParamVector,
    obj: Objective,
    L: float,
    max_iters: int,
    seed: int,
    probe_scale: float = 0.01,
    epsilon: float = 1e-12,
) -> list[StepTrace]:
    """Constrained-h mode of the stepper: every step is exactly ||grad||/L long.

    The probe distance is probe_scale * ||grad|| / L, which keeps the
    measured angle near arctan(probe_scale) on smooth objectives, then the
    step uses the constrained h so d = h * cot(theta) = ||grad|| / L.
    The EMA/doubling heuristic is disabled; the decrease bound is proved
    without it.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not 0.0 < probe_scale:
        raise ValueError(f"probe_scale must be > 0, got {probe_scale}")
    rng = make_rng(seed)
    x = np.asarray(x0, dtype=np.float64)
    f = obj.value(x)
    traces: list[StepTrace] = []
    for _ in range(max_iters):
        g1 = -obj.gradient(x)
        grad_norm = norm(g1)
        if grad_norm == 0.0:
            break
        p1 = sample_perpendicular(g1, rng)
        h_probe = probe_scale * grad_norm / L
        x2 = x - h_probe * p1
        g2 = -obj.gradient(x2)
        theta = angle_between(g1, g2) + epsilon
        h_max = constrained_h(grad_norm, L, theta)
        cot_theta = 1.0 / math.tan(theta)
        d_used = h_max * cot_theta
        x_new = x + d_used * g1 / grad_norm
        traces.append(
            StepTrace(
                x1=x.copy(),
                x2=x2,
                g1=g1,
                g2=g2,
                p1=p1,
                theta=theta,
                d_raw=h_probe * cot_theta,
                d_used=d_used,
                doubled=False,
                f_before=f,
                f_after=obj.value(x_new),
            )
        )
        x, f = x_new, traces[-1].f_after
    return traces
