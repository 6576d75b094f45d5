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
check_run gives both checks' reports of one run and reads the run once.
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


def _steps(trajectory: list[StepTrace], f0: float):
    """(g1 rows, their squared norms, start values, end values) of a trajectory; None if it is empty.

    Step 0 starts at f0; step k starts where step k-1 landed, bit for bit,
    so its start value is that step's f_after. A step that does not start
    there raises ValueError before any evaluation.
    """
    if not trajectory:
        return None
    for k, (tr, nxt) in enumerate(zip(trajectory, trajectory[1:]), 1):
        # comparing bytes is the exact test and, unlike np.array_equal, cheap
        if nxt.x1.tobytes() != tr.x_new.tobytes():
            raise ValueError(f"step {k} does not start where step {k - 1} landed")
    g1 = np.array([tr.g1 for tr in trajectory])
    f_after = np.array([tr.f_after for tr in trajectory])
    return g1, np.vecdot(g1, g1), np.concatenate(([float(f0)], f_after[:-1])), f_after


def _descent(steps, L: float, tol: float) -> DescentReport:
    if steps is None:
        return DescentReport(violations=0, min_decrease_margin=math.inf)
    g1, grad_sq, f_before, f_after = steps
    margin = (f_before - f_after) - grad_sq / (2.0 * L)
    # a running min from inf keeps the first of equal margins and never takes a NaN
    return DescentReport(
        violations=int(np.count_nonzero(~(margin >= -tol))), min_decrease_margin=min([math.inf, *margin.tolist()])
    )


def _wolfe(trajectory: list[StepTrace], steps, obj: Objective, c1: float, c2: float) -> WolfeReport:
    if steps is None:
        return WolfeReport(armijo_pass=[], curvature_pass=[])
    g1, grad_sq, f_before, f_after = steps
    d_used = np.array([tr.d_used for tr in trajectory])
    armijo = f_after <= f_before - c1 * d_used * grad_sq
    g_new = np.vstack((-g1[1:], obj.gradient(trajectory[-1].x_new)))
    curvature = np.abs(np.vecdot(g_new, g1)) <= c2 * grad_sq
    return WolfeReport(armijo_pass=armijo.tolist(), curvature_pass=curvature.tolist())


def _require_wolfe_pair(c1: float, c2: float) -> None:
    if not 0.0 < c1 < c2 < 1.0:
        raise ValueError(f"need 0 < c1 < c2 < 1, got c1={c1}, c2={c2}")


def check_descent(trajectory: list[StepTrace], f0: float, L: float, tol: float = 1e-10) -> DescentReport:
    """Verify f(x_new) <= f(x1) - ||grad||^2/(2L) + tol on every step of a run that starts at value f0.

    One array pass over the steps: np.vecdot gives each ||g1||^2 with
    np.dot's bits, and the margins are formed elementwise in the order a
    per-step loop forms them. A NaN margin is a violation; the minimum
    margin skips it, and an empty trajectory has margin inf.
    """
    return _descent(_steps(trajectory, f0), L, tol)


def wolfe_report(trajectory: list[StepTrace], f0: float, obj: Objective, c1: float, c2: float = 0.9) -> WolfeReport:
    """Evaluate both Wolfe conditions on every step of a run that starts at value f0.

    With descent direction p = -grad(x1) = g1, a step passes
    - sufficient decrease (Armijo) if f(x_new) <= f(x1) - c1 * d_used * ||g1||^2,
      with d_used in the place of the step size. The step moves d_used along
      the unit vector g1/||g1||, so the textbook step size is
      alpha = d_used/||g1||, and this bound asks ||g1|| times the textbook
      decrease c1 * alpha * ||g1||^2: less where ||g1|| < 1, more where ||g1|| > 1;
    - curvature if |grad(x_new)^T p| <= c2 |grad(x1)^T p|, measured for reporting only.

    Both conditions are checked, so the constants must form a valid
    strong-Wolfe pair 0 < c1 < c2 < 1. Each step starts where the one
    before landed, so the gradient at x_new is -g1 of the following step,
    and obj evaluates one gradient, for the last step. Both conditions are
    one array pass over the steps, elementwise in the order a per-step loop
    evaluates them.
    """
    _require_wolfe_pair(c1, c2)
    return _wolfe(trajectory, _steps(trajectory, f0), obj, c1, c2)


def check_run(
    trajectory: list[StepTrace], f0: float, obj: Objective, L: float, c1: float, c2: float = 0.9, tol: float = 1e-10
) -> tuple[DescentReport, WolfeReport]:
    """(check_descent(trajectory, f0, L, tol), wolfe_report(trajectory, f0, obj, c1, c2)), reading the run once."""
    _require_wolfe_pair(c1, c2)
    steps = _steps(trajectory, f0)
    return _descent(steps, L, tol), _wolfe(trajectory, steps, obj, c1, c2)


def run_constrained(x0: ParamVector, obj: Objective, L: float, max_iters: int, seed: int) -> list[StepTrace]:
    """Constrained mode of the stepper from x0: every step is exactly ||grad||/L long.

    The probe distance 0.01 * ||grad|| / L keeps the measured angle near
    arctan(0.01) on smooth objectives. Stops early at a stationary point.
    """
    state = optimizer.DycentState(rng=np.random.default_rng(seed))
    def step(i, x):
        return optimizer.dycent_step(x, obj, CONSTRAINED_CONFIG, state, lipschitz=L)
    return optimizer.run_loop(x0, (step for _ in range(max_iters)))[0]
