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
Since theta cancels, dycent_step takes that step as ||grad|| / L itself,
so a constrained run is gradient descent with step 1/L bit for bit, and
both guarantees are that method's textbook ones.
check_descent and wolfe_report check one run; run_suite runs and checks a
sub-suite of starts, reading each run as it finishes and checking all their
steps in one array pass. The gradient at each step's landing point is the
gradient the next step took there; a run that stopped on a zero gradient
hands over the one its stopping step took, so only the last landing point
of a run that spent its budget is evaluated for the checks. At seed 0
harness.run_theory_suite takes 21,268 gradients over 10,284 steps, 2.068067
a step: 2 per step, 1 for each of the 200 isotropic runs' stopping steps and
1 landing gradient for each of the 500 SPD runs; and 10,984 values, 1 per
step and 1 start value per run.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import optimizer
from .objective import Objective
from .optimizer import StepTrace
from .vecmath import ParamVector

# The curvature constant and descent tolerance the checks default to and the report states.
C2 = 0.9
TOL = 1e-10

# The stepper settings of a constrained run: its probe distance and step come
# from L, so it reads only epsilon.
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


def _read_run(
    trajectory: list[StepTrace], f0: float, obj: Objective | None = None, landing: ParamVector | None = None
):
    """(g1 rows, [start values, end values, d_used], landing gradient) of a run; None if it is empty.

    Step 0 starts at f0; step k starts where step k-1 landed, bit for bit,
    so its start value is that step's f_after. A step that does not start
    there raises ValueError before any evaluation. The landing gradient, at
    the last step's landing point, is landing where the caller hands one
    over (run_constrained returns the one its stopping step took); else,
    with obj given, it is evaluated, and without obj it is None.
    """
    if not trajectory:
        return None
    for k in range(1, len(trajectory)):
        x1, landed = trajectory[k].x1, trajectory[k - 1].x_new
        # run_loop starts each step on the array the step before returned, so
        # identity settles a run's steps; comparing bytes is the exact test
        if x1 is not landed and x1.tobytes() != landed.tobytes():
            raise ValueError(f"step {k} does not start where step {k - 1} landed")
    f_after = [tr.f_after for tr in trajectory]
    scalars = np.array([[float(f0), *f_after[:-1]], f_after, [tr.d_used for tr in trajectory]])
    if landing is None and obj is not None:
        landing = obj.gradient(trajectory[-1].x_new)
    return np.array([tr.g1 for tr in trajectory]), scalars, landing


def _join(runs: list):
    """The rows of _read_run's runs, Nones skipped, as (g1, ||g1||^2, f_before,
    f_after, d_used, g_new); None if no run has a step.

    Each step starts where the one before landed, so the gradient at a
    step's landing point is -g1 of the step after it, and the run's landing
    gradient for its last step. g_new is None where no landing was read.
    """
    runs = [run for run in runs if run is not None]
    if not runs:
        return None
    g1 = np.concatenate([run[0] for run in runs])
    f_before, f_after, d_used = np.concatenate([run[1] for run in runs], axis=1)
    g_new = None
    if runs[0][2] is not None:
        g_new = np.empty_like(g1)
        np.negative(g1[1:], out=g_new[:-1])
        g_new[np.cumsum([len(run[0]) for run in runs]) - 1] = [run[2] for run in runs]
    return g1, np.vecdot(g1, g1), f_before, f_after, d_used, g_new


def _descent(rows, L: float, tol: float) -> DescentReport:
    if rows is None:
        return DescentReport(violations=0, min_decrease_margin=math.inf)
    g1, grad_sq, f_before, f_after, d_used, g_new = rows
    margin = (f_before - f_after) - grad_sq / (2.0 * L)
    # a running min from inf keeps the first of equal margins and never takes a NaN
    return DescentReport(
        violations=int(np.count_nonzero(~(margin >= -tol))), min_decrease_margin=min([math.inf, *margin.tolist()])
    )


def _wolfe(rows, c1: float, c2: float) -> WolfeReport:
    if rows is None:
        return WolfeReport(armijo_pass=[], curvature_pass=[])
    g1, grad_sq, f_before, f_after, d_used, g_new = rows
    armijo = f_after <= f_before - c1 * d_used * grad_sq
    curvature = np.abs(np.vecdot(g_new, g1)) <= c2 * grad_sq
    return WolfeReport(armijo_pass=armijo.tolist(), curvature_pass=curvature.tolist())


def _require_wolfe_pair(c1: float, c2: float) -> None:
    if not 0.0 < c1 < c2 < 1.0:
        raise ValueError(f"need 0 < c1 < c2 < 1, got c1={c1}, c2={c2}")


def check_descent(trajectory: list[StepTrace], f0: float, L: float, tol: float = TOL) -> DescentReport:
    """Verify f(x_new) <= f(x1) - ||grad||^2/(2L) + tol on every step of a run that starts at value f0.

    One array pass over the steps: np.vecdot gives each ||g1||^2 with
    np.dot's bits, and the margins are formed elementwise in the order a
    per-step loop forms them. A NaN margin is a violation; the minimum
    margin skips it, and an empty trajectory has margin inf.
    """
    return _descent(_join([_read_run(trajectory, f0)]), L, tol)


def wolfe_report(trajectory: list[StepTrace], f0: float, obj: Objective, c1: float, c2: float = C2) -> WolfeReport:
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
    return _wolfe(_join([_read_run(trajectory, f0, obj)]), c1, c2)


def run_suite(
    obj: Objective, starts, n_steps: int, seed: int, c1: float, c2: float = C2, tol: float = TOL
) -> tuple[DescentReport, WolfeReport]:
    """Constrained runs on obj from each of starts, checked as check_descent and wolfe_report check one run.

    Run k takes n_steps steps at L = obj.lipschitz_bound with its own
    generator, seeded seed + 1000 + k. Each run is read as it finishes,
    its start value evaluated right after it, so no trace outlives its run.
    A run that stopped on a zero gradient hands over the gradient its
    stopping step took at its last landing point; only a run that spent
    its budget has that landing gradient evaluated here. One descent pass
    and one Wolfe pass then cover the rows of all runs, in order. Empty
    runs add no rows.
    """
    _require_wolfe_pair(c1, c2)
    L = obj.lipschitz_bound
    runs = []
    for k, x0 in enumerate(starts):
        # run_constrained is looked up here at each call, so a wrapper put on it reaches every run
        traces, landing = run_constrained(x0, obj, L, n_steps, seed=seed + 1000 + k)
        runs.append(_read_run(traces, obj.value(x0), obj, landing))
    rows = _join(runs)
    return _descent(rows, L, tol), _wolfe(rows, c1, c2)


def run_constrained(
    x0: ParamVector, obj: Objective, L: float, max_iters: int, seed: int
) -> tuple[list[StepTrace], ParamVector | None]:
    """Constrained mode of the stepper from x0: every step is exactly ||grad||/L long.

    The probe distance 0.01 * ||grad|| / L keeps the measured angle near
    arctan(0.01) on smooth objectives; the probe is recorded in each trace,
    and no step reads it. Stops early at a stationary point;
    a non-finite step raises its NonFiniteStepError.
    Returns the traces and, for a run that stopped on a zero gradient, the
    gradient its stopping step took where the last step landed (at x0 if
    no step was taken); None for a run that spent its budget, or whose
    stop held no gradient (a zero probe gradient).
    """
    state = optimizer.DycentState(rng=np.random.default_rng(seed))

    def step(x):
        # optimizer.dycent_step is looked up at each call, so a wrapper put on it reaches every step
        return optimizer.dycent_step(x, obj, CONSTRAINED_CONFIG, state, lipschitz=L)

    traces, stop, _ = optimizer.run_loop(x0, (step for _ in range(max_iters)))
    if isinstance(stop, optimizer.NonFiniteStepError):
        raise stop
    return traces, None if stop is None else stop.gradient
