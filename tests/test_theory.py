import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycent.objective import AnalyticObjective, Objective, Quadratic, isotropic_quadratic, spd_quadratic, toy_b
from dycent.optimizer import DycentConfig, DycentState, StepTrace, dycent_step
from dycent import theory
from dycent.theory import (
    DescentReport,
    WolfeReport,
    check_descent,
    run_constrained,
    run_suite,
    wolfe_report,
)
from dycent.vecmath import angle_between, norm, sample_perpendicular

from oracles import dycent_run, scalar_check_descent, scalar_wolfe_report


def fabricate_trace(f_after, d_used, grad=np.array([1.0, 0.0])):
    """Hand-built trace around x1 = (1, 0) with the given bookkeeping."""
    g1 = -np.asarray(grad, dtype=np.float64)
    p1 = np.array([0.0, 1.0])
    x1 = np.array([1.0, 0.0])
    return StepTrace(
        x1=x1,
        x_new=x1 + d_used * g1 / norm(g1),
        x2=x1 - 0.1 * p1,
        g1=g1,
        g1_norm=norm(g1),
        p1=p1,
        theta=math.pi / 4,
        d_raw=d_used,
        d_used=d_used,
        doubled=False,
        f_after=f_after,
    )


class TestRunConstrained:
    def test_step_length_identity(self):
        obj = spd_quadratic(6, seed=5)
        traces, _ = run_constrained(np.full(6, 0.4), obj, 15, seed=0)
        assert len(traces) == 15
        for tr in traces:
            assert tr.d_used == float(np.linalg.norm(tr.g1)) / obj.lipschitz_bound

    def test_angle_stays_acute(self):
        obj = spd_quadratic(5, seed=8, condition=50.0)
        traces, _ = run_constrained(np.full(5, 0.3), obj, 25, seed=1)
        assert all(tr.theta < math.pi / 2 for tr in traces)

    @pytest.mark.parametrize("L", [0.0, math.inf, math.nan, -1.0])
    def test_refuses_a_lipschitz_that_is_not_finite_and_positive(self, L):
        obj = RecordedGradients(isotropic_quadratic(3))
        obj.lipschitz_bound = L
        state = DycentState(rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="lipschitz must be > 0 and finite"):
            dycent_step(np.full(3, 0.5), obj, theory.CONSTRAINED_CONFIG, state, lipschitz=L)
        with pytest.raises(ValueError, match="lipschitz must be > 0 and finite"):
            run_constrained(np.full(3, 0.5), obj, 10, seed=0)
        assert obj.at == []  # refused before any evaluation

    def test_refuses_an_objective_with_no_bound(self):
        # without a bound there is no constrained step, and no unconstrained one is taken instead
        obj = RecordedGradients(isotropic_quadratic(3))
        obj.lipschitz_bound = None
        with pytest.raises(ValueError, match="lipschitz must be > 0 and finite, got None"):
            run_constrained(np.full(3, 0.5), obj, 3, seed=0)
        assert obj.at == []

    def test_zero_probe_gradient_stops_with_no_step_and_no_gradient(self):
        # the gradient vanishes everywhere but at the start's bytes, so the
        # probe's angle is undefined and its error holds no gradient
        obj = gradient_only_at(np.array([0.6, -0.3]))
        assert run_constrained(np.array([0.6, -0.3]), obj, 10, seed=0) == ([], None)


def gradient_only_at(x0):
    """A 2-D objective with Lipschitz bound 1 whose gradient is (1, 2) at x0's bytes and zero everywhere else."""
    at = np.asarray(x0, dtype=np.float64).tobytes()
    obj = AnalyticObjective(
        2, lambda x: float(x.sum()), lambda x: np.array([1.0, 2.0]) if x.tobytes() == at else np.zeros(2)
    )
    obj.lipschitz_bound = 1.0
    return obj


def reference_run_constrained(x0, obj, max_iters, seed):
    """The constrained run written out as its own loop at L = obj.lipschitz_bound: probe at
    0.01 * ||g|| / L, then step ||g|| / L, to which h_max * cot(theta) at
    h_max = ||g|| * tan(theta) / L cancels."""
    L = obj.lipschitz_bound
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=np.float64)
    traces = []
    for _ in range(max_iters):
        g1 = -obj.gradient(x)
        grad_norm = norm(g1)
        if grad_norm == 0.0:
            break
        p1 = sample_perpendicular(g1, rng)
        h_probe = 0.01 * grad_norm / L
        x2 = x - h_probe * p1
        g2 = -obj.gradient(x2)
        theta = angle_between(g1, g2) + 1e-12
        cot_theta = 1.0 / math.tan(theta)
        d_used = grad_norm / L
        x_new = x + d_used * g1 / grad_norm
        f_after = obj.value(x_new)
        traces.append(StepTrace(x.copy(), x_new, x2, g1, grad_norm, p1, theta, h_probe * cot_theta, d_used, False, f_after))
        x = x_new
    return traces


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestConstrainedOracle:
    """run_constrained gives the bits of the reference loop on the theory
    suite's quadratics, from starts drawn as the suite draws them."""

    @pytest.mark.parametrize(
        "obj,n_steps",
        [
            (isotropic_quadratic(5), 10),
            (spd_quadratic(8, seed=101, condition=10.0), 20),
            (spd_quadratic(8, seed=202, condition=40.0), 20),
        ],
        ids=["isotropic_5d", "spd_8d_a", "spd_8d_b"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 12])
    def test_bits_match_reference_loop(self, obj, n_steps, seed):
        rng = np.random.default_rng(seed)
        lengths = []
        for k in range(25):
            direction = rng.standard_normal(obj.dim)
            x0 = direction / np.linalg.norm(direction) * rng.uniform(0.1, 0.95)
            got, landing = run_constrained(x0, obj, n_steps, seed=seed + 1000 + k)
            ref = reference_run_constrained(x0, obj, n_steps, seed + 1000 + k)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                for name in ("x1", "x_new", "x2", "g1", "p1", "theta", "d_used", "doubled", "f_after"):
                    assert same_bits(getattr(g, name), getattr(r, name)), name
                assert g.d_raw == pytest.approx(r.d_raw, rel=1e-15, abs=0.0)
            if len(got) < n_steps:
                # stopped on a zero gradient: the one taken where the last step landed
                assert same_bits(landing, obj.gradient(ref[-1].x_new if ref else x0))
            else:
                assert landing is None
            lengths.append(len(got))
        assert min(lengths) >= 1


class TestCheckDescent:
    def test_isotropic_quadratic_never_violates(self, rng):
        obj = isotropic_quadratic(3)
        total = 0
        for k in range(100):
            x0 = rng.standard_normal(3)
            x0 *= rng.uniform(0.1, 0.95) / np.linalg.norm(x0)
            traces, _ = run_constrained(x0, obj, 10, seed=k)
            report = check_descent(traces, obj.value(x0), 1.0, tol=1e-10)
            assert report.violations == 0
            assert report.min_decrease_margin >= -1e-10
            total += len(traces)
        assert total >= 100

    def test_empty_trajectory(self):
        report = check_descent([], 0.0, 1.0)
        assert report.violations == 0

    def test_detects_fabricated_violation(self):
        # an f-increasing step can never satisfy the decrease bound
        bad = fabricate_trace(f_after=1.5, d_used=0.3)
        report = check_descent([bad], 1.0, L=1.0, tol=1e-10)
        assert report.violations >= 1
        assert report.min_decrease_margin < 0

    @pytest.mark.parametrize("L", [None, 0.0, -1.0, math.inf, math.nan])
    def test_refuses_an_L_that_is_not_finite_and_positive(self, L):
        # at L = -1 the bound ||g||^2/(2L) would let f rise, and at L = 0 it would divide by zero
        with pytest.raises(ValueError, match="lipschitz must be > 0 and finite"):
            check_descent([fabricate_trace(f_after=0.5, d_used=0.3)], 1.0, L)


def one_step_wolfe(tr, f0, obj, c1, c2=0.9):
    """wolfe_report's (Armijo, curvature) verdicts on the one-step trajectory [tr] that starts at value f0."""
    report = wolfe_report([tr], f0, obj, c1=c1, c2=c2)
    return report.armijo_pass[0], report.curvature_pass[0]


class TestWolfeArmijo:
    def test_constrained_quadratic_step_passes(self):
        obj = isotropic_quadratic(4)
        x0 = np.full(4, 0.3)
        for tr in run_constrained(x0, obj, 5, seed=3)[0]:
            assert one_step_wolfe(tr, obj.value(tr.x1), obj, c1=0.5)[0]

    def test_zero_step_passes_by_equality(self):
        tr = fabricate_trace(f_after=2.0, d_used=0.0)
        assert one_step_wolfe(tr, 2.0, isotropic_quadratic(2), c1=0.5)[0]

    def test_ascent_step_fails(self):
        tr = fabricate_trace(f_after=1.2, d_used=0.3)
        assert not one_step_wolfe(tr, 1.0, isotropic_quadratic(2), c1=0.5)[0]

    def test_step_size_convention_is_d_used(self):
        # f(x_new) <= f0 - c1 * d_used * ||grad||^2: with ||grad|| = 2,
        # d_used = 0.5 and c1 = 0.25 the bound is f0 - 0.5, where the
        # textbook step size d_used/||grad|| would give f0 - 0.25
        grad = np.array([2.0, 0.0])
        assert one_step_wolfe(fabricate_trace(0.5, 0.5, grad), 1.0, isotropic_quadratic(2), c1=0.25)[0]
        assert not one_step_wolfe(fabricate_trace(0.6, 0.5, grad), 1.0, isotropic_quadratic(2), c1=0.25)[0]


class TestWolfeCurvature:
    def test_landing_at_stationary_point_passes(self):
        obj = isotropic_quadratic(2)
        (tr,), _ = run_constrained(np.array([0.6, 0.0]), obj, 1, seed=4)
        # the constrained quadratic step lands at (numerically) zero gradient
        assert one_step_wolfe(tr, obj.value(tr.x1), obj, c1=1e-4)[1]

    def test_zero_length_step_fails_strict_bound(self):
        obj = isotropic_quadratic(2)
        tr = fabricate_trace(f_after=0.5, d_used=0.0)
        assert not one_step_wolfe(tr, 0.5, obj, c1=1e-4)[1]

    def test_toy_b_fraction_reported_without_assertion(self):
        # measurement only: the curvature condition carries no guarantee
        obj = toy_b()
        traces = dycent_run(np.array([3.0, 3.0]), obj, DycentConfig(h=1e-2), 100, seed=0)
        report = wolfe_report(traces, obj.value(traces[0].x1), obj, c1=1e-4, c2=0.9)
        assert len(report.curvature_pass) == len(traces)


class TestWolfeReport:
    def test_rates_and_lengths(self):
        obj = spd_quadratic(4, seed=6)
        traces, _ = run_constrained(np.full(4, 0.3), obj, 10, seed=5)
        report = wolfe_report(traces, obj.value(traces[0].x1), obj, c1=1.0 / (2.0 * obj.lipschitz_bound))
        assert all(report.armijo_pass)
        assert len(report.armijo_pass) == len(traces)

    def test_rejects_invalid_constant_pair(self):
        obj = isotropic_quadratic(2)
        with pytest.raises(ValueError):
            wolfe_report([], 0.0, obj, c1=0.95, c2=0.9)
        with pytest.raises(ValueError):
            wolfe_report([], 0.0, obj, c1=0.1, c2=1.0)

    @pytest.mark.parametrize("c1, c2", [(0.0, 0.9), (0.5, 0.5), (0.5, 1.0)])
    def test_rejects_invalid_constant_pair_before_reading_the_run(self, c1, c2):
        obj = RecordedGradients(isotropic_quadratic(2))
        with pytest.raises(ValueError, match="0 < c1 < c2 < 1"):
            wolfe_report([fabricate_trace(0.0, 0.5), fabricate_trace(0.0, 0.5)], 0.0, obj, c1=c1, c2=c2)
        assert obj.at == []


def suite_starts(seed):
    """(objective, start, step count, probe seed) for every start of harness.run_theory_suite at seed."""
    rng = np.random.default_rng(seed)
    suites = [
        (isotropic_quadratic(5), 200, 10),
        (spd_quadratic(8, seed=101, condition=10.0), 250, 20),
        (spd_quadratic(8, seed=202, condition=40.0), 250, 20),
    ]
    for obj, n_starts, n_steps in suites:
        for k in range(n_starts):
            direction = rng.standard_normal(obj.dim)
            direction /= np.linalg.norm(direction)
            yield obj, direction * rng.uniform(0.1, 0.95), n_steps, seed + 1000 + k


def suite_trajectories(seed):
    """(objective, trajectory, start value) for every start of harness.run_theory_suite at seed."""
    for obj, x0, n_steps, probe_seed in suite_starts(seed):
        yield obj, run_constrained(x0, obj, n_steps, seed=probe_seed)[0], obj.value(x0)


class RecordedGradients(Objective):
    """obj, recording the bytes of every point its gradient is evaluated at."""

    def __init__(self, obj):
        self.obj, self.dim, self.lipschitz_bound, self.at = obj, obj.dim, obj.lipschitz_bound, []

    def value(self, x):
        return self.obj.value(x)

    def gradient(self, x):
        self.at.append(x.tobytes())
        return self.obj.gradient(x)


def assert_checks_match_scalar_loops(trajectory, f0, obj, L, c1):
    """check_descent and wolfe_report on a run that starts at value f0 give the per-step
    loops' verdicts and margin bits, and evaluate the gradient at the same points in the
    same order. The loops take each step's start value from an explicit list."""
    f_before = [f0] + [t.f_after for t in trajectory[:-1]]
    got, want = check_descent(trajectory, f0, L), scalar_check_descent(trajectory, f_before, L)
    assert got.violations == want.violations
    assert np.float64(got.min_decrease_margin).tobytes() == np.float64(want.min_decrease_margin).tobytes()
    got_obj, want_obj = RecordedGradients(obj), RecordedGradients(obj)
    got = wolfe_report(trajectory, f0, got_obj, c1=c1)
    want = scalar_wolfe_report(trajectory, f_before, want_obj, c1=c1)
    assert got.armijo_pass == want.armijo_pass
    assert got.curvature_pass == want.curvature_pass
    assert got_obj.at == want_obj.at
    return got_obj.at


def assert_refused(trajectory, obj, step):
    """Both checks refuse trajectory, naming the step that does not start where the one
    before landed, before any evaluation."""
    recorded = RecordedGradients(obj)
    match = f"step {step} does not start where step {step - 1} landed"
    with pytest.raises(ValueError, match=match):
        check_descent(trajectory, 0.0, obj.lipschitz_bound)
    with pytest.raises(ValueError, match=match):
        wolfe_report(trajectory, 0.0, recorded, c1=0.4)
    assert recorded.at == []


class TestChecksMatchScalarLoops:
    """The array passes of check_descent and wolfe_report against the per-step loops in oracles."""

    @pytest.mark.parametrize("seed", [0, 203])
    def test_theory_suite_trajectories(self, seed):
        steps = evaluations = 0
        for obj, traces, f0 in suite_trajectories(seed):
            L = obj.lipschitz_bound
            evaluations += len(assert_checks_match_scalar_loops(traces, f0, obj, L, 1.0 / (2.0 * L)))
            steps += len(traces)
        assert evaluations == 700  # one landing gradient per run, for its last step
        assert steps > 10_000

    def test_empty_trajectory(self):
        assert check_descent([], 0.0, 1.0) == scalar_check_descent([], [], 1.0) == DescentReport(0, math.inf)
        obj = RecordedGradients(isotropic_quadratic(2))
        assert wolfe_report([], 0.0, obj, c1=0.5) == WolfeReport(armijo_pass=[], curvature_pass=[])
        assert obj.at == []
        # the loop zips the steps with their successors plus a None, one item too many
        with pytest.raises(ValueError, match="longer"):
            scalar_wolfe_report([], [], obj, c1=0.5)

    def test_one_step(self):
        obj = spd_quadratic(8, seed=101, condition=10.0)
        tr, _ = run_constrained(np.full(8, 0.3), obj, 1, seed=2)
        at = assert_checks_match_scalar_loops(tr, obj.value(tr[0].x1), obj, obj.lipschitz_bound, 0.4)
        assert at == [tr[0].x_new.tobytes()]

    def test_nan_start_value_is_a_violation(self):
        # a NaN margin fails the decrease check as it fails the Armijo check;
        # the minimum margin skips it, so the theory JSON stays valid
        obj = spd_quadratic(8, seed=101, condition=10.0)
        tr, _ = run_constrained(np.full(8, 0.3), obj, 1, seed=2)
        assert check_descent(tr, math.nan, obj.lipschitz_bound) == DescentReport(1, math.inf)
        assert wolfe_report(tr, math.nan, obj, c1=0.4).armijo_pass == [False]
        assert_checks_match_scalar_loops(tr, math.nan, obj, obj.lipschitz_bound, 0.4)

    @pytest.mark.parametrize(
        "f0, f_after",
        [
            (math.nan, [-0.0, 0.0, 0.0]),
            (-0.0, [math.nan, math.nan, 0.0]),
            (math.nan, [math.nan, math.nan, math.nan]),
            (-0.0, [0.0, 0.0]),
        ],
    )
    def test_nan_and_signed_zero_margins(self, f0, f_after):
        # the running minimum skips NaN margins and keeps the first of two equal zeros
        tr = dataclasses.replace(fabricate_trace(f_after=0.0, d_used=0.0), g1=np.zeros(2))
        traces = [dataclasses.replace(tr, f_after=f) for f in f_after]
        assert_checks_match_scalar_loops(traces, f0, isotropic_quadratic(2), 1.0, 0.5)
        if f_after == [0.0, 0.0]:  # margins -0.0, then 0.0
            assert math.copysign(1.0, check_descent(traces, f0, 1.0).min_decrease_margin) == -1.0

    def test_stationary_start(self):
        # a zero-gradient start logs no step, and the checks evaluate nothing
        obj = RecordedGradients(spd_quadratic(8, seed=101, condition=10.0))
        traces, landing = run_constrained(np.zeros(8), obj, 20, seed=1000)
        assert traces == []
        assert landing.tolist() == [0.0] * 8  # the gradient the stopping step took at the start
        assert check_descent(traces, 0.0, obj.obj.lipschitz_bound) == DescentReport(0, math.inf)
        assert wolfe_report(traces, 0.0, obj, c1=0.4) == WolfeReport(armijo_pass=[], curvature_pass=[])
        assert obj.at == [np.zeros(8).tobytes()]  # run_constrained's own gradient, none from the checks

    @pytest.mark.parametrize("tol, c2", [(0.0, 0.5), (1e-3, 0.99), (-1.0, 0.2)])
    def test_tolerance_and_curvature_constant(self, tol, c2):
        obj = spd_quadratic(8, seed=202, condition=40.0)
        traces, _ = run_constrained(np.full(8, 0.3), obj, 10, seed=3)
        f0 = obj.value(traces[0].x1)
        f_before = [f0] + [t.f_after for t in traces[:-1]]
        got, want = check_descent(traces, f0, 2.0, tol), scalar_check_descent(traces, f_before, 2.0, tol)
        assert got.violations == want.violations
        assert np.float64(got.min_decrease_margin).tobytes() == np.float64(want.min_decrease_margin).tobytes()
        assert wolfe_report(traces, f0, obj, 0.1, c2) == scalar_wolfe_report(traces, f_before, obj, 0.1, c2)


def same_reports(got, want):
    """Two (DescentReport, WolfeReport) pairs are equal, the minimum margin bit for bit."""
    (got_d, got_w), (want_d, want_w) = got, want
    assert got_d.violations == want_d.violations
    assert np.float64(got_d.min_decrease_margin).tobytes() == np.float64(want_d.min_decrease_margin).tobytes()
    assert got_w == want_w


class TestRefusesNonConsecutiveSteps:
    """Each step's start value is the f_after of the step before, so a trajectory
    whose steps do not join up bit for bit is refused."""

    def test_gap(self):
        obj = spd_quadratic(8, seed=202, condition=40.0)
        traces, _ = run_constrained(np.full(8, 0.3), obj, 10, seed=3)
        assert len(traces) == 10
        assert_refused(traces[:7] + traces[8:], obj, 7)

    def test_landing_differs_from_next_start_only_in_the_sign_of_a_zero(self):
        obj = spd_quadratic(3, seed=7)
        (a, b), _ = run_constrained(np.array([0.3, 0.2, 0.1]), obj, 2, seed=5)
        a = dataclasses.replace(a, x_new=np.array([0.0, 0.25, -0.5]))
        b = dataclasses.replace(b, x1=np.array([-0.0, 0.25, -0.5]))
        assert_refused([a, b], obj, 1)

    def test_start_value_is_one_float(self):
        obj = spd_quadratic(2, seed=6)
        traces, _ = run_constrained(np.array([0.6, 0.4]), obj, 2, seed=6)
        f0 = obj.value(traces[0].x1)
        assert check_descent(traces, np.float64(f0), 1.0) == check_descent(traces, f0, 1.0)
        recorded = RecordedGradients(obj)
        # a list of per-step start values is not a start value
        with pytest.raises(TypeError):
            check_descent(traces, [f0, traces[0].f_after], 1.0)
        with pytest.raises(TypeError):
            wolfe_report(traces, [f0, traces[0].f_after], recorded, c1=0.5)
        assert recorded.at == []


def test_unconstrained_stepper_against_the_descent_bound():
    # measured only: the descent guarantee covers the constrained mode. The
    # stepper at its defaults, from the seed-0 suite starts with their probe
    # seeds and step counts, meets the bound on the isotropic quadratic and
    # misses it on nearly every step of the two SPD quadratics.
    counts = {}  # objective -> [steps, violations]
    for obj, x0, n_steps, probe_seed in suite_starts(0):
        traces = dycent_run(x0, obj, DycentConfig(), n_steps, probe_seed)
        report = check_descent(traces, obj.value(x0), obj.lipschitz_bound)
        steps_violations = counts.setdefault(obj, [0, 0])
        steps_violations[0] += len(traces)
        steps_violations[1] += report.violations
    assert list(counts.values()) == [[2_000, 0], [5_000, 4_887], [5_000, 4_914]]


def test_theory_suite_steps_are_gradient_descent_with_step_one_over_L():
    # the seed-0 starts of harness.run_theory_suite, run here without writing
    # its report: capping h at ||g|| tan(theta) / L and stepping h cot(theta)
    # cancels theta, so each step is ||g|| / L long, and the run is the
    # probe-free loop x + (||g|| / L) * g / ||g|| with g = -grad f(x)
    steps = 0
    for obj, traces, _ in suite_trajectories(0):
        L = obj.lipschitz_bound
        x = traces[0].x1
        for tr in traces:
            assert tr.d_used == tr.g1_norm / L
            g = -obj.gradient(x)
            x = x + (norm(g) / L) * g / norm(g)
            assert same_bits(x, tr.x_new)
        steps += len(traces)
    assert steps == 10_284  # the suite's steps_checked at seed 0


def probe_free_run(x0, obj, L, max_iters):
    """Gradient descent with step 1/L written as the constrained step's arithmetic, no probe:
    ((x1, x_new, g1, d_used, f_after) per step, the gradient that stopped the run or None)."""
    x = np.array(x0, dtype=np.float64)
    steps = []
    for _ in range(max_iters):
        grad = obj.gradient(x)
        g1 = -grad
        grad_norm = norm(g1)
        if grad_norm == 0.0:
            return steps, grad
        d_used = grad_norm / L
        x_new = x + d_used * g1 / grad_norm
        steps.append((x, x_new, g1, d_used, obj.value(x_new)))
        x = x_new
    return steps, None


@pytest.mark.parametrize("seed", [0, 203])
def test_constrained_runs_are_the_probe_free_loop(seed):
    # the probe still runs and is recorded, but no byte of a run depends on it
    lengths = []
    for obj, x0, n_steps, probe_seed in suite_starts(seed):
        got, landing = run_constrained(x0, obj, n_steps, seed=probe_seed)
        want, stop = probe_free_run(x0, obj, obj.lipschitz_bound, n_steps)
        assert len(got) == len(want)
        for tr, ref in zip(got, want):
            for name, value in zip(("x1", "x_new", "g1", "d_used", "f_after"), ref):
                assert same_bits(getattr(tr, name), value), name
        assert (landing is None) == (stop is None)
        if stop is not None:
            assert same_bits(landing, stop)
        lengths.append(len(got))
    assert sum(lengths) == {0: 10_284, 203: 10_276}[seed]


def sub_suites(seed):
    """(objective, starts, step count) of each sub-suite of harness.run_theory_suite at seed."""
    grouped = {}
    for obj, x0, n_steps, _ in suite_starts(seed):
        grouped.setdefault(obj, (obj, [], n_steps))[1].append(x0)
    return list(grouped.values())


def runs_on_inner(monkeypatch, runs=None):
    """Make theory.run_constrained run on a RecordedGradients' inner objective, so
    the recorder sees only the checks' gradients; logs each run's probe seed in runs."""
    inner_run = theory.run_constrained

    def run(x0, obj, max_iters, seed):
        if runs is not None:
            runs.append(seed)
        return inner_run(x0, obj.obj, max_iters, seed=seed)

    monkeypatch.setattr(theory, "run_constrained", run)


def per_run_checks(obj, starts, n_steps, seed):
    """The sub-suite checked run by run with check_descent and wolfe_report at the report's
    constants (L = obj.lipschitz_bound, c1 = 1/(2L), and their default tol and c2), summed as
    the harness summed it; returns (DescentReport, WolfeReport, landing points in order, steps
    per run, whether each run stopped on a zero gradient)."""
    L = obj.lipschitz_bound
    recorded = RecordedGradients(obj)
    violations, min_margin, armijo, curvature, lengths, stopped = 0, math.inf, [], [], [], []
    for k, x0 in enumerate(starts):
        traces, landing = run_constrained(x0, obj, n_steps, seed=seed + 1000 + k)
        f0 = obj.value(x0)
        report, wolfe = check_descent(traces, f0, L), wolfe_report(traces, f0, recorded, c1=1.0 / (2.0 * L))
        violations += report.violations
        min_margin = min(min_margin, report.min_decrease_margin)
        armijo += wolfe.armijo_pass
        curvature += wolfe.curvature_pass
        lengths.append(len(traces))
        stopped.append(landing is not None)
    return DescentReport(violations, min_margin), WolfeReport(armijo, curvature), recorded.at, lengths, stopped


def assert_suite_matches_per_run_checks(obj, starts, n_steps, seed, runs=None):
    """run_suite on obj reports what per_run_checks reports, field by field and the minimum
    margin bit for bit, and evaluates the same landing points in the same order; returns
    (steps per run, whether each run stopped on a zero gradient). Logs each probe seed in runs."""
    want_d, want_w, want_at, lengths, stopped = per_run_checks(obj, starts, n_steps, seed)
    recorded = RecordedGradients(obj)
    with pytest.MonkeyPatch.context() as mp:
        runs_on_inner(mp, runs)
        got = run_suite(recorded, starts, n_steps, seed)
    same_reports(got, (want_d, want_w))
    # wolfe_report evaluates one landing gradient per run that has a step; run_suite
    # leaves out the runs that stopped on a zero gradient, whose stop handed it over
    assert len(want_at) == sum(1 for n in lengths if n)
    evaluated = [not stop for n, stop in zip(lengths, stopped) if n]
    assert recorded.at == [at for at, keep in zip(want_at, evaluated) if keep]
    return lengths, stopped


# the isotropic quadratic with L understated by 1e-6
UNDERSTATED_L = Quadratic(2, None, lipschitz_bound=1.0 - 1e-6, name="understated_isotropic_quadratic")


@st.composite
def scaled_spd_sub_suites(draw):
    """(objective, starts, step count, seed): an SPD quadratic of dimension 2-8 and condition
    1-50 scaled to Lipschitz bound L in [0.6, 10], and 1-4 starts inside the unit ball."""
    dim = draw(st.integers(2, 8))
    base = spd_quadratic(dim, seed=draw(st.integers(0, 2**16)), condition=draw(st.floats(1.0, 50.0)))
    L = draw(st.floats(0.6, 10.0))
    obj = Quadratic(dim, (L / base.lipschitz_bound) * base.a, lipschitz_bound=L, name="scaled_spd_quadratic")
    # the cube of half-width 0.99 / sqrt(dim) lies inside the unit ball; zero starts are stationary
    side = 0.99 / math.sqrt(dim)
    coordinate = st.floats(-side, side, allow_subnormal=False)
    starts = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), min_size=1, max_size=4))
    return obj, [np.array(x) for x in starts], draw(st.integers(1, 20)), draw(st.integers(0, 10_000))


class TestRunSuite:
    """run_suite checks a sub-suite's rows in one pass and reports what check_descent
    and wolfe_report report run by run."""

    @pytest.mark.parametrize("seed", [0, 203])
    def test_matches_per_run_checks(self, seed):
        runs, lengths, stopped = [], [], []
        for obj, starts, n_steps in sub_suites(seed):
            got_lengths, got_stopped = assert_suite_matches_per_run_checks(obj, starts, n_steps, seed, runs)
            lengths += got_lengths
            stopped += got_stopped
        assert runs == [seed + 1000 + k for _, starts, _ in sub_suites(seed) for k in range(len(starts))]
        assert len(runs) == 700
        assert sum(lengths) > 10_000
        assert sum(stopped) == 200  # every isotropic run, no SPD run

    @settings(max_examples=100, deadline=None)
    @given(scaled_spd_sub_suites())
    # the first step's margin is about -5e-11 from (0.01, 0), inside TOL, and about -5e-9
    # from (0.1, 0), a violation
    @example((UNDERSTATED_L, [np.array([0.01, 0.0]), np.array([0.1, 0.0])], 1, 0))
    def test_checks_at_the_report_constants(self, sub_suite):
        # c1 = 1/(2L) stays below C2 for every L >= 0.6, so each drawn L is a valid pair
        obj, starts, n_steps, seed = sub_suite
        assert_suite_matches_per_run_checks(obj, starts, n_steps, seed)

    def test_empty_run_in_the_middle_is_skipped(self, monkeypatch):
        obj = spd_quadratic(8, seed=101, condition=10.0)
        starts = [np.full(8, 0.3), np.zeros(8), np.full(8, -0.4)]  # the zero start is stationary
        want_d, want_w, want_at, lengths, stopped = per_run_checks(obj, starts, 20, 9)
        assert lengths == [20, 0, 20] and stopped == [False, True, False]
        runs_on_inner(monkeypatch)
        recorded = RecordedGradients(obj)
        same_reports(run_suite(recorded, starts, 20, 9), (want_d, want_w))
        assert len(want_w.armijo_pass) == 40
        assert recorded.at == want_at and len(want_at) == 2

    def test_only_empty_runs(self, monkeypatch):
        obj = RecordedGradients(isotropic_quadratic(3))
        runs_on_inner(monkeypatch)
        got = run_suite(obj, [np.zeros(3), np.zeros(3)], 5, 0)
        assert got == (DescentReport(0, math.inf), WolfeReport(armijo_pass=[], curvature_pass=[]))
        assert obj.at == []
        assert run_suite(obj, [], 5, 0) == got

    def test_run_that_does_not_join_up_is_refused(self, monkeypatch):
        obj = spd_quadratic(8, seed=202, condition=40.0)
        inner_run = theory.run_constrained
        first = []

        def gapped_second_run(x0, obj, max_iters, seed):
            traces, landing = inner_run(x0, obj.obj, max_iters, seed=seed)
            if not first:
                first.append(traces[-1].x_new.tobytes())
                return traces, landing
            return traces[:7] + traces[8:], landing

        monkeypatch.setattr(theory, "run_constrained", gapped_second_run)
        recorded = RecordedGradients(obj)
        starts = [np.full(8, 0.3), np.full(8, -0.3), np.full(8, 0.1)]
        with pytest.raises(ValueError, match="step 7 does not start where step 6 landed"):
            run_suite(recorded, starts, 10, 3)
        # the first run's landing gradient, none for the refused run, and no third run
        assert recorded.at == first

    def test_rejects_invalid_constant_pair_before_any_run(self, monkeypatch):
        # L = 0.5 makes c1 = 1/(2L) = 1, not below C2
        runs = []
        runs_on_inner(monkeypatch, runs)
        obj = RecordedGradients(Quadratic(2, np.diag([0.5, 0.25]), lipschitz_bound=0.5, name="q"))
        with pytest.raises(ValueError, match="0 < c1 < c2 < 1"):
            run_suite(obj, [np.ones(2)], 3, 0)
        assert runs == [] and obj.at == []

    @pytest.mark.parametrize("L", [None, 0.0, -1.0, math.inf, math.nan])
    def test_refuses_a_bound_that_is_not_finite_and_positive_before_any_run(self, L, monkeypatch):
        runs = []
        runs_on_inner(monkeypatch, runs)
        obj = RecordedGradients(isotropic_quadratic(2))
        obj.lipschitz_bound = L
        with pytest.raises(ValueError, match="lipschitz must be > 0 and finite"):
            run_suite(obj, [np.ones(2)], 3, 0)
        assert runs == [] and obj.at == []


class TestStartAliasing:
    def test_caller_start_is_copied_once(self):
        obj = spd_quadratic(5, seed=3)
        x0 = np.full(5, 0.5)
        traces, _ = run_constrained(x0, obj, 10, seed=2)
        x0[:] = 9.0
        assert traces[0].x1.tolist() == [0.5] * 5

    def test_each_step_starts_on_the_array_the_step_before_returned(self):
        obj = spd_quadratic(8, seed=101, condition=10.0)
        traces, _ = run_constrained(np.full(8, 0.3), obj, 20, seed=1)
        assert len(traces) == 20
        assert all(nxt.x1 is tr.x_new for tr, nxt in zip(traces, traces[1:]))
