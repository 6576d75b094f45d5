import dataclasses
import math

import numpy as np
import pytest

from dycent.objective import Objective, isotropic_quadratic, spd_quadratic, toy_b
from dycent.optimizer import DycentConfig, StepTrace, constrained_h
from dycent.theory import DescentReport, WolfeReport, check_descent, check_run, run_constrained, wolfe_report
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
        p1=p1,
        theta=math.pi / 4,
        d_raw=d_used,
        d_used=d_used,
        doubled=False,
        f_after=f_after,
    )


class TestConstrainedH:
    def test_unit_case(self):
        assert constrained_h(1.0, 1.0, math.pi / 4) == pytest.approx(1.0, rel=1e-15)

    def test_linear_in_grad_norm(self):
        assert constrained_h(2.0, 1.0, math.pi / 4) == pytest.approx(2.0, rel=1e-15)

    def test_step_cancels_to_grad_norm_over_l(self):
        # d = h * cot(theta) with h at the bound is grad_norm / L exactly
        for theta in (0.1, 0.5, 1.0, 1.5):
            for gn, L in ((1.0, 1.0), (3.7, 2.5), (0.02, 11.0)):
                h = constrained_h(gn, L, theta)
                d = h / math.tan(theta)
                assert abs(d - gn / L) <= 1e-12 * (gn / L)

    def test_flags_vacuous_angle(self):
        with pytest.raises(ValueError):
            constrained_h(1.0, 1.0, math.pi / 2)
        with pytest.raises(ValueError):
            constrained_h(1.0, 1.0, 2.0)

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            constrained_h(1.0, 0.0, 0.5)


class TestRunConstrained:
    def test_step_length_identity(self):
        obj = spd_quadratic(6, seed=5)
        traces = run_constrained(np.full(6, 0.4), obj, obj.lipschitz_bound, 15, seed=0)
        assert len(traces) == 15
        for tr in traces:
            gn = float(np.linalg.norm(tr.g1))
            assert abs(tr.d_used - gn / obj.lipschitz_bound) <= 1e-12 * (gn / obj.lipschitz_bound)

    def test_angle_stays_acute(self):
        obj = spd_quadratic(5, seed=8, condition=50.0)
        traces = run_constrained(np.full(5, 0.3), obj, obj.lipschitz_bound, 25, seed=1)
        assert all(tr.theta < math.pi / 2 for tr in traces)


def reference_run_constrained(x0, obj, L, max_iters, seed):
    """The constrained run written out as its own loop: probe at 0.01 * ||g|| / L,
    then step h_max * cot(theta) with h_max = ||g|| * tan(theta) / L."""
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
        h_max = grad_norm * math.tan(theta) / L
        cot_theta = 1.0 / math.tan(theta)
        d_used = h_max * cot_theta
        x_new = x + d_used * g1 / grad_norm
        f_after = obj.value(x_new)
        traces.append(StepTrace(x.copy(), x_new, x2, g1, p1, theta, h_probe * cot_theta, d_used, False, f_after))
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
            got = run_constrained(x0, obj, obj.lipschitz_bound, n_steps, seed=seed + 1000 + k)
            ref = reference_run_constrained(x0, obj, obj.lipschitz_bound, n_steps, seed + 1000 + k)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                for name in ("x1", "x_new", "x2", "g1", "p1", "theta", "d_used", "doubled", "f_after"):
                    assert same_bits(getattr(g, name), getattr(r, name)), name
                assert g.d_raw == pytest.approx(r.d_raw, rel=1e-15, abs=0.0)
            lengths.append(len(got))
        assert min(lengths) >= 1


class TestCheckDescent:
    def test_isotropic_quadratic_never_violates(self, rng):
        obj = isotropic_quadratic(3)
        total = 0
        for k in range(100):
            x0 = rng.standard_normal(3)
            x0 *= rng.uniform(0.1, 0.95) / np.linalg.norm(x0)
            traces = run_constrained(x0, obj, 1.0, 10, seed=k)
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


def one_step_wolfe(tr, f0, obj, c1, c2=0.9):
    """wolfe_report's (Armijo, curvature) verdicts on the one-step trajectory [tr] that starts at value f0."""
    report = wolfe_report([tr], f0, obj, c1=c1, c2=c2)
    return report.armijo_pass[0], report.curvature_pass[0]


class TestWolfeArmijo:
    def test_constrained_quadratic_step_passes(self):
        obj = isotropic_quadratic(4)
        x0 = np.full(4, 0.3)
        for tr in run_constrained(x0, obj, 1.0, 5, seed=3):
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
        tr = run_constrained(np.array([0.6, 0.0]), obj, 1.0, 1, seed=4)[0]
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
        traces = run_constrained(np.full(4, 0.3), obj, obj.lipschitz_bound, 10, seed=5)
        report = wolfe_report(traces, obj.value(traces[0].x1), obj, c1=1.0 / (2.0 * obj.lipschitz_bound))
        assert all(report.armijo_pass)
        assert len(report.armijo_pass) == len(traces)

    def test_rejects_invalid_constant_pair(self):
        obj = isotropic_quadratic(2)
        with pytest.raises(ValueError):
            wolfe_report([], 0.0, obj, c1=0.95, c2=0.9)
        with pytest.raises(ValueError):
            wolfe_report([], 0.0, obj, c1=0.1, c2=1.0)


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
        yield obj, run_constrained(x0, obj, obj.lipschitz_bound, n_steps, seed=probe_seed), obj.value(x0)


class RecordedGradients(Objective):
    """obj, recording the bytes of every point its gradient is evaluated at."""

    def __init__(self, obj):
        self.obj, self.dim, self.at = obj, obj.dim, []

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
    with pytest.raises(ValueError, match=match):
        check_run(trajectory, 0.0, recorded, obj.lipschitz_bound, c1=0.4)
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
        tr = run_constrained(np.full(8, 0.3), obj, obj.lipschitz_bound, 1, seed=2)
        at = assert_checks_match_scalar_loops(tr, obj.value(tr[0].x1), obj, obj.lipschitz_bound, 0.4)
        assert at == [tr[0].x_new.tobytes()]

    def test_nan_start_value_is_a_violation(self):
        # a NaN margin fails the decrease check as it fails the Armijo check;
        # the minimum margin skips it, so the theory JSON stays valid
        obj = spd_quadratic(8, seed=101, condition=10.0)
        tr = run_constrained(np.full(8, 0.3), obj, obj.lipschitz_bound, 1, seed=2)
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


def same_reports(got, want):
    """Two (DescentReport, WolfeReport) pairs are equal, the minimum margin bit for bit."""
    (got_d, got_w), (want_d, want_w) = got, want
    assert got_d.violations == want_d.violations
    assert np.float64(got_d.min_decrease_margin).tobytes() == np.float64(want_d.min_decrease_margin).tobytes()
    assert got_w == want_w


class TestCheckRun:
    """check_run reads a run once and reports what check_descent and wolfe_report report."""

    def test_theory_suite_runs(self):
        steps = 0
        for obj, traces, f0 in suite_trajectories(0):
            L = obj.lipschitz_bound
            got_obj, want_obj = RecordedGradients(obj), RecordedGradients(obj)
            got = check_run(traces, f0, got_obj, L, c1=1.0 / (2.0 * L), c2=0.9, tol=1e-10)
            want = (
                check_descent(traces, f0, L, tol=1e-10),
                wolfe_report(traces, f0, want_obj, c1=1.0 / (2.0 * L), c2=0.9),
            )
            same_reports(got, want)
            assert got_obj.at == want_obj.at == [traces[-1].x_new.tobytes()]
            steps += len(traces)
        assert steps == 10_327

    def test_empty_run(self):
        # a zero-gradient start logs no step
        obj = RecordedGradients(spd_quadratic(8, seed=101, condition=10.0))
        traces = run_constrained(np.zeros(8), obj, obj.obj.lipschitz_bound, 20, seed=1000)
        assert traces == []
        got = check_run(traces, 0.0, obj, obj.obj.lipschitz_bound, c1=0.4)
        assert got == (DescentReport(0, math.inf), WolfeReport(armijo_pass=[], curvature_pass=[]))
        same_reports(got, (check_descent(traces, 0.0, 1.0), wolfe_report(traces, 0.0, obj, c1=0.4)))
        assert obj.at == [np.zeros(8).tobytes()]  # run_constrained's own gradient, none from the checks

    def test_tolerance_and_curvature_constant(self):
        obj = spd_quadratic(8, seed=202, condition=40.0)
        traces = run_constrained(np.full(8, 0.3), obj, obj.lipschitz_bound, 10, seed=3)
        f0 = obj.value(traces[0].x1)
        for tol, c2 in [(0.0, 0.5), (1e-3, 0.99), (-1.0, 0.2)]:
            got = check_run(traces, f0, obj, 2.0, c1=0.1, c2=c2, tol=tol)
            same_reports(got, (check_descent(traces, f0, 2.0, tol), wolfe_report(traces, f0, obj, 0.1, c2)))

    @pytest.mark.parametrize("c1, c2", [(0.0, 0.9), (0.5, 0.5), (0.5, 1.0)])
    def test_rejects_invalid_constant_pair_before_reading_the_run(self, c1, c2):
        obj = RecordedGradients(isotropic_quadratic(2))
        with pytest.raises(ValueError, match="0 < c1 < c2 < 1"):
            check_run([fabricate_trace(0.0, 0.5), fabricate_trace(0.0, 0.5)], 0.0, obj, 1.0, c1=c1, c2=c2)
        assert obj.at == []


class TestRefusesNonConsecutiveSteps:
    """Each step's start value is the f_after of the step before, so a trajectory
    whose steps do not join up bit for bit is refused."""

    def test_gap(self):
        obj = spd_quadratic(8, seed=202, condition=40.0)
        traces = run_constrained(np.full(8, 0.3), obj, obj.lipschitz_bound, 10, seed=3)
        assert len(traces) == 10
        assert_refused(traces[:7] + traces[8:], obj, 7)

    def test_landing_differs_from_next_start_only_in_the_sign_of_a_zero(self):
        obj = spd_quadratic(3, seed=7)
        a, b = run_constrained(np.array([0.3, 0.2, 0.1]), obj, obj.lipschitz_bound, 2, seed=5)
        a = dataclasses.replace(a, x_new=np.array([0.0, 0.25, -0.5]))
        b = dataclasses.replace(b, x1=np.array([-0.0, 0.25, -0.5]))
        assert_refused([a, b], obj, 1)

    def test_start_value_is_one_float(self):
        obj = spd_quadratic(2, seed=6)
        traces = run_constrained(np.array([0.6, 0.4]), obj, obj.lipschitz_bound, 2, seed=6)
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
    # cancels theta, so each step is x - grad / L up to rounding
    steps = 0
    for obj, traces, _ in suite_trajectories(0):
        L = obj.lipschitz_bound
        x = x0 = traces[0].x1
        for tr in traces:
            assert abs(tr.d_used * L / norm(tr.g1) - 1.0) <= 2.3e-16
            x = x - obj.gradient(x) / L
        assert norm(x - traces[-1].x_new) <= 1e-15 * norm(x0)
        steps += len(traces)
    assert steps == 10_327  # the suite's steps_checked at seed 0
