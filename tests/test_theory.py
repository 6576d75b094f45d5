import math

import numpy as np
import pytest

from dycent.objective import isotropic_quadratic, spd_quadratic, toy_b
from dycent.optimizer import DycentConfig, StepTrace, run
from dycent.theory import (
    check_armijo,
    check_curvature,
    check_descent,
    constrained_h,
    run_constrained,
    wolfe_report,
)
from dycent.vecmath import angle_between, make_rng, norm, sample_perpendicular


def fabricate_trace(f_before, f_after, d_used, grad=np.array([1.0, 0.0])):
    """Hand-built trace around x1 = (1, 0) with the given bookkeeping."""
    g1 = -np.asarray(grad, dtype=np.float64)
    p1 = np.array([0.0, 1.0])
    x1 = np.array([1.0, 0.0])
    return StepTrace(
        x1=x1,
        x2=x1 - 0.1 * p1,
        g1=g1,
        g2=g1.copy(),
        p1=p1,
        theta=math.pi / 4,
        d_raw=d_used,
        d_used=d_used,
        doubled=False,
        f_before=f_before,
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
    rng = make_rng(seed)
    x = np.asarray(x0, dtype=np.float64)
    f = obj.value(x)
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
        traces.append(StepTrace(x.copy(), x2, g1, g2, p1, theta, h_probe * cot_theta, d_used, False, f, f_after))
        x, f = x_new, f_after
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
                for name in ("x1", "x2", "g1", "g2", "p1", "theta", "d_used", "doubled", "f_before", "f_after"):
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
            report = check_descent(traces, 1.0, tol=1e-10)
            assert report.violations == 0
            assert report.min_decrease_margin >= -1e-10
            total += report.steps_checked
        assert total >= 100

    def test_empty_trajectory(self):
        report = check_descent([], 1.0)
        assert report.steps_checked == 0
        assert report.violations == 0

    def test_detects_fabricated_violation(self):
        # an f-increasing step can never satisfy the decrease bound
        bad = fabricate_trace(f_before=1.0, f_after=1.5, d_used=0.3)
        report = check_descent([bad], L=1.0, tol=1e-10)
        assert report.violations >= 1
        assert report.min_decrease_margin < 0


class TestCheckArmijo:
    def test_constrained_quadratic_step_passes(self):
        obj = isotropic_quadratic(4)
        x0 = np.full(4, 0.3)
        for tr in run_constrained(x0, obj, 1.0, 5, seed=3):
            assert check_armijo(tr, c1=0.5)

    def test_zero_step_passes_by_equality(self):
        tr = fabricate_trace(f_before=2.0, f_after=2.0, d_used=0.0)
        assert check_armijo(tr, c1=0.5)

    def test_ascent_step_fails(self):
        tr = fabricate_trace(f_before=1.0, f_after=1.2, d_used=0.3)
        assert not check_armijo(tr, c1=0.5)


class TestCheckCurvature:
    def test_landing_at_stationary_point_passes(self):
        obj = isotropic_quadratic(2)
        tr = run_constrained(np.array([0.6, 0.0]), obj, 1.0, 1, seed=4)[0]
        # the constrained quadratic step lands at (numerically) zero gradient
        assert check_curvature(tr, c2=0.9, obj=obj)

    def test_zero_length_step_fails_strict_bound(self):
        obj = isotropic_quadratic(2)
        tr = fabricate_trace(f_before=0.5, f_after=0.5, d_used=0.0)
        assert not check_curvature(tr, c2=0.9, obj=obj)

    def test_toy_b_fraction_reported_without_assertion(self):
        # measurement only: the curvature condition carries no guarantee
        obj = toy_b()
        traces = run(np.array([3.0, 3.0]), obj, DycentConfig(h=1e-2), 100, seed=0)
        report = wolfe_report(traces, obj, c1=1e-4, c2=0.9)
        assert len(report.curvature_pass) == len(traces)


class TestWolfeReport:
    def test_rates_and_lengths(self):
        obj = spd_quadratic(4, seed=6)
        traces = run_constrained(np.full(4, 0.3), obj, obj.lipschitz_bound, 10, seed=5)
        report = wolfe_report(traces, obj, c1=1.0 / (2.0 * obj.lipschitz_bound))
        assert all(report.armijo_pass)
        assert len(report.armijo_pass) == len(traces)

    def test_rejects_invalid_constant_pair(self):
        obj = isotropic_quadratic(2)
        with pytest.raises(ValueError):
            wolfe_report([], obj, c1=0.95, c2=0.9)
        with pytest.raises(ValueError):
            wolfe_report([], obj, c1=0.1, c2=1.0)
