import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dycent.harness import RunConfig, run_experiment
from dycent.objective import _TOY_B_LIMIT_R2, AnalyticObjective, isotropic_quadratic, spd_quadratic, toy_a, toy_b
from dycent.optimizer import (
    DycentConfig,
    DycentState,
    NonFiniteStepError,
    dycent_step,
    maybe_double,
    update_average,
)
from dycent.vecmath import ZeroGradientError, norm, sample_perpendicular

from oracles import dycent_run


def state_with(seed=0, **kwargs):
    return DycentState(rng=np.random.default_rng(seed), **kwargs)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0.0},
            {"h": -1.0},
            {"beta": 1.0},
            {"beta": -0.1},
            {"epsilon": 0.0},
            {"d_avg_init_mode": "bogus"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DycentConfig(**kwargs)

    def test_defaults(self):
        cfg = DycentConfig()
        assert cfg.beta == 0.9
        assert cfg.epsilon == 1e-8
        assert cfg.enable_doubling
        assert not cfg.clamp_nonnegative_step
        assert cfg.d_avg_init_mode == "first_step"


class TestUpdateAverage:
    def test_zero_mode_ema(self):
        cfg = DycentConfig(beta=0.9, d_avg_init_mode="zero")
        st_ = state_with()
        assert update_average(st_, cfg, 1.0) == pytest.approx(0.1)

    def test_first_step_mode_seeds_average(self):
        cfg = DycentConfig(beta=0.9, d_avg_init_mode="first_step")
        st_ = state_with()
        assert update_average(st_, cfg, 0.5) == 0.5

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=20))
    def test_beta_zero_tracks_last(self, ds):
        cfg = DycentConfig(beta=0.0, d_avg_init_mode="zero")
        st_ = state_with()
        for d in ds:
            got = update_average(st_, cfg, d)
            st_.step_count += 1
            assert got == d


class TestMaybeDouble:
    def test_doubles_below_average(self):
        d, doubled = maybe_double(0.05, 0.1, DycentConfig())
        assert (d, doubled) == (0.1, True)

    def test_keeps_above_average(self):
        assert maybe_double(0.2, 0.1, DycentConfig()) == (0.2, False)

    def test_strict_inequality(self):
        assert maybe_double(0.1, 0.1, DycentConfig()) == (0.1, False)

    def test_disabled(self):
        cfg = DycentConfig(enable_doubling=False)
        assert maybe_double(0.05, 0.1, cfg) == (0.05, False)

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    def test_doubling_law(self, d, d_avg):
        got, doubled = maybe_double(d, d_avg, DycentConfig())
        assert doubled == (d < d_avg)
        assert got == (2.0 * d if doubled else d)


class TestDycentStep:
    def test_one_step_reaches_quadratic_minimum(self):
        # closed form: at x with ||x|| = 1 and probe h = 0.1, the angle is
        # arctan(0.1) and d = 0.1 * cot(arctan 0.1) = 1.0, landing at 0
        obj = isotropic_quadratic(2)
        cfg = DycentConfig(h=0.1, epsilon=1e-12, enable_doubling=False)
        x_new, tr = dycent_step(np.array([1.0, 0.0]), obj, cfg, state_with(0))
        assert tr.theta == pytest.approx(math.atan(0.1), abs=1e-9)
        assert tr.d_used == pytest.approx(1.0, rel=1e-9)
        assert np.linalg.norm(x_new) <= 1e-6

    def test_one_step_with_default_epsilon(self):
        obj = isotropic_quadratic(3)
        cfg = DycentConfig(h=0.1, epsilon=1e-8, enable_doubling=False)
        x0 = np.array([0.6, -0.8, 0.0])
        x_new, _ = dycent_step(x0, obj, cfg, state_with(1))
        assert np.linalg.norm(x_new) <= 1e-6

    def test_cot_at_45_degrees(self):
        # theta = pi/4 makes the step equal the probe distance
        d_raw = 0.01 / math.tan(math.pi / 4 + 1e-12)
        assert d_raw == pytest.approx(0.01, rel=1e-9)

    def test_stationary_point_signalled(self):
        with pytest.raises(ZeroGradientError):
            dycent_step(np.array([-2.0, 0.0]), toy_a(), DycentConfig(), state_with())

    def test_lipschitz_is_keyword_only(self):
        # a positional fifth argument must not switch on constrained mode
        with pytest.raises(TypeError):
            dycent_step(np.array([1.0, 0.0]), isotropic_quadratic(2), DycentConfig(), state_with(), 1.0)

    def test_nan_gradient_raises_before_value(self, bounded_rng):
        def value(x):
            raise AssertionError("value evaluated at a point with a NaN gradient")

        obj = AnalyticObjective(2, value, lambda x: np.array([math.nan, 1.0]))
        with pytest.raises(NonFiniteStepError, match="gradient is not finite"):
            dycent_step(np.array([0.5, -0.5]), obj, DycentConfig(), DycentState(rng=bounded_rng))

    def test_nan_probe_gradient_raises(self):
        # finite at x, NaN at the probe: the angle must not read as 0, which
        # would step h * cot(epsilon) = 1e6 without an error
        x = np.array([1.0, 0.0])
        obj = AnalyticObjective(
            2, lambda p: 0.5, lambda p: x if np.array_equal(p, x) else np.array([math.nan, 1.0])
        )
        with pytest.raises(NonFiniteStepError, match="probe gradient is not finite"):
            dycent_step(x, obj, DycentConfig(), state_with())

    def test_gradients_with_overflowing_squares(self):
        # g1 . g1 and g2 . g2 overflow: the step takes norm()'s rescaled
        # value, and the angle its rescaled cosine, as direct calls would
        obj = AnalyticObjective(2, lambda p: 0.0, lambda p: np.array([-1e200, -1.0]))
        x = np.array([0.5, -0.5])
        cfg = DycentConfig()
        x_new, tr = dycent_step(x, obj, cfg, state_with())
        assert tr.theta == cfg.epsilon
        assert np.array_equal(tr.p1, sample_perpendicular(tr.g1, np.random.default_rng(0)))
        assert np.array_equal(x_new, x + tr.d_used * tr.g1 / norm(tr.g1))
        assert x_new[0] == pytest.approx(0.5 + cfg.h / math.tan(cfg.epsilon), rel=1e-15)

    def test_non_finite_value_at_new_point_raises(self):
        x = np.array([0.6, -0.8])
        obj = AnalyticObjective(2, lambda p: 1.0 if np.array_equal(p, x) else math.inf, lambda p: p)
        with pytest.raises(NonFiniteStepError, match=r"value at the new point is not finite \(inf\)"):
            dycent_step(x, obj, DycentConfig(), state_with())

    def test_trace_geometry(self):
        obj = toy_b()
        cfg = DycentConfig(h=1e-2)
        st_ = state_with(5)
        x = np.array([3.0, 3.0])
        for _ in range(2):
            x, tr = dycent_step(x, obj, cfg, st_)
            # probe consistency
            assert np.array_equal(tr.x2, tr.x1 - cfg.h * tr.p1)
            assert abs(np.linalg.norm(tr.p1) - 1.0) <= 1e-12
            assert abs(np.dot(tr.p1, tr.g1)) <= 1e-10 * np.linalg.norm(tr.g1)
            # reconstruction
            assert tr.theta >= cfg.epsilon
            assert tr.d_raw == pytest.approx(cfg.h / math.tan(tr.theta), rel=1e-12)
            g1n = np.linalg.norm(tr.g1)
            assert np.array_equal(x, tr.x1 + tr.d_used * tr.g1 / g1n)

    def test_doubled_implies_twice_raw(self):
        # after the one-shot quadratic step the next raw d is tiny, far
        # below the EMA seeded by step one, so the doubling branch fires;
        # with the clamp off a doubled step is exactly twice the raw step
        obj = isotropic_quadratic(2)
        cfg = DycentConfig(h=0.1)
        st_ = state_with(0)
        x = np.array([1.0, 0.0])
        x, tr0 = dycent_step(x, obj, cfg, st_)
        assert not tr0.doubled  # first_step mode seeds the EMA with d itself
        x, tr1 = dycent_step(x, obj, cfg, st_)
        assert tr1.doubled
        assert tr1.d_used == 2.0 * tr1.d_raw

    def test_clamp_keeps_steps_nonnegative(self):
        # radius chosen so the probe straddles a ripple's orientation flip:
        # the two gradients point oppositely, theta > pi/2, raw d < 0
        obj = toy_b()
        cfg = DycentConfig(h=0.7, enable_doubling=False, clamp_nonnegative_step=True)
        st_ = state_with(11)
        seen_negative_raw = False
        for _ in range(10):
            _, tr = dycent_step(np.array([2.1, 0.0]), obj, cfg, st_)
            seen_negative_raw |= tr.d_raw < 0.0
            assert tr.d_used >= 0.0
        assert seen_negative_raw

    def test_step_count_increments(self):
        st_ = state_with(0)
        obj = isotropic_quadratic(2)
        x = np.array([1.0, 2.0])
        for expected in (1, 2, 3):
            x, _ = dycent_step(x, obj, DycentConfig(), st_)
            assert st_.step_count == expected


class TestSpdQuadraticOracle:
    """dycent_step against the closed form of its geometry on f = x^T A x / 2.

    The probe gradient is exact there: with g = -grad f, g2 = g1 + q where
    q = h * A @ p1, so the angle follows from q's parts along and across g1.
    """

    @settings(max_examples=200)
    @given(
        dim=st.integers(2, 10),
        log_condition=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**16),
        log_scale=st.floats(-3.0, 3.0),
        log_h=st.floats(-4.0, 0.0),
    )
    def test_step_matches_closed_form(self, dim, log_condition, seed, log_scale, log_h):
        obj = spd_quadratic(dim, seed=seed, condition=10.0**log_condition)
        a = np.column_stack([obj.gradient(e) for e in np.eye(dim)])  # exact: A @ e_i is column i
        x = np.random.default_rng(seed).standard_normal(dim)
        x *= 10.0**log_scale / np.linalg.norm(x)
        cfg = DycentConfig(h=10.0**log_h, enable_doubling=False)

        x_new, tr = dycent_step(x, obj, cfg, state_with(seed))

        g1_norm = np.linalg.norm(tr.g1)
        g1_hat = tr.g1 / g1_norm
        q = cfg.h * (a @ tr.p1)
        along = float(q @ g1_hat)
        across = np.linalg.norm(q - along * g1_hat)
        theta_cf = math.atan2(across, g1_norm + along) + cfg.epsilon
        # below ~1e-3 rad, acos in angle_between keeps only about half the digits
        assume(theta_cf >= 1e-3)
        assert abs(tr.theta - theta_cf) <= 1e-8 * theta_cf
        d_cf = cfg.h / math.tan(theta_cf)
        assert abs(tr.d_raw - d_cf) <= 1e-8 * abs(d_cf)
        assert np.array_equal(x_new, tr.x1 + tr.d_used * tr.g1 / norm(tr.g1))


class TestSpdQuadraticDivergence:
    """Why the stepper diverges on the default spd_quadratic run (dim 5,
    condition 10, start all ones, h = 1e-3): the step's geometry, not the
    resolution of the angle.

    With g2 = g1 + h A p1 and p1 perpendicular to g1, cot(theta) is
    (||g1|| + h (A p1).g1_hat) / (h ||(A p1) across g1||), so for small h
    the step h cot(theta) tends to ||g1|| / ||(A p1) across g1||: a
    curvature across g1, which says nothing about how far f falls along it.
    """

    obj = spd_quadratic(5, seed=0, condition=10.0)
    cfg = DycentConfig(h=1e-3)

    def across_curvature_step(self, tr):
        a_p1 = self.obj.gradient(tr.p1)  # exact: A @ p1
        g1_hat = tr.g1 / np.linalg.norm(tr.g1)
        return np.linalg.norm(tr.g1) / np.linalg.norm(a_p1 - (a_p1 @ g1_hat) * g1_hat)

    def test_small_h_step_is_the_across_curvature_closed_form(self):
        x0 = np.ones(5)
        worst = 0.0
        for seed in range(1_000):
            _, tr = dycent_step(x0, self.obj, self.cfg, state_with(seed))
            worst = max(worst, abs(tr.d_raw / self.across_curvature_step(tr) - 1.0))
        assert worst <= 1e-3  # 2.0e-4 over these probes

    def test_first_step_overshoots_the_line_minimum(self):
        x0 = np.ones(5)
        traces = dycent_run(x0, self.obj, self.cfg, 4, seed=0)
        g1 = traces[0].g1
        line_min = np.linalg.norm(g1) ** 3 / (g1 @ self.obj.gradient(g1))  # ||g1||^3 / (g1^T A g1)
        # the measured angle is the exact one to 1e-8, and the step still overshoots 2.6x
        q = self.cfg.h * self.obj.gradient(traces[0].p1)
        g1_norm = np.linalg.norm(g1)
        along = q @ g1 / g1_norm
        theta_exact = math.atan2(np.linalg.norm(q - along * g1 / g1_norm), g1_norm + along) + self.cfg.epsilon
        assert traces[0].theta == pytest.approx(theta_exact, rel=1e-8)
        assert traces[0].theta == pytest.approx(2.722e-4, rel=1e-3)
        assert traces[0].d_used == pytest.approx(3.673, rel=1e-3)
        assert line_min == pytest.approx(1.391, rel=1e-3)
        assert self.obj.value(x0) == pytest.approx(1.097, rel=1e-3)
        assert traces[0].f_after == pytest.approx(2.627, rel=1e-3)
        assert traces[3].f_after == pytest.approx(44.38, rel=1e-3)


class TestRadialOracle:
    """On a radial surface every gradient line passes through the centre, so
    the two gradient lines of a step meet there: |d_raw| = |h cot(theta)| is
    ||x1|| whatever h is, and the shipped toy_b run is a symmetry jump.
    d_raw is -||x1|| on toy_b where the probe crosses a ripple crest, so that
    g2 turns against g1 and theta is near pi.

    With the probe exactly perpendicular, tan(theta_true) = +-h / r for r = ||x1||.
    The stepper adds epsilon to the angle, and to first order a change e in
    theta moves d_raw by -e / (sin(theta) cos(theta)) relative, which is
    e * (r/h + h/r). The rounding term rho adds to epsilon: the probe's tilt
    toward the centre |p1 . x1| / r, which sample_perpendicular's one
    projection leaves at up to about 1e4 u in 2-D, and the cosine's rounding
    of about (2n + 3) u, which acos turns into that over sin(theta).
    """

    @pytest.mark.parametrize(
        "obj", [toy_b(), isotropic_quadratic(2), isotropic_quadratic(5)], ids=["toy_b", "isotropic_2d", "isotropic_5d"]
    )
    def test_d_raw_is_the_distance_to_the_centre(self, obj):
        cfg = DycentConfig(h=1e-2)
        u = 2.0**-53
        rng = np.random.default_rng(2)
        worst = 0.0
        for k in range(1000):
            x = rng.standard_normal(obj.dim)
            x *= math.exp(rng.uniform(math.log(1e-3), math.log(31.0))) / norm(x)
            r = norm(x)
            _, tr = dycent_step(x, obj, cfg, state_with(k))
            sin_theta = cfg.h / math.hypot(cfg.h, r)
            rho = abs(float(tr.p1 @ x)) / r + (2 * obj.dim + 3) * u / sin_theta
            bound = (cfg.epsilon + 2.0 * rho) * (r / cfg.h + cfg.h / r)
            assert abs(abs(tr.d_raw) - r) <= bound * r
            worst = max(worst, abs(abs(tr.d_raw) - r) / r)
        # at r near 31 the epsilon term alone is about 3e-5
        assert 1e-5 < worst < 4e-5

    def test_shipped_toy_b_run_jumps_out_then_to_the_centre(self, tmp_path):
        # configs/toy_b_compare.ini's dycent section: from (3, 3) the descent
        # direction points away from the centre, so step 1 lands near (6, 6)
        # and step 2 crosses to the centre
        traces = dycent_run(np.array([3.0, 3.0]), toy_b(), DycentConfig(h=0.01), 1000, seed=7)
        assert len(traces) == 2
        first, second = traces
        assert first.d_raw == 4.242622686953838  # sqrt(18) less the epsilon term, 1.8e-5
        assert np.allclose(first.x_new, [6.0, 6.0], rtol=0, atol=1e-4)
        assert float(second.x_new @ second.x_new) < _TOY_B_LIMIT_R2
        summary = run_experiment(
            RunConfig(objective="toy_b", optimizer="dycent", x0="toy_b_init", seed=7, optimizer_params={"h": 0.01}),
            tmp_path,
        )
        assert (summary["iterations"], summary["stop_reason"], summary["best_f"]) == (2, "stationary_point", -1.0)


class TestRun:
    def test_toy_b_trajectory_finite(self):
        # the radial geometry sends the iterate to the patched origin in a
        # couple of jumps; the run then stops at the stationary signal
        traces = dycent_run(np.array([3.0, 3.0]), toy_b(), DycentConfig(h=1e-2), 1000, seed=7)
        assert 1 <= len(traces) <= 1000
        for tr in traces:
            assert np.all(np.isfinite(tr.x1))
            assert math.isfinite(tr.f_after)
            assert math.isfinite(tr.d_used)
        assert traces[-1].f_after == pytest.approx(-1.0, abs=1e-9)

    def test_quadratic_converges_within_three_iters(self, rng):
        obj = isotropic_quadratic(4)
        for trial in range(10):
            x0 = rng.standard_normal(4)
            x0 *= rng.uniform(0.5, 3.0) / np.linalg.norm(x0)
            cfg = DycentConfig(h=0.1 * np.linalg.norm(x0), epsilon=1e-12)
            traces = dycent_run(x0, obj, cfg, 3, seed=trial)
            assert np.linalg.norm(
                traces[-1].x1
                + traces[-1].d_used * traces[-1].g1 / np.linalg.norm(traces[-1].g1)
            ) <= 1e-6

    def test_deterministic_bitwise(self):
        x0 = np.array([3.0, 3.0])
        a = dycent_run(x0, toy_b(), DycentConfig(h=1e-2), 50, seed=21)
        b = dycent_run(x0, toy_b(), DycentConfig(h=1e-2), 50, seed=21)
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.x1, tb.x1)
            assert np.array_equal(ta.p1, tb.p1)
            assert ta.theta == tb.theta
            assert ta.d_used == tb.d_used
            assert ta.f_after == tb.f_after

    def test_scale_equivariance_on_quadratic(self):
        # scaling the objective by 10 scales both gradients together, so
        # the angle, the step and the iterates are unchanged
        base = isotropic_quadratic(3)
        scaled = AnalyticObjective(
            3, lambda x: 10.0 * base.value(x), lambda x: 10.0 * base.gradient(x)
        )
        x0 = np.array([1.0, -2.0, 0.5])
        cfg = DycentConfig(h=0.1)
        t1 = dycent_run(x0, base, cfg, 30, seed=42)
        t2 = dycent_run(x0, scaled, cfg, 30, seed=42)
        assert len(t1) == len(t2)
        for ta, tb in zip(t1, t2):
            assert np.max(np.abs(ta.x1 - tb.x1)) <= 1e-12
            assert abs(ta.d_used - tb.d_used) <= 1e-12 * max(1.0, abs(ta.d_used))

    def test_stationary_start_returns_empty(self):
        traces = dycent_run(np.array([-2.0, 0.0]), toy_a(), DycentConfig(), 100, seed=0)
        assert traces == []
