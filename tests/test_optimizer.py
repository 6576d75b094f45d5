import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dycent import harness, theory
from dycent.harness import RunConfig, run_experiment
from dycent.objective import _TOY_B_LIMIT_R2, AnalyticObjective, isotropic_quadratic, spd_quadratic, toy_a, toy_b
from dycent.optimizer import (
    BETA,
    DycentConfig,
    DycentState,
    NonFiniteStepError,
    StepTrace,
    dycent_step,
    maybe_double,
    run_loop,
    update_average,
)
from dycent.theory import CONSTRAINED_CONFIG
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
            {"h": math.inf},
            {"epsilon": 0.0},
            {"epsilon": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DycentConfig(**kwargs)

    def test_defaults(self):
        assert DycentConfig() == DycentConfig(h=1e-2, epsilon=1e-8)
        assert [f.name for f in dataclasses.fields(DycentConfig)] == ["h", "epsilon"]
        assert BETA == 0.9

    def test_frozen(self):
        # every constrained run reads the one shared config, so no run may change it
        for cfg in (DycentConfig(), CONSTRAINED_CONFIG):
            with pytest.raises(dataclasses.FrozenInstanceError):
                cfg.epsilon = 1.0
        assert CONSTRAINED_CONFIG == DycentConfig(epsilon=1e-12)
        assert dataclasses.replace(CONSTRAINED_CONFIG, h=0.5) == DycentConfig(h=0.5, epsilon=1e-12)
        assert dataclasses.asdict(CONSTRAINED_CONFIG) == {"h": 1e-2, "epsilon": 1e-12}


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestUpdateAverage:
    def test_first_step_mode_seeds_average(self):
        st_ = state_with()
        assert update_average(st_, 0.5) == 0.5

    def test_later_steps_fold_into_average(self):
        st_ = state_with()
        update_average(st_, 1.0)
        assert update_average(st_, 0.0) == pytest.approx(0.9)

    @given(a=FINITE, d=FINITE, e=FINITE)
    def test_a_set_average_folds_and_an_unset_one_is_seeded(self, a, d, e):
        # the average is the state's one record of past steps: None until a step seeds it
        assert [f.name for f in dataclasses.fields(DycentState)] == ["rng", "d_avg"]
        st_ = state_with(d_avg=a)
        assert update_average(st_, d) == st_.d_avg == BETA * a + (1.0 - BETA) * d
        fresh = state_with()
        assert fresh.d_avg is None
        assert update_average(fresh, d) == fresh.d_avg == d
        assert update_average(fresh, e) == BETA * d + (1.0 - BETA) * e


class TestMaybeDouble:
    def test_doubles_below_average(self):
        d, doubled = maybe_double(0.05, 0.1)
        assert (d, doubled) == (0.1, True)

    def test_keeps_above_average(self):
        assert maybe_double(0.2, 0.1) == (0.2, False)

    def test_strict_inequality(self):
        assert maybe_double(0.1, 0.1) == (0.1, False)

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    def test_doubling_law(self, d, d_avg):
        got, doubled = maybe_double(d, d_avg)
        assert doubled == (d < d_avg)
        assert got == (2.0 * d if doubled else d)


class TestDycentStep:
    def test_one_step_reaches_quadratic_minimum(self):
        # closed form: at x with ||x|| = 1 and probe h = 0.1, the angle is
        # arctan(0.1) and d = 0.1 * cot(arctan 0.1) = 1.0, landing at 0
        obj = isotropic_quadratic(2)
        cfg = DycentConfig(h=0.1, epsilon=1e-12)
        x_new, tr = dycent_step(np.array([1.0, 0.0]), obj, cfg, state_with(0))
        assert tr.theta == pytest.approx(math.atan(0.1), abs=1e-9)
        assert tr.d_used == pytest.approx(1.0, rel=1e-9)
        assert np.linalg.norm(x_new) <= 1e-6

    def test_one_step_with_default_epsilon(self):
        obj = isotropic_quadratic(3)
        cfg = DycentConfig(h=0.1, epsilon=1e-8)
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
        # a doubled step is exactly twice the raw step
        obj = isotropic_quadratic(2)
        cfg = DycentConfig(h=0.1)
        st_ = state_with(0)
        x = np.array([1.0, 0.0])
        x, tr0 = dycent_step(x, obj, cfg, st_)
        assert not tr0.doubled  # the first step seeds the EMA with d itself
        x, tr1 = dycent_step(x, obj, cfg, st_)
        assert tr1.doubled
        assert tr1.d_used == 2.0 * tr1.d_raw

    def test_obtuse_angle_step_goes_backwards(self):
        # radius chosen so the probe straddles a ripple's orientation flip:
        # the two gradients point oppositely, theta > pi/2, and the negative
        # cot step is taken as is, back up the gradient
        obj = toy_b()
        cfg = DycentConfig(h=0.7)
        rng = np.random.default_rng(11)
        seen_negative = False
        for _ in range(10):
            # a fresh state per probe seeds the EMA with that probe's step, so none doubles
            _, tr = dycent_step(np.array([2.1, 0.0]), obj, cfg, DycentState(rng=rng))
            assert tr.d_used == tr.d_raw
            seen_negative |= tr.d_used < 0.0
        assert seen_negative


class TestFirstStep:
    """A step from a fresh DycentState seeds the EMA with its own d_raw, so it
    never doubles; the one-step oracles rely on this."""

    @settings(max_examples=150)
    @given(
        surface=st.sampled_from(["isotropic", "spd", "toy_b"]),
        dim=st.integers(2, 8),
        log_h=st.floats(-4.0, 0.0),
        log_epsilon=st.floats(-12.0, -1.0),
        start=st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_first_step_never_doubles(self, surface, dim, log_h, log_epsilon, start, seed):
        if surface == "isotropic":
            obj = isotropic_quadratic(dim)
        elif surface == "spd":
            obj = spd_quadratic(dim, seed=seed, condition=10.0)
        else:
            obj = toy_b()
        st_ = state_with(seed)
        cfg = DycentConfig(h=10.0**log_h, epsilon=10.0**log_epsilon)
        try:
            _, tr = dycent_step(np.array(start[: obj.dim]), obj, cfg, st_)
        except ZeroGradientError:
            assume(False)
        assert tr.doubled is False
        assert tr.d_used == tr.d_raw
        assert st_.d_avg == tr.d_raw


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
        cfg = DycentConfig(h=10.0**log_h)

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


def counting_steps(n, k=None, error=None):
    """n steps that each add 1 to x and return their index as the item; step k raises error."""
    def counting_step(i):
        def step(x):
            if i == k:
                raise error
            return x + 1.0, i
        return step

    return (counting_step(i) for i in range(n))


class TestRunLoopEnds:
    """run_loop returns (items, stop, last point): stop is None when the steps ran
    out, else the very ZeroGradientError or NonFiniteStepError a step raised."""

    def test_spent_budget_returns_none(self):
        items, stop, x = run_loop(np.zeros(2), counting_steps(3))
        assert (items, stop, x.tolist()) == ([0, 1, 2], None, [3.0, 3.0])

    @pytest.mark.parametrize("k", [0, 1, 4])
    @pytest.mark.parametrize(
        "make_error",
        [
            lambda: ZeroGradientError("stationary point: gradient vanished", np.zeros(2)),
            lambda: NonFiniteStepError("value at the new point is not finite (nan)"),
        ],
        ids=["zero_gradient", "non_finite"],
    )
    def test_stop_after_k_steps_is_the_error_raised(self, k, make_error):
        error = make_error()
        attributes = dict(vars(error))
        items, stop, x = run_loop(np.zeros(2), counting_steps(10, k, error))
        assert stop is error and vars(stop) == attributes  # returned as raised, nothing added
        assert items == list(range(k)) and x.tolist() == [float(k)] * 2

    def test_a_step_is_handed_the_point_alone(self):
        seen = []

        def step(x):
            seen.append(x.tolist())
            return x + 1.0, len(seen)

        items, stop, x = run_loop(np.zeros(2), (step for _ in range(3)))
        assert (items, stop, x.tolist()) == ([1, 2, 3], None, [3.0, 3.0])
        assert seen == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]

    def test_other_errors_propagate(self):
        with pytest.raises(ValueError, match="not a stop"):
            run_loop(np.zeros(2), counting_steps(10, 2, ValueError("not a stop")))

    def test_zero_gradient_start_returns_the_stepper_error(self):
        x0 = np.array([-2.0, 0.0])
        state = state_with()
        items, stop, x = run_loop(x0, ((lambda x: dycent_step(x, toy_a(), DycentConfig(), state)) for _ in range(5)))
        assert items == [] and type(stop) is ZeroGradientError
        assert stop.gradient.tobytes() == toy_a().gradient(x0).tobytes() and x.tolist() == x0.tolist()

    def test_zero_gradient_after_two_steps_holds_the_last_point_gradient(self):
        # toy_b from (3, 3) at seed 7 lands on a point with a zero gradient after 2 steps
        obj, state = toy_b(), state_with(seed=7)
        items, stop, x = run_loop(
            np.array([3.0, 3.0]), ((lambda x: dycent_step(x, obj, DycentConfig(h=0.01), state)) for _ in range(50))
        )
        assert len(items) == 2 and type(stop) is ZeroGradientError and x is items[-1].x_new
        assert stop.gradient.tobytes() == obj.gradient(x).tobytes() and not stop.gradient.any()

    @pytest.fixture
    def no_cyclic_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def test_stopped_experiment_frees_its_objective_without_the_cyclic_gc(self, no_cyclic_gc, tmp_path):
        # toy_b from (3, 3) at seed 7 stops at step 2 on a zero gradient
        cfg = RunConfig(objective="toy_b", optimizer="dycent", x0="toy_b_init", seed=7)
        prepared = harness._prepare(cfg)
        obj = weakref.ref(prepared[0])
        summary = run_experiment(cfg, out_dir=tmp_path, prepared=prepared)
        assert (summary["stop_reason"], summary["iterations"]) == ("stationary_point", 2)
        del prepared, summary
        assert obj() is None

    def test_stopped_constrained_run_frees_its_objective_without_the_cyclic_gc(self, no_cyclic_gc):
        quadratic = isotropic_quadratic(5)
        obj = weakref.ref(quadratic)
        traces, landing = theory.run_constrained(0.5 * np.ones(5), quadratic, 1.0, 10, seed=0)
        assert len(traces) == 1 and not landing.any()
        del quadratic, traces, landing
        assert obj() is None


class TestStartAliasing:
    """A step's trace keeps the array it started on; run_loop copies x0 once, so
    each step starts on the array the step before returned."""

    def test_caller_start_is_copied_once(self):
        x0 = np.array([3.0, 3.0])
        traces = dycent_run(x0, toy_b(), DycentConfig(h=1e-2), 5, seed=21)
        assert traces[0].x1 is not x0
        x0[:] = 7.0
        assert traces[0].x1.tolist() == [3.0, 3.0]

    def test_each_step_starts_on_the_array_the_step_before_returned(self):
        obj = spd_quadratic(4, seed=6)
        traces = dycent_run(np.full(4, 0.7), obj, DycentConfig(h=1e-2), 20, seed=3)
        assert len(traces) == 20
        for tr, nxt in zip(traces, traces[1:]):
            assert nxt.x1 is tr.x_new

    def test_run_loop_returns_the_last_step_array(self):
        obj = isotropic_quadratic(3)
        state = state_with(seed=2)
        def step(x):
            return dycent_step(x, obj, DycentConfig(h=0.05), state)
        traces, stop, x = run_loop(np.array([0.3, -0.2, 0.1]), (step for _ in range(4)))
        assert stop is None and x is traces[-1].x_new

    @pytest.mark.parametrize("scale", [1.0, 1e200])  # at 1e200 the gradient's square overflows
    def test_trace_gradient_norm_is_norm_of_g1(self, scale):
        c = scale * np.array([0.6, -0.8])
        obj = AnalyticObjective(2, lambda x: float(c.dot(x)), lambda x: c.copy())
        _, tr = dycent_step(np.zeros(2), obj, DycentConfig(h=0.01), state_with())
        assert tr.g1_norm == norm(tr.g1) == pytest.approx(scale)

    def test_direct_step_keeps_the_float64_array_passed(self):
        x = np.array([0.4, 0.2])
        _, tr = dycent_step(x, isotropic_quadratic(2), DycentConfig(h=0.01), state_with())
        assert tr.x1 is x
        # other input is converted, as np.asarray converts it
        _, tr = dycent_step([0.4, 0.2], isotropic_quadratic(2), DycentConfig(h=0.01), state_with())
        assert tr.x1.dtype == np.float64 and tr.x1.tolist() == [0.4, 0.2]

    def test_docstrings_state_the_rule(self):
        for doc in (dycent_step.__doc__, StepTrace.__doc__):
            assert "np.asarray(x)" in doc and "not a copy" in doc

    def test_trace_has_slots(self):
        _, tr = dycent_step(np.array([0.4, 0.2]), isotropic_quadratic(2), DycentConfig(h=0.01), state_with())
        assert not hasattr(tr, "__dict__")
        with pytest.raises(AttributeError):
            tr.extra = 1
