import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycent.baselines import (
    METHODS,
    BaselineConfig,
    BaselineState,
    angular_coefficient,
    baseline_step,
    baseline_stepper,
    friction_coefficient,
)
from dycent.objective import AnalyticObjective, isotropic_quadratic, toy_a
from dycent.optimizer import NonFiniteStepError, run_loop
from dycent.vecmath import DimensionError, ZeroGradientError
from oracles import python_float_baseline_step

bounded_arrays = st.lists(
    st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8
).map(lambda v: np.asarray(v, dtype=np.float64))


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_states(a, b):
    for name in ("m", "v", "prev_grad"):
        assert_same_bits(getattr(a, name), getattr(b, name))
    assert a.step_count == b.step_count


@st.composite
def gradient_runs(draw):
    """A start point and 1-5 gradients to step with, all of one dimension in 1-8."""
    dim = draw(st.integers(min_value=1, max_value=8))
    vectors = st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=dim, max_size=dim).map(
        lambda v: np.asarray(v, dtype=np.float64)
    )
    return draw(vectors), draw(st.lists(vectors, min_size=1, max_size=5))


learning_rates = st.floats(min_value=1e-6, max_value=1.0)
# two gradients whose second components make 1 + prev*g == 0: theta = 90 deg
_PERPENDICULAR_RUN = (np.zeros(2), [np.array([0.0, 1.0]), np.array([0.0, -1.0])])


def baseline_records(x0, obj, cfg, n):
    """The records of n steps of the configured baseline from x0, as the harness runs them;
    a zero gradient ends them, and a non-finite step raises."""
    step = baseline_stepper(obj, cfg, BaselineState.zeros(x0.size))
    records, stop, _ = run_loop(x0, (step for _ in range(n)))
    if isinstance(stop, NonFiniteStepError):
        raise stop
    return records


def constant_gradient_objective(g):
    g = np.asarray(g, dtype=np.float64)
    return AnalyticObjective(g.size, lambda x: float(g @ x), lambda x: g.copy())


class TestConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            BaselineConfig(method="adamw")

    @pytest.mark.parametrize("kwargs", [{"lr": 0.0}, {"lr": -1.0}, {"lr": math.nan}, {"lr": math.inf}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BaselineConfig(method="adam", **kwargs)


class TestSgdFamily:
    def test_sgd_hand_step(self):
        obj = isotropic_quadratic(2)
        cfg = BaselineConfig(method="sgd", lr=0.1)
        x0 = np.array([1.0, 0.0])
        x = baseline_step(x0, obj.gradient(x0), cfg, BaselineState.zeros(2))
        assert np.array_equal(x, np.array([0.9, 0.0]))

    def test_sgdm_hand_steps_use_momentum_0_9(self):
        # a constant gradient: the velocity is g, then 0.9*g + g
        g = np.array([1.0, -2.0])
        obj = constant_gradient_objective(g)
        cfg = BaselineConfig(method="sgdm", lr=0.5)
        state = BaselineState.zeros(2)
        x1 = baseline_step(np.zeros(2), obj.gradient(np.zeros(2)), cfg, state)
        assert np.array_equal(x1, -0.5 * g)
        x2 = baseline_step(x1, obj.gradient(x1), cfg, state)
        assert np.array_equal(state.m, 0.9 * g + g)
        assert np.array_equal(x2, x1 - 0.5 * (0.9 * g + g))

    def test_state_of_another_dimension_rejected(self):
        obj = isotropic_quadratic(3)
        x0 = np.ones(3)
        with pytest.raises(DimensionError, match="state dimension"):
            baseline_step(x0, obj.gradient(x0), BaselineConfig(method="sgd"), BaselineState.zeros(2))

    @pytest.mark.parametrize("g_shape", [(1,), (3,)])
    @pytest.mark.parametrize("method", METHODS)
    def test_gradient_of_another_dimension_rejected(self, method, g_shape):
        # a (1,) gradient would broadcast over a 2-D point, a (3,) one would fail inside numpy
        cfg = BaselineConfig(method=method, lr=0.1)
        x0 = np.array([1.0, -2.0])
        state = BaselineState.zeros(2)
        baseline_step(x0, np.array([0.5, 0.25]), cfg, state)
        before = copy.deepcopy(state)
        with pytest.raises(DimensionError, match="gradient dimension"):
            baseline_step(x0, np.ones(g_shape), cfg, state)
        assert_same_states(state, before)


class TestAdamFamily:
    def test_adam_first_step_is_signed_lr(self):
        # hand computation: m1_hat = g, v1_hat = g^2, so the first update is
        # lr * g / (|g| + eps), i.e. sign(g) scaled by almost exactly lr
        g = np.array([3.0, -0.25, 0.004])
        obj = constant_gradient_objective(g)
        cfg = BaselineConfig(method="adam", lr=1e-3)
        x0 = np.zeros(3)
        x1 = baseline_step(x0, obj.gradient(x0), cfg, BaselineState.zeros(3))
        expected = -cfg.lr * g / (np.abs(g) + 1e-8)
        assert np.array_equal(x1, expected)
        assert np.all(np.sign(x1) == -np.sign(g))
        assert np.linalg.norm(x1 - (-cfg.lr * np.sign(g))) <= cfg.lr * 1e-4

    def test_adam_bias_correction_first_step(self):
        g = np.array([0.7, -1.3])
        obj = constant_gradient_objective(g)
        cfg = BaselineConfig(method="adam")
        state = BaselineState.zeros(2)
        baseline_step(np.zeros(2), obj.gradient(np.zeros(2)), cfg, state)
        m_hat = state.m / (1.0 - 0.9)
        v_hat = state.v / (1.0 - 0.999)
        assert m_hat == pytest.approx(g, rel=1e-14)
        assert v_hat == pytest.approx(g * g, rel=1e-14)

    def test_adabelief_tracks_belief_residual(self):
        g = np.array([2.0])
        obj = constant_gradient_objective(g)
        cfg = BaselineConfig(method="adabelief")
        state = BaselineState.zeros(1)
        baseline_step(np.zeros(1), obj.gradient(np.zeros(1)), cfg, state)
        expected_v = (1.0 - 0.999) * (g - state.m) ** 2 + 1e-8
        assert state.v == pytest.approx(expected_v, rel=1e-14)

    def test_diffgrad_is_friction_scaled_adam(self):
        g = np.array([1.5, -0.5])
        obj = constant_gradient_objective(g)
        x0 = np.zeros(2)
        adam_x = baseline_step(x0, obj.gradient(x0), BaselineConfig(method="adam"), BaselineState.zeros(2))
        diff_x = baseline_step(x0, obj.gradient(x0), BaselineConfig(method="diffgrad"), BaselineState.zeros(2))
        friction = friction_coefficient(np.zeros(2), g)
        assert diff_x == pytest.approx(friction * adam_x, rel=1e-14)

    @pytest.mark.parametrize("flavor", ["cos", "tan"])
    def test_angulargrad_is_coefficient_scaled_adam(self, flavor):
        g = np.array([1.5, -0.5])
        obj = constant_gradient_objective(g)
        x0 = np.zeros(2)
        adam_x = baseline_step(x0, obj.gradient(x0), BaselineConfig(method="adam"), BaselineState.zeros(2))
        ang_x = baseline_step(
            x0, obj.gradient(x0), BaselineConfig(method=f"angulargrad_{flavor}"), BaselineState.zeros(2)
        )
        coeff = angular_coefficient(np.zeros(2), g, flavor)
        assert ang_x == pytest.approx(coeff * adam_x, rel=1e-14)


class TestConstants:
    @pytest.mark.parametrize("method", METHODS)
    @given(lr=learning_rates, run=gradient_runs())
    @example(lr=0.1, run=_PERPENDICULAR_RUN)
    @settings(max_examples=50, deadline=None)
    def test_matches_python_float_constants(self, method, lr, run):
        # the 0-d constants are the same IEEE operands as the reference's Python floats
        x, grads = run
        cfg = BaselineConfig(method=method, lr=lr)
        state, ref_state = BaselineState.zeros(x.size), BaselineState.zeros(x.size)
        for g in grads:
            x_new = baseline_step(x, g, cfg, state)
            ref_x_new = python_float_baseline_step(x, g, cfg, ref_state)
            assert_same_bits(x_new, ref_x_new)
            assert_same_states(state, ref_state)
            x = x_new

    @pytest.mark.parametrize("method", METHODS)
    def test_replace_builds_fresh_constants(self, method):
        cfg = BaselineConfig(method=method, lr=0.3)
        replaced = dataclasses.replace(cfg, lr=cfg.lr / 10)
        fresh = BaselineConfig(method=method, lr=cfg.lr / 10)
        # the reference reads the replaced config's lr field, so it also sees a 0-d lr that disagrees with it
        x = fresh_x = ref_x = np.array([1.0, -2.0])
        state, fresh_state, ref_state = BaselineState.zeros(2), BaselineState.zeros(2), BaselineState.zeros(2)
        for g in (np.array([0.5, -1.5]), np.array([-0.25, 2.0]), np.array([1.0, 1.0])):
            x = baseline_step(x, g, replaced, state)
            fresh_x = baseline_step(fresh_x, g, fresh, fresh_state)
            ref_x = python_float_baseline_step(ref_x, g, replaced, ref_state)
            for other_x, other_state in ((fresh_x, fresh_state), (ref_x, ref_state)):
                assert_same_bits(x, other_x)
                assert_same_states(state, other_state)

    def test_fields_cannot_be_assigned(self):
        cfg = BaselineConfig(method="adam")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lr = 0.5

    def test_asdict_holds_the_two_fields(self):
        cfg = BaselineConfig(method="rmsprop", lr=0.01)
        assert dataclasses.asdict(cfg) == {"method": "rmsprop", "lr": 0.01}


class TestCoefficients:
    @given(bounded_arrays, bounded_arrays)
    @settings(max_examples=200)
    def test_friction_in_sigmoid_range(self, prev, g):
        # sigmoid of |change| lives in [0.5, 1); float64 saturates the open
        # upper end to exactly 1.0 once |change| exceeds ~37
        n = min(prev.size, g.size)
        xi = friction_coefficient(prev[:n], g[:n])
        assert np.all(xi >= 0.5) and np.all(xi <= 1.0)

    @pytest.mark.parametrize(
        "flavor,lo,hi", [("cos", 0.5, 0.5 * math.tanh(1.0) + 0.5), ("tan", 0.5, 1.0)], ids=["cos", "tan"]
    )
    @given(prev=bounded_arrays, g=bounded_arrays)
    @example(prev=np.array([0.0, 1.0]), g=np.array([0.0, -1.0]))  # 1 + prev*g == 0: theta = 90 deg
    @settings(max_examples=200)
    def test_angular_coefficient_range(self, flavor, lo, hi, prev, g):
        n = min(prev.size, g.size)
        coeff = angular_coefficient(prev[:n], g[:n], flavor)
        assert np.all(coeff >= lo - 1e-15)
        assert np.all(coeff <= hi + 1e-15)


class TestQuadraticDescent:
    @pytest.mark.parametrize("method", METHODS)
    def test_strict_decrease_over_1000_steps(self, method):
        obj = isotropic_quadratic(2)
        cfg = BaselineConfig(method=method, lr=1e-3)
        records = baseline_records(np.array([1.0, -1.0]), obj, cfg, 1000)
        fs = [r.f for r in records]
        assert len(fs) == 1000
        assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_sgd_contraction_factor(self):
        # x <- (1 - lr) x contracts f by (1 - lr)^2 per step
        obj = isotropic_quadratic(2)
        records = baseline_records(np.array([2.0, 1.0]), obj, BaselineConfig(method="sgd", lr=0.1), 5)
        f0 = obj.value(np.array([2.0, 1.0]))
        for i, r in enumerate(records, start=1):
            assert r.f == pytest.approx(f0 * (0.9 ** (2 * i)), rel=1e-12)


class TestRunBaseline:
    def test_toy_a_perturbed_start_finite(self):
        records = baseline_records(
            np.array([-2.0, 0.1]), toy_a(), BaselineConfig(method="sgd", lr=1e-2), 1000
        )
        assert len(records) == 1000
        assert all(math.isfinite(r.f) and math.isfinite(r.grad_norm) for r in records)

    def test_deterministic(self):
        cfg = BaselineConfig(method="adam", lr=1e-2)
        a = baseline_records(np.array([3.0, 3.0]), isotropic_quadratic(2), cfg, 100)
        b = baseline_records(np.array([3.0, 3.0]), isotropic_quadratic(2), cfg, 100)
        assert [(r.f, r.grad_norm) for r in a] == [(r.f, r.grad_norm) for r in b]

    def test_stationary_start_stops_immediately(self):
        records = baseline_records(
            np.array([-2.0, 0.0]), toy_a(), BaselineConfig(method="sgd", lr=1e-2), 100
        )
        assert records == []

    def test_zero_gradient_stop_holds_the_gradient_it_took(self):
        # sgd at lr 1 lands on the quadratic's minimum in one step; the next step's gradient there is zero
        obj = isotropic_quadratic(2)
        step = baseline_stepper(obj, BaselineConfig(method="sgd", lr=1.0), BaselineState.zeros(2))
        records, stop, x = run_loop(np.array([0.5, -0.25]), (step for _ in range(5)))
        assert len(records) == 1 and type(stop) is ZeroGradientError
        assert stop.gradient.tobytes() == obj.gradient(x).tobytes() == np.zeros(2).tobytes()
