import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycent.baselines import (
    METHODS,
    BaselineConfig,
    BaselineState,
    angular_coefficient,
    baseline_step,
    friction_coefficient,
    run_baseline,
)
from dycent.objective import AnalyticObjective, isotropic_quadratic, toy_a

bounded_arrays = st.lists(
    st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8
).map(lambda v: np.asarray(v, dtype=np.float64))


def constant_gradient_objective(g):
    g = np.asarray(g, dtype=np.float64)
    return AnalyticObjective(g.size, lambda x: float(g @ x), lambda x: g.copy())


class TestConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            BaselineConfig(method="adamw")

    @pytest.mark.parametrize(
        "kwargs",
        [{"lr": 0.0}, {"momentum": 1.0}, {"beta1": -0.1}, {"beta2": 1.0}, {"eps": 0.0}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BaselineConfig(method="adam", **kwargs)


class TestSgdFamily:
    def test_sgd_hand_step(self):
        obj = isotropic_quadratic(2)
        cfg = BaselineConfig(method="sgd", lr=0.1)
        x = baseline_step(np.array([1.0, 0.0]), obj, cfg, BaselineState.zeros(2))
        assert np.array_equal(x, np.array([0.9, 0.0]))

    def test_sgdm_with_zero_momentum_equals_sgd(self):
        obj = isotropic_quadratic(3)
        x0 = np.array([1.0, -2.0, 0.5])
        sgd_records = run_baseline(x0, obj, BaselineConfig(method="sgd", lr=0.05), 50)
        sgdm_records = run_baseline(
            x0, obj, BaselineConfig(method="sgdm", lr=0.05, momentum=0.0), 50
        )
        for a, b in zip(sgd_records, sgdm_records):
            assert a.f == b.f
            assert a.grad_norm == b.grad_norm


class TestAdamFamily:
    def test_adam_first_step_is_signed_lr(self):
        # hand computation: m1_hat = g, v1_hat = g^2, so the first update is
        # lr * g / (|g| + eps), i.e. sign(g) scaled by almost exactly lr
        g = np.array([3.0, -0.25, 0.004])
        obj = constant_gradient_objective(g)
        cfg = BaselineConfig(method="adam", lr=1e-3)
        x0 = np.zeros(3)
        x1 = baseline_step(x0, obj, cfg, BaselineState.zeros(3))
        expected = -cfg.lr * g / (np.abs(g) + cfg.eps)
        assert np.array_equal(x1, expected)
        assert np.all(np.sign(x1) == -np.sign(g))
        assert np.linalg.norm(x1 - (-cfg.lr * np.sign(g))) <= cfg.lr * 1e-4

    def test_adam_bias_correction_first_step(self):
        g = np.array([0.7, -1.3])
        obj = constant_gradient_objective(g)
        cfg = BaselineConfig(method="adam")
        state = BaselineState.zeros(2)
        baseline_step(np.zeros(2), obj, cfg, state)
        m_hat = state.m / (1.0 - cfg.beta1)
        v_hat = state.v / (1.0 - cfg.beta2)
        assert m_hat == pytest.approx(g, rel=1e-14)
        assert v_hat == pytest.approx(g * g, rel=1e-14)

    def test_adabelief_tracks_belief_residual(self):
        g = np.array([2.0])
        obj = constant_gradient_objective(g)
        cfg = BaselineConfig(method="adabelief")
        state = BaselineState.zeros(1)
        baseline_step(np.zeros(1), obj, cfg, state)
        expected_v = (1.0 - cfg.beta2) * (g - state.m) ** 2 + cfg.eps
        assert state.v == pytest.approx(expected_v, rel=1e-14)

    def test_diffgrad_is_friction_scaled_adam(self):
        g = np.array([1.5, -0.5])
        obj = constant_gradient_objective(g)
        x0 = np.zeros(2)
        adam_x = baseline_step(x0, obj, BaselineConfig(method="adam"), BaselineState.zeros(2))
        diff_x = baseline_step(x0, obj, BaselineConfig(method="diffgrad"), BaselineState.zeros(2))
        friction = friction_coefficient(np.zeros(2), g)
        assert diff_x == pytest.approx(friction * adam_x, rel=1e-14)

    @pytest.mark.parametrize("flavor", ["cos", "tan"])
    def test_angulargrad_is_coefficient_scaled_adam(self, flavor):
        g = np.array([1.5, -0.5])
        obj = constant_gradient_objective(g)
        x0 = np.zeros(2)
        adam_x = baseline_step(x0, obj, BaselineConfig(method="adam"), BaselineState.zeros(2))
        ang_x = baseline_step(
            x0, obj, BaselineConfig(method=f"angulargrad_{flavor}"), BaselineState.zeros(2)
        )
        coeff = angular_coefficient(np.zeros(2), g, flavor)
        assert ang_x == pytest.approx(coeff * adam_x, rel=1e-14)


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
        records = run_baseline(np.array([1.0, -1.0]), obj, cfg, 1000)
        fs = [r.f for r in records]
        assert len(fs) == 1000
        assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_sgd_contraction_factor(self):
        # x <- (1 - lr) x contracts f by (1 - lr)^2 per step
        obj = isotropic_quadratic(2)
        records = run_baseline(np.array([2.0, 1.0]), obj, BaselineConfig(method="sgd", lr=0.1), 5)
        f0 = obj.value(np.array([2.0, 1.0]))
        for i, r in enumerate(records, start=1):
            assert r.f == pytest.approx(f0 * (0.9 ** (2 * i)), rel=1e-12)


class TestRunBaseline:
    def test_toy_a_perturbed_start_finite(self):
        records = run_baseline(
            np.array([-2.0, 0.1]), toy_a(), BaselineConfig(method="sgd", lr=1e-2), 1000
        )
        assert len(records) == 1000
        assert all(math.isfinite(r.f) and math.isfinite(r.grad_norm) for r in records)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_baseline(np.ones(2), isotropic_quadratic(2), BaselineConfig(method="sgd"), 0)

    def test_deterministic(self):
        cfg = BaselineConfig(method="adam", lr=1e-2)
        a = run_baseline(np.array([3.0, 3.0]), isotropic_quadratic(2), cfg, 100)
        b = run_baseline(np.array([3.0, 3.0]), isotropic_quadratic(2), cfg, 100)
        assert [(r.iter, r.f, r.grad_norm) for r in a] == [(r.iter, r.f, r.grad_norm) for r in b]

    def test_stationary_start_stops_immediately(self):
        records = run_baseline(
            np.array([-2.0, 0.0]), toy_a(), BaselineConfig(method="sgd", lr=1e-2), 100
        )
        assert records == []
