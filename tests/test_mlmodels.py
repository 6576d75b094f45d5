import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycent.baselines import BaselineConfig, BaselineState, baseline_step
from dycent.mlmodels import (
    Dataset,
    MlpSpec,
    accuracy,
    initial_params,
    make_two_moons,
    mlp_objective,
)
from dycent.objective import BatchContext
from dycent.vecmath import DimensionError

from oracles import central_diff_gradient, relative_error


def train_adam(obj, spec, iters=500, lr=0.05):
    x = initial_params(spec)
    state = BaselineState.zeros(x.size)
    cfg = BaselineConfig(method="adam", lr=lr)
    for _ in range(iters):
        x = baseline_step(x, obj, cfg, state)
    return x


class TestTwoMoons:
    def test_noiseless_moons_are_learnable(self):
        data = make_two_moons(200, 0.0, seed=0)
        spec = MlpSpec(2, 16, 2, "tanh", init_seed=0)
        params = train_adam(mlp_objective(spec, data), spec)
        assert accuracy(params, spec, data) == 1.0

    def test_small_sample_deterministic(self):
        a = make_two_moons(4, 0.0, seed=3)
        b = make_two_moons(4, 0.0, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.features.shape == (4, 2)

    def test_balanced_classes(self):
        data = make_two_moons(101, 0.05, seed=1)
        counts = np.bincount(data.labels)
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            make_two_moons(10, -0.1, seed=0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            make_two_moons(1, 0.0, seed=0)


class TestDataset:
    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0, 2]), num_classes=2)

    def test_rejects_nan_features(self):
        with pytest.raises(ValueError):
            Dataset(
                features=np.array([[0.0, float("nan")]]), labels=np.array([0]), num_classes=2
            )


class TestBackprop:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    def test_gradient_matches_finite_differences(self, activation, scale, rng):
        # the module's keystone check: exact backprop vs a central-difference
        # oracle at random parameter points across initialization scales
        data = make_two_moons(64, 0.1, seed=5)
        spec = MlpSpec(2, 8, 2, activation, init_seed=0)
        obj = mlp_objective(spec, data)
        for _ in range(20):
            x = scale * rng.standard_normal(spec.param_count)
            fd = central_diff_gradient(obj.value, x)
            assert relative_error(obj.gradient(x), fd) <= 1e-4

    def test_uniform_logits_give_log_num_classes(self):
        data = make_two_moons(50, 0.1, seed=2)
        spec = MlpSpec(2, 16, 2, "relu", init_seed=0)
        obj = mlp_objective(spec, data)
        assert obj.value(np.zeros(spec.param_count)) == pytest.approx(math.log(2), rel=1e-12)

    def test_duplicated_rows_leave_loss_unchanged(self, rng):
        data = make_two_moons(40, 0.1, seed=4)
        doubled = Dataset(
            features=np.vstack([data.features, data.features]),
            labels=np.concatenate([data.labels, data.labels]),
            num_classes=2,
        )
        spec = MlpSpec(2, 8, 2, "tanh", init_seed=1)
        x = rng.standard_normal(spec.param_count)
        assert mlp_objective(spec, data).value(x) == pytest.approx(
            mlp_objective(spec, doubled).value(x), rel=1e-12
        )

    def test_shape_mismatch_rejected(self):
        data = make_two_moons(10, 0.0, seed=0)
        with pytest.raises(DimensionError):
            mlp_objective(MlpSpec(3, 4, 2), data)


class TestBatching:
    def setup_method(self):
        self.data = make_two_moons(60, 0.1, seed=6)
        self.spec = MlpSpec(2, 8, 2, "tanh", init_seed=2)
        self.obj = mlp_objective(self.spec, self.data)
        self.x = initial_params(self.spec)

    def test_full_batch_equals_default(self):
        full = self.obj.value(self.x)
        self.obj.set_batch(BatchContext(np.arange(60)))
        assert self.obj.value(self.x) == full

    def test_singleton_batch_is_row_loss(self):
        self.obj.set_batch(BatchContext(np.array([17])))
        single = self.obj.value(self.x)
        row_only = Dataset(
            features=self.data.features[17:18], labels=self.data.labels[17:18], num_classes=2
        )
        assert mlp_objective(self.spec, row_only).value(self.x) == single

    def test_half_batches_average_to_full_loss(self):
        self.obj.clear_batch()
        full = self.obj.value(self.x)
        self.obj.set_batch(BatchContext(np.arange(0, 30)))
        a = self.obj.value(self.x)
        self.obj.set_batch(BatchContext(np.arange(30, 60)))
        b = self.obj.value(self.x)
        assert 0.5 * (a + b) == pytest.approx(full, rel=1e-12)

    def test_partition_gradients_average_to_full_gradient(self, rng):
        x = rng.standard_normal(self.spec.param_count)
        self.obj.clear_batch()
        full_grad = self.obj.gradient(x)
        parts = []
        for lo in range(0, 60, 15):
            self.obj.set_batch(BatchContext(np.arange(lo, lo + 15)))
            parts.append(self.obj.gradient(x))
        stacked = np.mean(parts, axis=0)
        assert np.max(np.abs(stacked - full_grad)) <= 1e-12 * max(1.0, np.max(np.abs(full_grad)))

    def test_out_of_bounds_batch_rejected(self):
        with pytest.raises(ValueError):
            self.obj.set_batch(BatchContext(np.array([60])))


def oracle_loss_and_gradient(spec, data, x, batch=None):
    """Loss and gradient by the reference formulas: the batch gathered on
    the call, one forward pass each, np.mean and np.concatenate."""
    rows, labels = data.features, data.labels
    if batch is not None:
        rows, labels = rows[batch], labels[batch]
    sizes = [spec.input_dim * spec.hidden_dim, spec.hidden_dim, spec.hidden_dim * spec.num_classes]
    w1, b1, w2, b2 = np.split(x, np.cumsum(sizes))
    w1 = w1.reshape(spec.input_dim, spec.hidden_dim)
    w2 = w2.reshape(spec.hidden_dim, spec.num_classes)

    def forward():
        z1 = rows @ w1 + b1
        a1 = np.maximum(z1, 0.0) if spec.activation == "relu" else np.tanh(z1)
        return z1, a1, a1 @ w2 + b2

    _, _, logits = forward()
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-np.mean(log_probs[np.arange(len(labels)), labels]))

    z1, a1, logits = forward()
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    dlogits = e / e.sum(axis=1, keepdims=True)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    gw2 = a1.T @ dlogits
    gb2 = dlogits.sum(axis=0)
    da1 = dlogits @ w2.T
    dz1 = da1 * (z1 > 0.0) if spec.activation == "relu" else da1 * (1.0 - a1 * a1)
    gw1 = rows.T @ dz1
    gb1 = dz1.sum(axis=0)
    return loss, np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


MEMO_DATA = make_two_moons(40, 0.1, seed=8)
MEMO_SPEC = MlpSpec(2, 8, 2, "tanh", init_seed=3)


class TestPinnedPass:
    """value and gradient on pinned rows with a shared forward pass give the
    bits of the reference formulas, and no pin or edit leaves them stale."""

    @given(
        activation=st.sampled_from(["relu", "tanh"]),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([0.3, 1.0, 3.0]),
        batch=st.none() | st.lists(st.integers(0, len(MEMO_DATA) - 1), min_size=1, max_size=40),
        value_first=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bits_match_reference_formulas(self, activation, seed, scale, batch, value_first):
        spec = MlpSpec(2, 8, 2, activation, init_seed=0)
        obj = mlp_objective(spec, MEMO_DATA)
        x = scale * np.random.default_rng(seed).standard_normal(spec.param_count)
        if batch is not None:
            batch = np.array(batch)
            obj.set_batch(BatchContext(batch))
        loss, grad = oracle_loss_and_gradient(spec, MEMO_DATA, x, batch)
        if value_first:
            got_loss, got_grad = obj.value(x), obj.gradient(x)
        else:
            got_grad, got_loss = obj.gradient(x), obj.value(x)
        assert same_bits(got_loss, loss)
        assert same_bits(got_grad, grad)

    def fresh(self, batch=None):
        obj = mlp_objective(MEMO_SPEC, MEMO_DATA)
        if batch is not None:
            obj.set_batch(BatchContext(batch))
        return obj

    def assert_matches_fresh(self, obj, x, batch=None):
        ref = self.fresh(batch)
        assert same_bits(obj.value(x), ref.value(x))
        assert same_bits(obj.gradient(x), ref.gradient(x))

    def setup_method(self):
        self.x = np.random.default_rng(21).standard_normal(MEMO_SPEC.param_count)
        self.a, self.b = np.arange(0, 16), np.arange(16, 32)

    def test_same_x_after_another_batch(self):
        obj = self.fresh(self.a)
        obj.gradient(self.x)
        obj.set_batch(BatchContext(self.b))
        self.assert_matches_fresh(obj, self.x, self.b)

    def test_x_changed_in_place_between_gradient_and_value(self):
        obj = self.fresh(self.a)
        x = self.x.copy()
        obj.gradient(x)
        x[0] += 0.5
        self.assert_matches_fresh(obj, x, self.a)

    def test_clear_batch_after_set_batch(self):
        obj = self.fresh(self.a)
        obj.gradient(self.x)
        obj.clear_batch()
        self.assert_matches_fresh(obj, self.x)

    def test_mutating_a_returned_gradient(self):
        obj = self.fresh(self.a)
        obj.gradient(self.x)[:] = 7.0
        self.assert_matches_fresh(obj, self.x, self.a)

    def test_two_objectives_over_one_dataset(self):
        one, two = self.fresh(self.a), self.fresh(self.b)
        one.gradient(self.x)
        two.gradient(self.x)
        self.assert_matches_fresh(one, self.x, self.a)
        self.assert_matches_fresh(two, self.x, self.b)

    def test_pinned_rows_are_a_snapshot(self):
        data = make_two_moons(40, 0.1, seed=8)
        obj = mlp_objective(MEMO_SPEC, data)
        obj.set_batch(BatchContext(self.a))
        data.features[self.a] += 1.0
        self.assert_matches_fresh(obj, self.x, self.a)


class TestAccuracy:
    def test_zero_params_on_balanced_data(self):
        data = make_two_moons(100, 0.1, seed=7)
        spec = MlpSpec(2, 16, 2, "relu", init_seed=0)
        # all logits equal: argmax tie-breaks to class 0, half the rows
        assert accuracy(np.zeros(spec.param_count), spec, data) == 0.5

    def test_empty_dataset_rejected(self):
        data = Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64), num_classes=2)
        spec = MlpSpec(2, 4, 2)
        with pytest.raises(ValueError):
            accuracy(np.zeros(spec.param_count), spec, data)


class TestInitialParams:
    def test_deterministic_in_seed(self):
        spec = MlpSpec(2, 16, 2, "relu", init_seed=9)
        assert np.array_equal(initial_params(spec), initial_params(spec))

    def test_param_count(self):
        spec = MlpSpec(3, 5, 4)
        assert initial_params(spec).size == spec.param_count == 3 * 5 + 5 + 5 * 4 + 4
