import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycent.baselines import BaselineConfig, BaselineState, baseline_step
from dycent.mlmodels import (
    CLASSES,
    FEATURES,
    Dataset,
    MlpObjective,
    MlpSpec,
    accuracy,
    initial_params,
    make_two_moons,
)
from dycent.objective import BatchContext
from dycent.vecmath import DimensionError

from oracles import PickMlpObjective, central_diff_gradient, mean_accuracy, relative_error


def train_adam(obj, spec, iters=500, lr=0.05):
    x = initial_params(spec)
    state = BaselineState.zeros(x.size)
    cfg = BaselineConfig(method="adam", lr=lr)
    for _ in range(iters):
        x = baseline_step(x, obj.gradient(x), cfg, state)
    return x


class TestTwoMoons:
    def test_noiseless_moons_are_learnable(self):
        data = make_two_moons(200, 0.0, seed=0)
        spec = MlpSpec(16, init_seed=0)
        params = train_adam(MlpObjective(spec, data), spec)
        assert accuracy(MlpObjective(spec, data), params) == 1.0

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
        for labels in ([0, 2], [-1, 1]):
            with pytest.raises(ValueError, match="0 or 1"):
                Dataset(features=np.zeros((2, 2)), labels=np.array(labels))

    # a cast to int64 would truncate 0.7 and 1.2 to 0 and 1, and take the bools as 0 and 1
    @pytest.mark.parametrize("labels", [[0.7, 1.2, 0.0], [0.0, 1.0, 0.0], [False, True, False]])
    def test_rejects_labels_that_are_not_integers(self, labels):
        with pytest.raises(ValueError, match="integers"):
            Dataset(features=np.zeros((3, 2)), labels=np.array(labels))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_other_integer_labels_become_int64(self, dtype):
        data = Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1, 1], dtype=dtype))
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("shape", [(2, 3), (2, 1), (2,), (2, 2, 1)])
    def test_rejects_features_of_another_shape(self, shape):
        with pytest.raises(DimensionError, match=r"shape \(n, 2\)"):
            Dataset(features=np.zeros(shape), labels=np.array([0, 1]))

    def test_rejects_nan_features(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[0.0, float("nan")]]), labels=np.array([0]))


class TestBackprop:
    @pytest.mark.parametrize("hidden_dim", [1, 8])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    def test_gradient_matches_finite_differences(self, scale, hidden_dim, rng):
        # the module's keystone check: exact backprop vs a central-difference
        # oracle at random parameter points across initialization scales, for
        # a single hidden unit and for a layer of them
        data = make_two_moons(64, 0.1, seed=5)
        spec = MlpSpec(hidden_dim, init_seed=0)
        obj = MlpObjective(spec, data)
        for _ in range(20):
            x = scale * rng.standard_normal(spec.param_count)
            fd = central_diff_gradient(obj.value, x)
            assert relative_error(obj.gradient(x), fd) <= 1e-4

    def test_uniform_logits_give_log_num_classes(self):
        data = make_two_moons(50, 0.1, seed=2)
        spec = MlpSpec(16, init_seed=0)
        obj = MlpObjective(spec, data)
        assert obj.value(np.zeros(spec.param_count)) == pytest.approx(math.log(2), rel=1e-12)

    def test_duplicated_rows_leave_loss_unchanged(self, rng):
        data = make_two_moons(40, 0.1, seed=4)
        doubled = Dataset(
            features=np.vstack([data.features, data.features]),
            labels=np.concatenate([data.labels, data.labels]),
        )
        spec = MlpSpec(8, init_seed=1)
        x = rng.standard_normal(spec.param_count)
        assert MlpObjective(spec, data).value(x) == pytest.approx(
            MlpObjective(spec, doubled).value(x), rel=1e-12
        )


class TestBatching:
    def setup_method(self):
        self.data = make_two_moons(60, 0.1, seed=6)
        self.spec = MlpSpec(8, init_seed=2)
        self.obj = MlpObjective(self.spec, self.data)
        self.x = initial_params(self.spec)

    def test_full_batch_equals_default(self):
        full = self.obj.value(self.x)
        self.obj.set_batch(BatchContext(np.arange(60)))
        assert self.obj.value(self.x) == full

    def test_singleton_batch_is_row_loss(self):
        self.obj.set_batch(BatchContext(np.array([17])))
        single = self.obj.value(self.x)
        row_only = Dataset(features=self.data.features[17:18], labels=self.data.labels[17:18])
        assert MlpObjective(self.spec, row_only).value(self.x) == single

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

    def test_boolean_mask_rejected(self):
        # cast to int64 the mask would be indices 0 and 1, pinning rows 0 and 1 again and again
        labels = make_two_moons(10, 0.1, seed=0).labels
        with pytest.raises(ValueError, match="integers"):
            BatchContext(labels == 1)

    @pytest.mark.parametrize("floats", [[0.7, 1.9], np.array([0.0, 1.0])])
    def test_float_indices_rejected(self, floats):
        with pytest.raises(ValueError, match="integers"):
            BatchContext(floats)

    def test_empty_batch_named_before_its_dtype(self):
        with pytest.raises(ValueError, match="non-empty"):
            BatchContext([])

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_other_integer_dtypes_pin_the_same_rows(self, dtype, rng):
        x = rng.standard_normal(self.spec.param_count)
        idx = np.array([3, 17, 59, 0, 17])
        self.obj.set_batch(BatchContext(idx))
        want = self.obj.value(x), self.obj.gradient(x)
        other = MlpObjective(self.spec, self.data)
        ctx = BatchContext(idx.astype(dtype))
        assert ctx.batch_indices.dtype == np.int64
        other.set_batch(ctx)
        assert same_bits(other.value(x), want[0])
        assert same_bits(other.gradient(x), want[1])


def oracle_loss_and_gradient(spec, data, x, batch=None):
    """Loss and gradient by the reference formulas: the batch gathered on
    the call, one forward pass each, np.mean and np.concatenate."""
    rows, labels = data.features, data.labels
    if batch is not None:
        rows, labels = rows[batch], labels[batch]
    sizes = [FEATURES * spec.hidden_dim, spec.hidden_dim, spec.hidden_dim * CLASSES]
    w1, b1, w2, b2 = np.split(x, np.cumsum(sizes))
    w1 = w1.reshape(FEATURES, spec.hidden_dim)
    w2 = w2.reshape(spec.hidden_dim, CLASSES)

    def forward():
        z1 = rows @ w1 + b1
        a1 = np.maximum(z1, 0.0)
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
    dz1 = da1 * (z1 > 0.0)
    gw1 = rows.T @ dz1
    gb1 = dz1.sum(axis=0)
    return loss, np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


MEMO_DATA = make_two_moons(40, 0.1, seed=8)
MEMO_SPEC = MlpSpec(8, init_seed=3)


class TestPinnedPass:
    """value and gradient on pinned rows with a shared forward pass give the
    bits of the reference formulas, and no pin or edit leaves them stale."""

    @given(
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([0.3, 1.0, 3.0]),
        batch=st.none() | st.lists(st.integers(0, len(MEMO_DATA) - 1), min_size=1, max_size=40),
        value_first=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bits_match_reference_formulas(self, seed, scale, batch, value_first):
        spec = MlpSpec(8, init_seed=0)
        obj = MlpObjective(spec, MEMO_DATA)
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
        obj = MlpObjective(MEMO_SPEC, MEMO_DATA)
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
        obj = MlpObjective(MEMO_SPEC, data)
        obj.set_batch(BatchContext(self.a))
        data.features[self.a] += 1.0
        self.assert_matches_fresh(obj, self.x, self.a)


MOONS = make_two_moons(200, 0.1, seed=0)  # the shipped data


class TestFirstFormulation:
    """value, gradient and accuracy give PickMlpObjective's bytes. One
    hidden unit and one-row pins are drawn too: there products have an
    inner dimension of 1, and go through @. Non-finite weights and strided
    x are drawn as well; NaNs are compared by position, as their sign bits
    may differ from the reference's."""

    @given(
        hidden=st.sampled_from([1, 2, 16]),
        seed=st.integers(0, 2**32 - 1),
        start=st.sampled_from([None, 1.0, 10.0, "nonfinite"]),
        rows=st.none() | st.integers(1, 64),
        value_first=st.booleans(),
        strided=st.booleans(),
    )
    @example(hidden=16, seed=0, start=None, rows=8, value_first=False, strided=False)  # an epoch's last batch
    @settings(max_examples=300, deadline=None)
    def test_matches_first_formulation(self, hidden, seed, start, rows, value_first, strided):
        data = MOONS
        spec = MlpSpec(hidden, init_seed=seed)
        rng = np.random.default_rng(seed)
        # None starts where a run does: scaled-Gaussian weights, zero biases
        if start is None:
            x = initial_params(spec)
        elif start == "nonfinite":  # up to three entries inf, -inf or NaN
            x = rng.standard_normal(spec.param_count)
            x[rng.integers(0, x.size, 3)] = rng.choice([np.inf, -np.inf, np.nan], 3)
        else:
            x = start * rng.standard_normal(spec.param_count)
        if strided:
            x = np.repeat(x, 2)[::2]
        new, ref = MlpObjective(spec, data), PickMlpObjective(spec, data)
        if rows is not None:  # else the full batch, where the later calls hit the memo
            ctx = BatchContext(rng.permutation(len(data))[:rows])
            new.set_batch(ctx)
            ref.set_batch(ctx)

        def calls(obj):
            first, second = (obj.value, obj.gradient) if value_first else (obj.gradient, obj.value)
            return first(x), second(x), first(x)

        if start == "nonfinite":
            def equal(a, b):
                return np.array_equal(a, b, equal_nan=True)
        else:
            equal = same_bits
        with np.errstate(all="ignore"):
            for got, want in zip(calls(new), calls(ref)):
                assert type(got) is type(want)
                assert equal(got, want)
            got = accuracy(new, x)
            assert type(got) is float
            assert same_bits(got, mean_accuracy(ref, x))


class TestBatchRanges:
    """A pin of a range of one checked index vector, ctx.rows(i, j), gives
    the bytes of a pin of perm[i:j] as its own vector: the vector's rows are
    gathered once, at its first pin, and each range pins slices of them."""

    @given(
        hidden=st.sampled_from([1, 2, 16]),
        seed=st.integers(0, 2**32 - 1),
        ranges=st.lists(st.tuples(st.integers(0, 199), st.integers(1, 40)), min_size=1, max_size=4),
        nested=st.booleans(),
    )
    @example(hidden=1, seed=0, ranges=[(199, 1), (0, 1)], nested=False)  # one-row ranges at both ends
    @example(hidden=16, seed=0, ranges=[(0, 32), (192, 32)], nested=True)  # an epoch's first and last
    @settings(max_examples=150, deadline=None)
    def test_range_pin_gives_the_bytes_of_its_own_vector(self, hidden, seed, ranges, nested):
        data = MOONS
        spec = MlpSpec(hidden, init_seed=seed % 1000)
        rng = np.random.default_rng(seed)
        x = initial_params(spec) + 0.1 * rng.standard_normal(spec.param_count)
        perm = rng.permutation(len(data))
        ctx = BatchContext(perm)
        obj = MlpObjective(spec, data)
        for i, width in ranges:  # later ranges pin from the gather of the first
            j = min(i + width, len(perm))
            batch = ctx.rows(i, len(perm)).rows(0, j - i) if nested else ctx.rows(i, j)
            assert batch.batch_indices.tolist() == perm[i:j].tolist()
            obj.set_batch(batch)
            ref = MlpObjective(spec, data)
            ref.set_batch(BatchContext(perm[i:j]))
            assert same_bits(obj.value(x), ref.value(x))
            assert same_bits(obj.gradient(x), ref.gradient(x))
            assert obj._rows.flags.c_contiguous

    def test_vector_longer_than_the_dataset(self):
        # indices may repeat, so a vector, and a range of it, may hold more rows than the dataset
        vector = np.tile(np.arange(len(MEMO_DATA)), 3)[::-1]
        ctx = BatchContext(vector)
        obj = MlpObjective(MEMO_SPEC, MEMO_DATA)
        x = np.random.default_rng(4).standard_normal(MEMO_SPEC.param_count)
        for i, j in ((0, 120), (10, 100), (119, 120)):
            obj.set_batch(ctx.rows(i, j))
            loss, grad = oracle_loss_and_gradient(MEMO_SPEC, MEMO_DATA, x, vector[i:j])
            assert same_bits(obj.value(x), loss)
            assert same_bits(obj.gradient(x), grad)

    def test_later_edit_of_the_callers_array_does_not_change_the_context(self):
        idx = np.array([4, 8, 15], dtype=np.int64)
        ctx = BatchContext(idx)
        batch = ctx.rows(1, 3)
        idx[:] = 0
        assert ctx.batch_indices.tolist() == [4, 8, 15] and batch.batch_indices.tolist() == [8, 15]
        for indices in (ctx.batch_indices, batch.batch_indices):
            with pytest.raises(ValueError, match="read-only"):
                indices[0] = 1

    def test_contexts_are_known_by_identity(self):
        ctx = BatchContext(np.arange(5))
        same = BatchContext(np.arange(5))
        assert ctx == ctx and ctx != same and ctx.rows(0, 2) != ctx.rows(0, 2)
        assert len({ctx, same}) == 2

    @pytest.mark.parametrize("start, stop", [(2, 2), (3, 1), (-1, 2), (0, 6), (5, 6)])
    def test_empty_range_or_one_outside_the_indices_rejected(self, start, stop):
        with pytest.raises(ValueError, match="empty or outside"):
            BatchContext(np.arange(5)).rows(start, stop)

    def test_range_of_a_vector_with_an_out_of_bounds_row_rejected(self):
        obj = MlpObjective(MEMO_SPEC, MEMO_DATA)
        with pytest.raises(ValueError, match="out of dataset bounds"):
            obj.set_batch(BatchContext(np.array([0, len(MEMO_DATA)])).rows(0, 1))

    def test_rows_are_gathered_at_the_first_pin_of_a_vector(self):
        data = make_two_moons(40, 0.1, seed=8)
        obj = MlpObjective(MEMO_SPEC, data)
        x = np.random.default_rng(21).standard_normal(MEMO_SPEC.param_count)
        ctx = BatchContext(np.arange(40))
        obj.set_batch(ctx.rows(0, 16))
        data.features += 1.0
        obj.set_batch(ctx.rows(16, 32))  # the gather of the first pin, before the edit
        want = MlpObjective(MEMO_SPEC, MEMO_DATA)
        want.set_batch(BatchContext(np.arange(16, 32)))
        assert same_bits(obj.gradient(x), want.gradient(x))
        obj.set_batch(BatchContext(np.arange(16, 32)))  # another vector sees the edit
        assert not same_bits(obj.gradient(x), want.gradient(x))

def tiny(rng, shape):
    """Magnitudes 1e-165 to 1e-150, a fifth of them zeros of either sign: their products underflow."""
    scale = 10.0 ** rng.uniform(-165, -150, shape) * (rng.random(shape) < 0.8)
    return rng.standard_normal(shape) * scale


def special(rng, shape):
    """A third of the entries zeros, subnormal products, infs or NaNs."""
    a = rng.standard_normal(shape)
    hit = rng.random(shape) < 1 / 3
    a[hit] = rng.choice([0.0, -0.0, 1e-200, -1e-200, np.inf, -np.inf, np.nan], hit.sum())
    return a


class TestDotProducts:
    """The MLP's products take ndarray.dot where the inner dimension is at
    least 2, and there it gives the bytes of the @ operator: on every outer
    size, on C-contiguous and transposed operands, at underflow, and against
    an inf or a NaN. Where the inner dimension is 1 (one hidden unit or one
    pinned row) .dot would not give @'s bytes, and the MLP still gives the
    first formulation's."""

    @pytest.mark.parametrize("cols", [1, 8, 32])
    @pytest.mark.parametrize("inner", [2, 3, 8, 32])
    @pytest.mark.parametrize("rows", [1, 8, 32])
    def test_dot_matches_matmul_at_inner_dimension_2_or_more(self, rows, inner, cols, rng):
        def layouts(m):  # C-contiguous, and the transpose of a C-contiguous array
            return m, np.ascontiguousarray(m.T).T

        with np.errstate(all="ignore"):
            for draw in (tiny, special):
                for _ in range(25):
                    for a in layouts(draw(rng, (rows, inner))):
                        for b in layouts(draw(rng, (inner, cols))):
                            assert same_bits(a.dot(b), a @ b)

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.sampled_from([8, 32]),
        scale=st.sampled_from([1e-165, 1e-160]),
    )
    @settings(max_examples=100, deadline=None)
    def test_underflowing_mlp_matches_first_formulation(self, seed, rows, scale):
        data = MOONS
        spec = MlpSpec(16)
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(spec.param_count)
        new, ref = MlpObjective(spec, data), PickMlpObjective(spec, data)
        ctx = BatchContext(rng.permutation(len(data))[:rows])
        new.set_batch(ctx)
        ref.set_batch(ctx)
        want = ref._forward(ref._unpack(x), ref._rows)  # z1, a1, logits
        # some products a1[i, j] * w2[j, k] of nonzero factors leave the normal range
        a1, w2 = want[1][:, :, None], ref._unpack(x)[2]
        assert np.any((a1 != 0) & (w2 != 0) & (np.abs(a1 * w2) < np.finfo(np.float64).tiny))
        for got, wanted in zip(new._forward(new._unpack(x), new._rows), want):
            assert same_bits(got, wanted)
        assert same_bits(new.gradient(x), ref.gradient(x))
        assert same_bits(new.value(x), ref.value(x))

    def test_one_row_pin_with_underflowing_products_matches(self):
        # parameters at 10x a Gaussian saturate the softmax, so dlogits and
        # dz1 are subnormal, and on one row three products of the W1
        # gradient underflow: .dot gives them as -0.0 (numpy 2.4), @ as +0.0
        data = MOONS
        spec = MlpSpec(16)
        rng = np.random.default_rng(739922131)
        x = 10.0 * rng.standard_normal(spec.param_count)
        new, ref = MlpObjective(spec, data), PickMlpObjective(spec, data)
        ctx = BatchContext(rng.permutation(len(data))[:1])
        new.set_batch(ctx)
        ref.set_batch(ctx)
        got = new.gradient(x)
        # on one row, W1's gradient is the outer product of the row and b1's
        gw1, gb1 = got[:32].reshape(2, 16), got[32:48]
        assert np.any((gw1 == 0) & (new._rows.T != 0) & (gb1 != 0))
        assert same_bits(got, ref.gradient(x))
        assert same_bits(new.value(x), ref.value(x))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_weight_is_seen_on_one_row_of_one_unit(self, bad):
        # on row 3 the hidden unit is off (z1 < 0), so a1 is a 1x1 zero
        # that meets the non-finite W2 entry in the forward product
        data = make_two_moons(10, 0.1, seed=0)
        spec = MlpSpec(1)
        x = np.array([1.0, 1.0, -100.0, bad, 1.0, 0.0, 0.0])
        assert data.features[3] @ x[:2] + x[2] < 0
        new, ref = MlpObjective(spec, data), PickMlpObjective(spec, data)
        ctx = BatchContext(np.array([3]))
        new.set_batch(ctx)
        ref.set_batch(ctx)
        with np.errstate(invalid="ignore"):
            assert math.isnan(new.value(x))
            got = new.gradient(x)
            assert np.all(np.isnan(got[3:5]))  # the W2 entries
            # NaNs are compared by position: their sign bits may differ from the reference's
            assert np.array_equal(got, ref.gradient(x), equal_nan=True)


class TestAccuracy:
    def test_predict_multiplies_contiguous_features(self):
        seen = []

        class Spy(MlpObjective):
            def _forward(self, unpacked, x):
                seen.append(x.flags.c_contiguous)
                return super()._forward(unpacked, x)

        data = make_two_moons(40, 0.1, seed=8)
        spec = MlpSpec(4)
        obj, params = Spy(spec, data), initial_params(spec)
        strided = np.repeat(data.features, 2, axis=1)[:, ::2]
        assert np.array_equal(obj.predict(params, strided), obj.predict(params, data.features))
        assert seen == [True, True]

    def test_zero_params_on_balanced_data(self):
        data = make_two_moons(100, 0.1, seed=7)
        spec = MlpSpec(16, init_seed=0)
        # all logits equal: argmax tie-breaks to class 0, half the rows
        assert accuracy(MlpObjective(spec, data), np.zeros(spec.param_count)) == 0.5

    def test_empty_dataset_rejected(self):
        data = Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64))
        spec = MlpSpec(4)
        with pytest.raises(ValueError):
            accuracy(MlpObjective(spec, data), np.zeros(spec.param_count))

    def test_reads_every_row_while_a_batch_is_pinned(self):
        data = make_two_moons(40, 0.1, seed=8)
        spec = MlpSpec(4, init_seed=3)
        params = initial_params(spec)
        batch = np.arange(8)
        obj = MlpObjective(spec, data)
        obj.set_batch(BatchContext(batch))
        full = accuracy(MlpObjective(spec, data), params)
        assert accuracy(obj, params) == full
        # the pinned rows alone score differently, so reading them would show
        pinned = Dataset(data.features[batch], data.labels[batch])
        assert accuracy(MlpObjective(spec, pinned), params) != full


class TestInitialParams:
    def test_deterministic_in_seed(self):
        spec = MlpSpec(16, init_seed=9)
        assert np.array_equal(initial_params(spec), initial_params(spec))

    def test_param_count(self):
        spec = MlpSpec(5)
        assert initial_params(spec).size == spec.param_count == 2 * 5 + 5 + 5 * 2 + 2
