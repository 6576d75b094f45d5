"""Minimal differentiable classifier with hand-written exact gradients,
plus synthetic datasets, for exercising the optimizers in the
stochastic/minibatch regime at desk scale.

The model is the two-moons classifier: a single-hidden-layer ReLU MLP from
2 features to 2 classes over a flattened parameter vector [W1 | b1 | W2 | b2]
with softmax cross-entropy loss; the gradient is exact backpropagation, which
keeps finite-difference checks meaningful.
"""

from dataclasses import dataclass

import numpy as np

from .objective import BatchContext, Objective
from .vecmath import DimensionError, ParamVector

# The classifier's one shape: the two-moons points in, their two classes out.
FEATURES = 2
CLASSES = 2
_EYE = np.eye(CLASSES)  # the labels' one-hot rows
# ReLU's operand as a 0-d float64 array skips numpy's conversion of a Python
# float on every call; the comparison, and so the bits, are the same.
_ZERO = np.array(0.0)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D operands, by ndarray.dot where the inner dimension is
    at least 2: there .dot gives @'s bytes without the ufunc dispatch."""
    return a.dot(b) if a.shape[1] >= 2 else a @ b


@dataclass
class Dataset:
    """An (n, 2) feature matrix with integer labels, each 0 or 1."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu":  # a cast to int64 would truncate floats and take bools as 0 and 1
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = labels.astype(np.int64, copy=False)
        if self.features.ndim != 2 or self.features.shape[1] != FEATURES:
            raise DimensionError(f"features must have shape (n, {FEATURES}), got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionError("labels must have one entry per feature row")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= CLASSES):
            raise ValueError("labels must be 0 or 1")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain NaN or Inf")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class MlpSpec:
    """Hidden width and initialisation seed of the two-moons classifier."""

    hidden_dim: int
    init_seed: int = 0

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")

    @property
    def param_count(self) -> int:
        return (FEATURES + 1 + CLASSES) * self.hidden_dim + CLASSES


def make_two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circles with balanced classes and Gaussian noise."""
    if n < 2:
        raise ValueError(f"need n >= 2 points, got {n}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    n_outer = n // 2
    n_inner = n - n_outer
    t_outer = np.linspace(0.0, np.pi, n_outer)
    t_inner = np.linspace(0.0, np.pi, n_inner)
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    inner = np.column_stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)])
    features = np.vstack([outer, inner])
    labels = np.concatenate([np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)])
    rng = np.random.default_rng(seed)
    features = features + noise * rng.standard_normal(features.shape)
    return Dataset(features=features, labels=labels)


class MlpObjective(Objective):
    """Mean cross-entropy of the MLP over the pinned batch (default: all rows),
    as a function of the flattened parameter vector.

    Rows are gathered at the first pin of an index vector: set_batch
    checks the bounds of a context's parent vector (BatchContext.rows) and
    copies its rows, their labels and the labels' one-hot rows once, and
    each pin of a range of it selects slices of those. clear_batch pins a
    new vector of every row. So the pinned rows are a snapshot of the
    dataset taken at that gather, and a later edit of the dataset is seen
    only after a pin of another vector. value and gradient share one
    memoized forward pass, keyed by the bytes of x and dropped at every
    pin: in a run without batches, each step's first gradient reuses the
    pass of the value taken where the step before landed. An epoch step
    pins a new batch, so it never hits the memo.

    The one-hot rows, taken from a cached identity, are what gradient
    subtracts, and each pin forms its rows' flat own-label indices, where
    value reads. The class-axis max is one np.maximum of the two logit
    columns, the one call numpy's max reduce makes over two classes.

    ReLU and its mask compare against a 0-d zero, the mean divides by the
    row count as a 0-d float, and set_batch gathers the rows with take.
    Every product goes through _mm: ndarray.dot, the BLAS call of the @
    operator without its ufunc dispatch, where the inner dimension is at
    least 2, and @ where it is 1 (one hidden unit or a one-row pin). On
    C- or F-contiguous operands with an inner dimension of at least 2,
    .dot gives @'s bytes, underflow, inf and NaN included; at 1 it may
    not. There an underflowing product is -0.0 where @ gives +0.0, and a
    zero single-element operand times an inf or a NaN gives 0.0 where @
    gives NaN. The operands are contiguous: x is made so by _check_dim,
    the pinned rows are row slices of a take, and predict's features are
    made so by its own conversion.
    """

    def __init__(self, spec: MlpSpec, data: Dataset):
        if len(data) == 0:
            raise ValueError("dataset is empty")
        self.spec = spec
        self.data = data
        self.dim = spec.param_count
        self.name = "mlp_cross_entropy"
        w1_end = FEATURES * spec.hidden_dim
        self._ends = w1_end, w1_end + spec.hidden_dim, self.dim - CLASSES  # of W1, b1, W2
        self._gathered = (None,)
        self.clear_batch()

    def set_batch(self, ctx: BatchContext) -> None:
        parent = ctx if ctx.parent is None else ctx.parent
        if parent is not self._gathered[0]:
            idx = parent.batch_indices
            if np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= len(self.data):
                raise ValueError("batch indices out of dataset bounds")
            labels = self.data.labels[idx]
            self._gathered = (
                parent, self.data.features.take(idx, axis=0), labels, _EYE.take(labels, axis=0),
                np.arange(0, idx.size * CLASSES, CLASSES),  # where row i of a (rows, 2) array starts, flat
            )
        _, rows, labels, onehot, row_starts = self._gathered
        lo, hi = ctx.start, ctx.start + ctx.batch_indices.size
        self._rows = rows[lo:hi]
        self._onehot = onehot[lo:hi]
        self._pick = labels[lo:hi] + row_starts[: hi - lo]  # each row's own-label entry, flat
        self._count = np.array(float(hi - lo))
        self._memo_key = None
        self._memo = ()

    def clear_batch(self) -> None:
        self.set_batch(BatchContext(np.arange(len(self.data))))

    def _unpack(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        h = self.spec.hidden_dim
        w1_end, b1_end, w2_end = self._ends
        w1 = params[:w1_end].reshape(FEATURES, h)
        w2 = params[b1_end:w2_end].reshape(h, CLASSES)
        return w1, params[w1_end:b1_end], w2, params[w2_end:]

    def _forward(self, unpacked, x: np.ndarray):
        w1, b1, w2, b2 = unpacked
        z1 = _mm(x, w1) + b1
        a1 = np.maximum(z1, _ZERO)
        logits = _mm(a1, w2) + b2
        return z1, a1, logits

    def _pinned_pass(self, x: np.ndarray, unpacked=None):
        """z1, a1, the max-shifted logits, their exp and its row sums on the
        pinned rows; reused while x keeps the same bytes and the pin holds."""
        key = x.tobytes()
        if key != self._memo_key:
            z1, a1, logits = self._forward(unpacked or self._unpack(x), self._rows)
            shifted = logits - np.maximum(logits[:, :1], logits[:, 1:])
            e = np.exp(shifted)
            self._memo = z1, a1, shifted, e, np.add.reduce(e, axis=1, keepdims=True)
            self._memo_key = key
        return self._memo

    def value(self, x: ParamVector) -> float:
        _, _, shifted, _, sums = self._pinned_pass(self._check_dim(x))
        picked = shifted.ravel()[self._pick] - np.log(sums[:, 0])
        return float(-(np.add.reduce(picked) / picked.size))

    def gradient(self, x: ParamVector) -> ParamVector:
        x = self._check_dim(x)
        unpacked = self._unpack(x)
        z1, a1, _, e, sums = self._pinned_pass(x, unpacked)
        dlogits = e / sums
        dlogits -= self._onehot  # x - 0.0 is x, so only the own-label entries change
        dlogits /= self._count

        gw2 = _mm(a1.T, dlogits)
        gb2 = np.add.reduce(dlogits, axis=0)
        da1 = _mm(dlogits, unpacked[2].T)
        dz1 = da1 * (z1 > _ZERO)
        gw1 = _mm(self._rows.T, dz1)
        gb1 = np.add.reduce(dz1, axis=0)
        return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])

    def predict(self, params: ParamVector, features: np.ndarray) -> np.ndarray:
        """Argmax class per row; ties break toward the lowest class index."""
        features = np.asarray(features, dtype=np.float64, order="C")
        _, _, logits = self._forward(self._unpack(self._check_dim(params)), features)
        return np.argmax(logits, axis=1)


def initial_params(spec: MlpSpec) -> ParamVector:
    """Scaled-Gaussian weights (std 1/sqrt(fan_in)) and zero biases, from init_seed."""
    rng = np.random.default_rng(spec.init_seed)
    h = spec.hidden_dim
    w1 = rng.standard_normal((FEATURES, h)) / np.sqrt(FEATURES)
    b1 = np.zeros(h)
    w2 = rng.standard_normal((h, CLASSES)) / np.sqrt(h)
    b2 = np.zeros(CLASSES)
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def accuracy(obj: MlpObjective, params: ParamVector) -> float:
    """Fraction of obj's dataset rows, all of them whatever batch is pinned,
    whose argmax prediction matches the label."""
    hits = np.count_nonzero(obj.predict(params, obj.data.features) == obj.data.labels)
    return float(hits / len(obj.data))

