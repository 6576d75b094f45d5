"""Minimal differentiable classifier with hand-written exact gradients,
plus synthetic datasets, for exercising the optimizers in the
stochastic/minibatch regime at desk scale.

The model is a single-hidden-layer MLP over a flattened parameter vector
[W1 | b1 | W2 | b2] with softmax cross-entropy loss; the gradient is exact
backpropagation, which keeps finite-difference checks meaningful.
"""

from dataclasses import dataclass

import numpy as np

from .objective import BatchContext, Objective
from .vecmath import DimensionError, ParamVector, make_rng

ACTIVATIONS = ("relu", "tanh")


@dataclass
class Dataset:
    """Feature matrix with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DimensionError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionError("labels must have one entry per feature row")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain NaN or Inf")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of the one-hidden-layer classifier."""

    input_dim: int
    hidden_dim: int
    num_classes: int
    activation: str = "relu"
    init_seed: int = 0

    def __post_init__(self):
        if min(self.input_dim, self.hidden_dim, self.num_classes) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def param_count(self) -> int:
        return (
            self.input_dim * self.hidden_dim
            + self.hidden_dim
            + self.hidden_dim * self.num_classes
            + self.num_classes
        )


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
    rng = make_rng(seed)
    features = features + noise * rng.standard_normal(features.shape)
    return Dataset(features=features, labels=labels, num_classes=2)


class MlpObjective(Objective):
    """Mean cross-entropy of the MLP over the pinned batch (default: all rows),
    as a function of the flattened parameter vector.

    set_batch and clear_batch copy the rows they pin: the pinned rows are a
    snapshot of the dataset taken then, and a later edit of the dataset is
    seen only after the next pin. value and gradient share one memoized
    forward pass, keyed by the bytes of x and dropped at every pin, so a
    value at the point of the previous gradient reuses its forward pass.
    """

    def __init__(self, spec: MlpSpec, data: Dataset):
        if data.features.shape[1] != spec.input_dim:
            raise DimensionError(
                f"dataset feature dim {data.features.shape[1]} != spec input dim {spec.input_dim}"
            )
        if data.num_classes != spec.num_classes:
            raise DimensionError(
                f"dataset classes {data.num_classes} != spec classes {spec.num_classes}"
            )
        if len(data) == 0:
            raise ValueError("dataset is empty")
        self.spec = spec
        self.data = data
        self.dim = spec.param_count
        self.lipschitz_bound = None
        self.name = "mlp_cross_entropy"
        self.clear_batch()

    def set_batch(self, ctx: BatchContext) -> None:
        idx = ctx.batch_indices
        if idx.min() < 0 or idx.max() >= len(self.data):
            raise ValueError("batch indices out of dataset bounds")
        self._pin(self.data.features[idx], self.data.labels[idx])

    def clear_batch(self) -> None:
        self._pin(np.copy(self.data.features), np.copy(self.data.labels))

    def _pin(self, rows: np.ndarray, labels: np.ndarray) -> None:
        self._rows = rows
        self._pick = (np.arange(len(labels)), labels)  # each row's own-label entry
        self._memo_key = None
        self._memo = ()

    def _unpack(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        s = self.spec
        i = 0
        w1 = params[i : i + s.input_dim * s.hidden_dim].reshape(s.input_dim, s.hidden_dim)
        i += s.input_dim * s.hidden_dim
        b1 = params[i : i + s.hidden_dim]
        i += s.hidden_dim
        w2 = params[i : i + s.hidden_dim * s.num_classes].reshape(s.hidden_dim, s.num_classes)
        i += s.hidden_dim * s.num_classes
        b2 = params[i : i + s.num_classes]
        return w1, b1, w2, b2

    def _forward(self, unpacked, x: np.ndarray):
        w1, b1, w2, b2 = unpacked
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0) if self.spec.activation == "relu" else np.tanh(z1)
        logits = a1 @ w2 + b2
        return z1, a1, logits

    def _pinned_pass(self, x: np.ndarray, unpacked=None):
        """z1, a1, the max-shifted logits, their exp and its row sums on the
        pinned rows; reused while x keeps the same bytes and the pin holds."""
        key = x.tobytes()
        if key != self._memo_key:
            z1, a1, logits = self._forward(unpacked or self._unpack(x), self._rows)
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            self._memo = z1, a1, shifted, e, e.sum(axis=1, keepdims=True)
            self._memo_key = key
        return self._memo

    def value(self, x: ParamVector) -> float:
        _, _, shifted, _, sums = self._pinned_pass(self._check_dim(x))
        picked = shifted[self._pick] - np.log(sums[:, 0])
        return float(-(picked.sum() / picked.size))

    def gradient(self, x: ParamVector) -> ParamVector:
        x = self._check_dim(x)
        unpacked = self._unpack(x)
        z1, a1, _, e, sums = self._pinned_pass(x, unpacked)
        dlogits = e / sums
        dlogits[self._pick] -= 1.0
        dlogits /= len(dlogits)

        gw2 = a1.T @ dlogits
        gb2 = dlogits.sum(axis=0)
        da1 = dlogits @ unpacked[2].T
        if self.spec.activation == "relu":
            dz1 = da1 * (z1 > 0.0)
        else:
            dz1 = da1 * (1.0 - a1 * a1)
        gw1 = self._rows.T @ dz1
        gb1 = dz1.sum(axis=0)
        return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])

    def predict(self, params: ParamVector, features: np.ndarray) -> np.ndarray:
        """Argmax class per row; ties break toward the lowest class index."""
        _, _, logits = self._forward(self._unpack(self._check_dim(params)), features)
        return np.argmax(logits, axis=1)


def mlp_objective(spec: MlpSpec, data: Dataset) -> MlpObjective:
    """Minibatch-capable cross-entropy objective for the given model and data."""
    return MlpObjective(spec, data)


def initial_params(spec: MlpSpec) -> ParamVector:
    """Scaled-Gaussian weights (std 1/sqrt(fan_in)) and zero biases, from init_seed."""
    rng = make_rng(spec.init_seed)
    w1 = rng.standard_normal((spec.input_dim, spec.hidden_dim)) / np.sqrt(spec.input_dim)
    b1 = np.zeros(spec.hidden_dim)
    w2 = rng.standard_normal((spec.hidden_dim, spec.num_classes)) / np.sqrt(spec.hidden_dim)
    b2 = np.zeros(spec.num_classes)
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def accuracy(params: ParamVector, spec: MlpSpec, data: Dataset) -> float:
    """Fraction of rows whose argmax prediction matches the label."""
    if len(data) == 0:
        raise ValueError("accuracy over an empty dataset is undefined")
    obj = MlpObjective(spec, data)
    predictions = obj.predict(np.asarray(params, dtype=np.float64), data.features)
    return float(np.mean(predictions == data.labels))

