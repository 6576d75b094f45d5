"""Scalar fields with exact gradients: the abstraction every optimizer in
this package minimizes, plus the analytic test surfaces used throughout the
test suite and harness.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .vecmath import DimensionError, ParamVector


@dataclass(frozen=True, eq=False)
class BatchContext:
    """Pin of a minibatch: which dataset rows the objective evaluates on.

    The indices must have an integer dtype: a boolean mask or floats are
    refused, not cast to other rows. The context keeps a read-only int64
    copy of them, so a later edit of the caller's array does not reach it.

    rows(start, stop) is the context of a contiguous range of the indices,
    not checked again: its batch_indices are a read-only view of the
    checked vector's, which it keeps as parent, at offset start. An
    objective may gather the parent's rows once for all its ranges, so a
    context is known by its identity: == is `is`, and it hashes by id.
    """

    batch_indices: np.ndarray
    parent: "BatchContext | None" = field(default=None, init=False, repr=False)
    start: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        idx = np.asarray(self.batch_indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("batch must be a non-empty index vector")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"batch indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "batch_indices", idx)

    def rows(self, start: int, stop: int) -> "BatchContext":
        """The context of batch_indices[start:stop], a non-empty range within them."""
        size = self.batch_indices.size
        if not 0 <= start < stop <= size:
            raise ValueError(f"batch range [{start}, {stop}) is empty or outside the {size} indices")
        ctx = object.__new__(BatchContext)
        parent = self if self.parent is None else self.parent
        vars(ctx).update(batch_indices=self.batch_indices[start:stop], parent=parent, start=self.start + start)
        return ctx


class Objective:
    """Evaluatable scalar field f with an exact gradient.

    value(x) and gradient(x) are deterministic functions of x (and, for
    dataset-backed objectives, of the currently pinned batch): _check_dim
    makes x C-contiguous, so a strided view gives its copy's bytes.
    lipschitz_bound is the gradient's Lipschitz constant when known.
    """

    dim: int
    lipschitz_bound: float | None = None
    name: str = ""

    def value(self, x: ParamVector) -> float:
        raise NotImplementedError

    def gradient(self, x: ParamVector) -> ParamVector:
        raise NotImplementedError

    def set_batch(self, ctx: BatchContext) -> None:
        """Pin a minibatch. Only dataset-backed objectives support this."""
        raise NotImplementedError(f"objective {self.name!r} is not dataset-backed")

    def _check_dim(self, x: ParamVector) -> ParamVector:
        x = np.asarray(x, dtype=np.float64, order="C")
        if x.shape != (self.dim,):
            raise DimensionError(f"expected shape ({self.dim},), got {x.shape}")
        return x


class AnalyticObjective(Objective):
    """Objective built from closed-form value and gradient callables."""

    def __init__(
        self,
        dim: int,
        value_fn: Callable[[np.ndarray], float],
        grad_fn: Callable[[np.ndarray], np.ndarray],
        name: str = "",
    ):
        if dim < 1:
            raise DimensionError("objective dimension must be >= 1")
        self.dim = dim
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self.name = name

    def value(self, x: ParamVector) -> float:
        x = self._check_dim(x)
        return float(self._value_fn(x))

    def gradient(self, x: ParamVector) -> ParamVector:
        x = self._check_dim(x)
        return np.asarray(self._grad_fn(x), dtype=np.float64)


def toy_a() -> Objective:
    """Wavy 2-D surface f(x, y) = -y^2 sin(x).

    Unbounded below; the y = 0 plane is entirely flat (zero value, zero
    gradient), which makes (x, 0) starts stationary points.

    Computes on Python floats: math.sin/math.cos round as numpy's do
    without its per-scalar cost, but raise on +-inf where numpy gives NaN,
    so an infinite x is mapped to NaN first (an overflow stays non-finite).
    """

    def value(p):
        x, y = p.tolist()
        x = math.nan if math.isinf(x) else x
        return -(y * y) * math.sin(x)

    def grad(p):
        x, y = p.tolist()
        x = math.nan if math.isinf(x) else x
        return np.array([-(y * y) * math.cos(x), -2.0 * y * math.sin(x)])

    return AnalyticObjective(2, value, grad, name="toy_a")


# Below this squared radius toy_b switches to its limit values; the
# neglected Taylor terms are ~1e-17, under float64 resolution at f ~ 1.
_TOY_B_LIMIT_R2 = 1e-8


def toy_b() -> Objective:
    """Ripple surface f(x, y) = -sin(x^2 + y^2) / (x^2 + y^2).

    The removable singularity at the origin is patched with the limit
    values f -> -1 and grad -> (0, 0). It computes on Python floats as
    toy_a does, mapping an infinite u = x^2 + y^2 to NaN; u stays numpy's
    dot, which x*x + y*y does not round alike.
    """

    def value(p):
        u = float(p.dot(p))
        if u < _TOY_B_LIMIT_R2:
            return -1.0
        u = math.nan if math.isinf(u) else u
        return -math.sin(u) / u

    def grad(p):
        u = float(p.dot(p))
        if u < _TOY_B_LIMIT_R2:
            return np.zeros(2)
        u = math.nan if math.isinf(u) else u
        c = (math.sin(u) - u * math.cos(u)) / (u * u) * 2.0
        x, y = p.tolist()
        return np.array([c * x, c * y])

    return AnalyticObjective(2, value, grad, name="toy_b")


class Quadratic(Objective):
    """f(x) = x^T A x / 2 with gradient A x; f(x) = ||x||^2 / 2 with gradient x where a is None.

    Evaluates with ndarray.dot, which for these shapes gives the bits of
    the @ operator, and its overflow warning, without its ufunc dispatch.
    """

    def __init__(self, dim: int, a: np.ndarray | None, lipschitz_bound: float, name: str):
        self.dim = dim
        self.a = a
        self.lipschitz_bound = lipschitz_bound
        self.name = name

    def value(self, x: ParamVector) -> float:
        x = self._check_dim(x)
        if self.a is None:
            return 0.5 * float(x.dot(x))
        return 0.5 * float(x.dot(self.a.dot(x)))

    def gradient(self, x: ParamVector) -> ParamVector:
        x = self._check_dim(x)
        return x.copy() if self.a is None else self.a.dot(x)


def isotropic_quadratic(n: int) -> Objective:
    """f(x) = ||x||^2 / 2 with gradient x; Lipschitz constant exactly 1."""
    if n < 1:
        raise DimensionError("quadratic dimension must be >= 1")
    return Quadratic(n, None, lipschitz_bound=1.0, name="isotropic_quadratic")


def spd_quadratic(n: int, seed: int, condition: float = 10.0) -> Objective:
    """f(x) = x^T A x / 2 for a random SPD matrix A with known top eigenvalue.

    Eigenvalues are spread log-uniformly over [L/condition, L] with L = 1,
    in a random orthogonal frame, so lipschitz_bound is exact.
    """
    if n < 2:
        raise DimensionError("spd quadratic needs dimension >= 2")
    if condition < 1.0:
        raise ValueError("condition number must be >= 1")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(np.linspace(np.log(1.0 / condition), 0.0, n))
    a = q @ np.diag(eigs) @ q.T
    a = 0.5 * (a + a.T)
    lip = float(np.max(np.linalg.eigvalsh(a)))
    return Quadratic(n, a, lipschitz_bound=lip, name="spd_quadratic")


def rosenbrock(n: int) -> Objective:
    """Chained Rosenbrock with a = 1, b = 100; global minimum at the ones vector."""
    if n < 2:
        raise DimensionError("rosenbrock needs dimension >= 2")

    def value(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def grad(x):
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
        return g

    return AnalyticObjective(n, value, grad, name="rosenbrock")
