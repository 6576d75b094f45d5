"""Dense vector arithmetic and the geometric primitives (perpendicular
sampling, angle measurement) the angle-probed stepper is built from.

All vectors are flat 1-D float64 numpy arrays.
"""

import math

import numpy as np

ParamVector = np.ndarray
RngHandle = np.random.Generator

# Gaussian draws whose residual after projecting out g are shorter than
# this fraction of the draw are discarded and resampled.
RESAMPLE_THRESHOLD = 1e-12


class DimensionError(ValueError):
    """Vector lengths are inconsistent, or the space is too small."""


class ZeroGradientError(ValueError):
    """An operation that needs a direction was handed the zero vector.

    Doubles as the stationary-point signal: optimizer loops catch it and
    stop instead of stepping.
    """


def as_vector(values) -> ParamVector:
    """Coerce to a 1-D float64 array, rejecting empty or non-finite input."""
    v = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if v.ndim != 1 or v.size < 1:
        raise DimensionError(f"expected a flat vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf")
    return v


def norm(a: ParamVector) -> float:
    """Euclidean norm of a flat float vector.

    Bit-identical to np.linalg.norm, which also takes the correctly rounded
    square root of a.dot(a), without its Python-level dispatch; except that
    where that square overflows and every entry is finite, the norm comes
    from the vector scaled to a largest |entry| of 1, so norm([1e200, 0])
    is 1e200, not inf. Underflow is not rescaled: norm([1e-170, 0]) is 0.0,
    as np.linalg.norm gives.
    """
    # vdot runs np.dot's kernel, bit for bit, without np.dot's overflow warning
    sq = float(np.vdot(a, a))
    if sq == math.inf and np.isfinite(a).all():
        s = float(np.max(np.abs(a)))
        b = a / s
        return s * math.sqrt(float(np.vdot(b, b)))
    return math.sqrt(sq)


def sample_perpendicular(g: ParamVector, rng: RngHandle, *, g_norm: float | None = None) -> ParamVector:
    """Unit vector drawn uniformly from the sphere of the hyperplane orthogonal to g.

    Draws a standard-normal vector, projects out the g-component, and
    normalizes; near-parallel draws (residual below RESAMPLE_THRESHOLD of
    the draw) are resampled. A caller that holds norm(g) may pass it as
    g_norm; otherwise it is computed here. Either way a zero norm raises
    ZeroGradientError and a non-finite one ValueError, before any draw.
    """
    if g.size < 2:
        raise DimensionError("no perpendicular direction exists in 1 dimension")
    ng = norm(g) if g_norm is None else g_norm
    if ng == 0.0:
        raise ZeroGradientError("cannot pick a direction perpendicular to the zero vector")
    if not math.isfinite(ng):
        raise ValueError(f"cannot pick a direction perpendicular to a vector of norm {ng}")
    g_hat = g / ng
    while True:
        v = rng.standard_normal(g.size)
        w = v - v.dot(g_hat) * g_hat
        nw = norm(w)
        if nw > RESAMPLE_THRESHOLD * norm(v):
            return w / nw


def angle_between(
    a: ParamVector, b: ParamVector, *, a_sq: float | None = None, b_sq: float | None = None
) -> float:
    """Angle in radians, in [0, pi], between two nonzero vectors.

    A caller that holds a squared norm, float(np.vdot(a, a)) bit for bit,
    may pass it as a_sq (or b_sq for b); otherwise it is computed here.

    The cosine is formed from raw inner products and clamped to [-1, 1]
    before arccos, so exact parallels (including a vs a) come out as
    exactly 0 or pi. Where a squared norm would under- or overflow, the
    cosine comes from the vectors scaled to a largest |entry| of 1, so any
    finite nonzero vectors have an angle. A vector with a NaN or Inf entry
    has no angle and raises ValueError.

    Near-parallel limit: acos near 1 resolves only sqrt(2 k u), k being the
    cosine's rounding error in units u = 2**-53 (up to about 2n + 3 for
    length n), so a and a rounded multiple of a can be that far apart, not 0.

    Precision limit, kept on purpose: when one squared norm is subnormal
    but the product of the two is normal, neither fallback runs and the
    cosine keeps the subnormal's few significant bits, so
    angle_between([3e-162, 0], [1e150, 1e150]) is 0.8301, 5.7 % above
    pi/4. Rescaling that case too moves the theory suite's step counts at
    seeds 201 and 203-205, whose isotropic runs reach gradients near 1e-160.
    """
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {b.shape}")
    # vdot runs np.dot's kernel, bit for bit, without np.dot's overflow warning
    daa = float(np.vdot(a, a)) if a_sq is None else a_sq
    dbb = float(np.vdot(b, b)) if b_sq is None else b_sq
    if not (0.0 < daa < math.inf and 0.0 < dbb < math.inf):
        # a squared norm under- or overflowed (or is NaN): scaling each
        # vector to a largest |entry| of 1 keeps the angle
        sa = float(np.max(np.abs(a), initial=0.0))
        sb = float(np.max(np.abs(b), initial=0.0))
        if sa == 0.0 or sb == 0.0:
            raise ZeroGradientError("angle with the zero vector is undefined")
        a = a / sa
        b = b / sb
        daa = float(np.dot(a, a))
        dbb = float(np.dot(b, b))
    denom = math.sqrt(daa * dbb)
    if denom == 0.0 or not math.isfinite(denom):
        # product under/overflowed; renormalize and retry on unit vectors
        a = a / math.sqrt(daa)
        b = b / math.sqrt(dbb)
        cos = float(a.dot(b)) / math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    else:
        cos = float(a.dot(b)) / denom
    if not math.isfinite(cos):
        # the clamp below would turn NaN into 1, an angle of 0
        raise ValueError("angle with a non-finite vector is undefined")
    cos = max(-1.0, min(1.0, cos))
    return math.acos(cos)
