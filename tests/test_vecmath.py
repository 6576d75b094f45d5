import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dycent.vecmath import (
    DimensionError,
    ZeroGradientError,
    angle_between,
    as_vector,
    norm,
    sample_perpendicular,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
# any float, NaN and Inf included, so squares can under- or overflow
any_float = st.floats(width=64)


def outcome(fn, *args, **kwargs):
    """The bytes of fn's float64 result, or the type and message of the ValueError it raised."""
    try:
        with np.errstate(all="ignore"):  # both calls see the same inputs; only their results matter here
            return np.asarray(fn(*args, **kwargs), dtype=np.float64).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def nonzero_vectors(min_dim=2, max_dim=12):
    return (
        st.lists(finite_floats, min_size=min_dim, max_size=max_dim)
        .map(lambda v: np.asarray(v, dtype=np.float64))
        .filter(lambda v: np.linalg.norm(v) > 1e-6)
    )


class TestDot:
    # norm and angle_between take their inner products with np.vdot
    def test_orthogonal(self):
        assert np.vdot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_arithmetic(self):
        assert np.vdot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    @given(nonzero_vectors())
    def test_self_dot_nonnegative(self, a):
        assert np.vdot(a, a) >= 0.0
        assert math.sqrt(np.vdot(a, a)) == norm(a)


class TestNorm:
    def test_three_four_five(self):
        assert norm(np.array([3.0, 4.0])) == 5.0

    def test_zero_vector(self):
        assert norm(np.zeros(3)) == 0.0

    def test_unit_vector(self):
        v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        assert abs(norm(v) - 1.0) <= 1e-15

    @given(st.lists(st.floats(width=64), min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_bit_identical_to_linalg_norm(self, values):
        # any float, including NaN, Inf and squares that underflow; finite
        # vectors whose square overflows are rescaled (next test)
        a = np.asarray(values, dtype=np.float64)
        assume(not (np.isfinite(a).all() and np.vdot(a, a) == math.inf))
        with np.errstate(over="ignore"):  # a finite entry's square beside an Inf
            expected = float(np.linalg.norm(a))
        got = norm(a)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_overflowing_square_is_rescaled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(np.array([1e200, 0.0])) == 1e200
            assert norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)


class TestSamplePerpendicular:
    def test_2d_orthogonal_complement(self):
        p = sample_perpendicular(np.array([1.0, 0.0]), np.random.default_rng(0))
        assert p[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(p[1]) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_3d(self):
        p = sample_perpendicular(np.array([0.0, 0.0, 2.0]), np.random.default_rng(1))
        assert p[2] == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ZeroGradientError):
            sample_perpendicular(np.zeros(2), np.random.default_rng(0))

    def test_1d_rejected(self):
        with pytest.raises(DimensionError):
            sample_perpendicular(np.array([1.0]), np.random.default_rng(0))

    def test_gradient_with_overflowing_square(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = sample_perpendicular(np.array([1e200, 1.0]), np.random.default_rng(0))
        assert p[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(p[1]) == 1.0

    @pytest.mark.parametrize("g", [[math.nan, 1.0], [math.inf, 1.0], [-math.inf, math.inf, 0.0]])
    def test_non_finite_rejected_without_resampling(self, g, bounded_rng):
        with pytest.raises(ValueError, match="norm"):
            sample_perpendicular(np.array(g), bounded_rng)

    def test_orthogonality_and_unit_norm_bulk(self):
        # 1000 seeded draws across dimensions and gradient scales
        rng = np.random.default_rng(2024)
        draw = np.random.default_rng(7)
        for _ in range(1000):
            dim = int(draw.integers(2, 12))
            g = draw.standard_normal(dim) * 10.0 ** draw.integers(-6, 7)
            if np.linalg.norm(g) == 0.0:
                continue
            p = sample_perpendicular(g, rng)
            assert abs(np.dot(p, g)) <= 1e-10 * np.linalg.norm(g)
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-12

    @given(st.lists(any_float, min_size=2, max_size=12), st.integers(min_value=0, max_value=2**32 - 1))
    @example(values=[1e200, 1.0], seed=0)  # the square overflows and norm rescales
    @example(values=[1e-170, 0.0], seed=0)  # the square underflows: zero norm
    @example(values=[math.inf, 1.0], seed=0)  # no direction: ValueError
    @settings(max_examples=200)
    def test_norm_passed_gives_the_same_bits(self, values, seed):
        # dycent_step hands over the norm it already holds
        g = np.array(values)
        expected = outcome(sample_perpendicular, g, np.random.default_rng(seed))
        assert outcome(sample_perpendicular, g, np.random.default_rng(seed), g_norm=norm(g)) == expected

    @pytest.mark.parametrize(
        "g_norm, error", [(0.0, ZeroGradientError), (math.nan, ValueError), (math.inf, ValueError)]
    )
    def test_passed_norm_is_checked_before_any_draw(self, g_norm, error, bounded_rng):
        with pytest.raises(error, match="perpendicular"):
            sample_perpendicular(np.array([1.0, 1.0]), bounded_rng, g_norm=g_norm)
        assert bounded_rng.left == 100

    def test_norm_is_keyword_only(self):
        with pytest.raises(TypeError):
            sample_perpendicular(np.array([1.0, 1.0]), np.random.default_rng(0), 1.0)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=2, max_value=16))
    @settings(max_examples=50)
    def test_deterministic_for_seed(self, seed, dim):
        g = np.arange(1, dim + 1, dtype=np.float64)
        p1 = sample_perpendicular(g, np.random.default_rng(seed))
        p2 = sample_perpendicular(g, np.random.default_rng(seed))
        assert np.array_equal(p1, p2)


class TestAngleBetween:
    def test_parallel(self):
        assert angle_between(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_orthogonal(self):
        assert angle_between(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_45_degrees(self):
        # frozen from a 40-digit evaluation of acos(1/sqrt(2))
        expected = 0.7853981633974483
        got = angle_between(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroGradientError):
            angle_between(np.zeros(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("b", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]])
    def test_non_finite_vector_rejected(self, b):
        # clamping a NaN cosine would report an angle of 0; an Inf entry
        # takes the renormalizing path, whose inf/inf numpy warns about
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                angle_between(np.array([1.0, 0.0]), np.array(b))
            with pytest.raises(ValueError, match="non-finite"):
                angle_between(np.array(b), np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "a, b",
        [([1e200, 0.0], [1.0, 1.0]), ([1e-200, 0.0], [1e-200, 1e-200])],
        ids=["squared-norm-overflows", "squared-norm-underflows"],
    )
    def test_finite_nonzero_vectors_out_of_square_range(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = angle_between(np.array(a), np.array(b))
        assert got == pytest.approx(math.pi / 4, rel=1e-15)

    @given(st.lists(st.tuples(any_float, any_float), min_size=1, max_size=12))
    @example(pairs=[(1e200, 1.0), (0.0, 1.0)])  # a's square overflows
    @example(pairs=[(1e-200, 1e-200), (0.0, 1e-200)])  # both squares underflow
    @example(pairs=[(3e-162, 1e150), (0.0, 1e150)])  # the subnormal precision limit
    @example(pairs=[(1e-170, 1.0), (0.0, 1.0)])  # one square underflows to 0
    @example(pairs=[(1.0, 1.0), (0.0, 0.0)])  # the zero vector
    @example(pairs=[(1.0, math.nan), (0.0, 1.0)])  # no angle: ValueError
    @settings(max_examples=300)
    def test_squares_passed_give_the_same_bits(self, pairs):
        # dycent_step hands over both squared norms it already holds
        a, b = (np.array(v) for v in zip(*pairs))
        a_sq, b_sq = float(np.vdot(a, a)), float(np.vdot(b, b))
        expected = outcome(angle_between, a, b)
        assert outcome(angle_between, a, b, a_sq=a_sq, b_sq=b_sq) == expected
        assert outcome(angle_between, a, b, a_sq=a_sq) == expected
        assert outcome(angle_between, a, b, b_sq=b_sq) == expected

    @given(nonzero_vectors(), nonzero_vectors())
    @settings(max_examples=200)
    def test_symmetric_bitwise(self, a, b):
        if a.shape != b.shape:
            b = np.resize(b, a.shape)
            if np.linalg.norm(b) <= 1e-6:
                return
        assert angle_between(a, b) == angle_between(b, a)

    @given(nonzero_vectors())
    def test_range(self, a):
        rng = np.random.default_rng(3)
        b = rng.standard_normal(a.size)
        theta = angle_between(a, b)
        assert 0.0 <= theta <= math.pi

    @given(nonzero_vectors(), st.integers(min_value=-30, max_value=30))
    def test_scale_invariance_exact_for_pow2(self, a, k):
        # power-of-two scaling is exact in binary floating point, so the
        # angle must come out exactly 0 (or exactly pi for negated input)
        s = 2.0**k
        assert angle_between(a, s * a) == 0.0
        assert angle_between(a, -s * a) == math.pi

    @given(nonzero_vectors(), st.floats(min_value=1e-3, max_value=1e3))
    @example(a=np.array([-873.4, -655.2, -122.2, 458.2, -103.1]), s=1.849)  # 3.33e-8 rad
    def test_scale_invariance_general(self, a, s):
        # arbitrary scales round. Each n-term inner product of the cosine is
        # off by at most n roundoffs u = 2**-53 (its terms share a sign), and
        # the product, square root and division add 3 more between them, so
        # the cosine can land (2n + 3) u short of 1; acos(1 - k u) is
        # sqrt(2 k u) to first order
        bound = math.sqrt(2 * (2 * a.size + 3) * 2.0**-53)
        assert angle_between(a, s * a) <= bound
        assert angle_between(a, -s * a) >= math.pi - bound


class TestAsVector:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])

    def test_coerces_list(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64
        assert v.shape == (3,)
