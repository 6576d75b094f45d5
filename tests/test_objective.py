import math
import warnings

import numpy as np
import pytest

from dycent.mlmodels import MlpObjective, MlpSpec, make_two_moons
from dycent.objective import (
    AnalyticObjective,
    BatchContext,
    isotropic_quadratic,
    rosenbrock,
    spd_quadratic,
    toy_a,
    toy_b,
)
from dycent.vecmath import DimensionError

from oracles import central_diff_gradient, matmul_quadratic, numpy_toy_a, numpy_toy_b, relative_error


def assert_gradient_matches_fd(obj, points, tol=1e-5):
    for x in points:
        fd = central_diff_gradient(obj.value, x)
        assert relative_error(obj.gradient(x), fd) <= tol, f"gradient mismatch at {x}"


class TestToyA:
    def test_flat_plane_start_is_stationary(self):
        obj = toy_a()
        x = np.array([-2.0, 0.0])
        assert obj.value(x) == 0.0
        assert np.array_equal(obj.gradient(x), np.zeros(2))

    def test_symbolic_point(self):
        obj = toy_a()
        x = np.array([math.pi / 2, 1.0])
        assert obj.value(x) == pytest.approx(-1.0, abs=1e-15)
        assert obj.gradient(x) == pytest.approx(np.array([0.0, -2.0]), abs=1e-12)
        fd = central_diff_gradient(obj.value, x)
        assert relative_error(obj.gradient(x), fd) <= 1e-5

    def test_gradient_vs_finite_differences(self, rng):
        obj = toy_a()
        points = rng.uniform(-3.0, 3.0, size=(100, 2))
        assert_gradient_matches_fd(obj, points)


class TestToyB:
    def test_ripple_start_value(self):
        # frozen from a 40-digit evaluation of -sin(18)/18
        assert toy_b().value(np.array([3.0, 3.0])) == pytest.approx(
            0.04172151370953756, abs=1e-15
        )

    def test_origin_limit(self):
        obj = toy_b()
        assert obj.value(np.zeros(2)) == -1.0
        assert np.array_equal(obj.gradient(np.zeros(2)), np.zeros(2))

    def test_continuous_through_origin(self):
        assert abs(toy_b().value(np.array([1e-5, 0.0])) - (-1.0)) <= 1e-8

    def test_gradient_vs_finite_differences(self, rng):
        obj = toy_b()
        points = [p for p in rng.uniform(-4.0, 4.0, size=(150, 2)) if np.linalg.norm(p) > 0.1]
        assert len(points) >= 100
        assert_gradient_matches_fd(obj, points[:100])


SURFACES = [(toy_a, numpy_toy_a), (toy_b, numpy_toy_b)]


class TestToySurfacesMatchNumpy:
    """toy_a and toy_b on Python floats give numpy's scalar math bit for bit.

    A NaN is compared as NaN: its sign bit may differ from numpy's, and a
    run stops at the first non-finite value, so no NaN reaches a file.
    """

    @staticmethod
    def draws(rng, n):
        """n points: a third at radii log-uniform in [1e-6, 1e160] (|p|^2 overflows above
        about 1.3e154), a third with |p|^2 within a factor 2 of toy_b's 1e-8 origin patch,
        a third uniform in [-10, 10]^2, where the shipped runs go."""
        k = n // 3
        r = np.concatenate([10.0 ** rng.uniform(-6.0, 160.0, k), np.sqrt(10.0 ** rng.uniform(-8.3, -7.7, k))])
        phi = rng.uniform(0.0, 2.0 * math.pi, r.size)
        ring = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        return np.concatenate([ring, rng.uniform(-10.0, 10.0, size=(n - 2 * k, 2))])

    @staticmethod
    def assert_same(got, want):
        got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert got[finite].tobytes() == want[finite].tobytes()

    @pytest.mark.parametrize("surface, oracle", SURFACES, ids=["toy_a", "toy_b"])
    def test_bit_identical_on_100k_draws(self, surface, oracle):
        obj, (value, grad) = surface(), oracle()
        points = self.draws(np.random.default_rng(20230420), 100_002)
        with np.errstate(all="ignore"):  # |p|^2 overflowing in the dot warns, in both formulations
            got_v = [obj.value(p) for p in points]
            got_g = [obj.gradient(p) for p in points]
            self.assert_same(got_v, [value(p) for p in points])
            self.assert_same(got_g, [grad(p) for p in points])
        patch = np.einsum("ij,ij->i", points, points) < 1e-8
        assert 10_000 < patch.sum() < 30_000  # both sides of the origin patch are drawn
        if surface is toy_b:
            assert np.isnan(got_v).sum() > 1_000  # and |p|^2 overflows on some draws

    @pytest.mark.parametrize("surface, oracle", SURFACES, ids=["toy_a", "toy_b"])
    @pytest.mark.parametrize(
        "p", [(math.inf, 1.0), (-math.inf, 0.0), (math.inf, math.inf), (1.0, -math.inf), (0.0, math.inf),
              (math.nan, 1.0), (1.0, math.nan), (math.inf, math.nan)],
    )
    def test_non_finite_input_gives_numpys_non_finite_output_without_warning(self, surface, oracle, p):
        obj, (value, grad) = surface(), oracle()
        p = np.array(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_v, got_g = obj.value(p), obj.gradient(p)
        with np.errstate(all="ignore"):
            want_v, want_g = value(p), grad(p)
        assert not math.isfinite(got_v) and not np.isfinite(got_g).any()
        assert np.array_equal([got_v, *got_g], [want_v, *want_g], equal_nan=True)
        if surface is toy_b or not math.isfinite(p[0]) or math.isnan(p[1]):
            # a NaN coordinate, an infinite x (toy_a) or an infinite |p|^2 (toy_b) gives NaN
            assert math.isnan(got_v) and np.isnan(got_g).all()


class TestIsotropicQuadratic:
    def test_value_and_gradient(self):
        obj = isotropic_quadratic(2)
        x = np.array([3.0, 4.0])
        assert obj.value(x) == 12.5
        assert np.array_equal(obj.gradient(x), x)

    def test_minimum(self):
        assert isotropic_quadratic(3).value(np.zeros(3)) == 0.0

    def test_lipschitz_bound(self):
        assert isotropic_quadratic(4).lipschitz_bound == 1.0

    def test_lipschitz_exact_on_random_pairs(self, rng):
        obj = isotropic_quadratic(5)
        for _ in range(50):
            x, y = rng.standard_normal((2, 5))
            lhs = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
            assert lhs <= 1.0 * np.linalg.norm(x - y) + 1e-12

    def test_rejects_bad_dim(self):
        with pytest.raises(DimensionError):
            isotropic_quadratic(0)


class TestSpdQuadratic:
    def test_lipschitz_is_max_curvature(self, rng):
        obj = spd_quadratic(6, seed=3)
        L = obj.lipschitz_bound
        for _ in range(100):
            x, y = rng.standard_normal((2, 6))
            lhs = float(np.linalg.norm(obj.gradient(x) - obj.gradient(y)))
            assert lhs <= L * float(np.linalg.norm(x - y)) * (1 + 1e-12)

    def test_gradient_vs_finite_differences(self, rng):
        obj = spd_quadratic(4, seed=9)
        assert_gradient_matches_fd(obj, rng.standard_normal((50, 4)))

    def test_deterministic_in_seed(self):
        a = spd_quadratic(5, seed=11)
        b = spd_quadratic(5, seed=11)
        x = np.arange(5.0)
        assert a.value(x) == b.value(x)
        assert np.array_equal(a.gradient(x), b.gradient(x))


class TestRosenbrock:
    def test_known_minimizer(self):
        for n in (2, 5):
            assert rosenbrock(n).value(np.ones(n)) == 0.0

    def test_origin_value(self):
        assert rosenbrock(2).value(np.zeros(2)) == 1.0

    def test_gradient_vs_finite_differences(self, rng):
        obj = rosenbrock(4)
        points = rng.uniform(-2.0, 2.0, size=(100, 4))
        assert_gradient_matches_fd(obj, points)


class TestObjectiveInterface:
    def test_dimension_checked(self):
        with pytest.raises(DimensionError):
            toy_a().value(np.zeros(3))

    def test_set_batch_unsupported_on_analytic(self):
        with pytest.raises(NotImplementedError):
            toy_a().set_batch(BatchContext(np.array([0])))

    def test_batch_context_rejects_empty(self):
        with pytest.raises(ValueError):
            BatchContext(np.array([], dtype=np.int64))

    def test_linear_objective_helper(self):
        c = np.array([2.0, -1.0])
        obj = AnalyticObjective(2, lambda x: float(c @ x), lambda x: c.copy())
        assert obj.value(np.array([1.0, 1.0])) == 1.0
        assert np.array_equal(obj.gradient(np.zeros(2)), c)


def quadratic_surfaces(n):
    """(objective, its @-operator oracle) for both quadratics in n dimensions."""
    spd = spd_quadratic(n, seed=101, condition=40.0)
    return [(isotropic_quadratic(n), matmul_quadratic(None)), (spd, matmul_quadratic(spd.a))]


def nonfinite_inputs(n):
    """Vectors of dimension n with +-inf or NaN entries, and a finite one whose square overflows."""
    out = []
    for entries in ((math.inf,), (-math.inf,), (math.inf, -math.inf), (math.nan,), (math.inf, math.nan), (1e200,)):
        x = np.linspace(-0.5, 0.5, n)
        x[: len(entries)] = entries
        out.append(x)
    out.append(np.full(n, math.inf))
    out.append(np.full(n, math.nan))
    return out


def warned(fn, *args):
    """fn(*args) and the categories of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [w.category for w in caught]


class TestQuadraticsMatchMatmul:
    """The quadratics' ndarray.dot forms give the @ operator's bits, and its warnings."""

    @staticmethod
    def draws(rng, k, n):
        """k points in n dimensions: uniform directions at magnitudes log-uniform in [1e-160, 1e160]."""
        d = rng.standard_normal((k, n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return d * 10.0 ** rng.uniform(-160.0, 160.0, (k, 1))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_bit_identical_on_100k_draws(self, n):
        points = self.draws(np.random.default_rng(20230420 + n), 100_000, n)
        for obj, (value, grad) in quadratic_surfaces(n):
            with np.errstate(all="ignore"):  # the squares overflow at the large magnitudes, in both forms
                got_v = np.array([obj.value(p) for p in points])
                got_g = np.array([obj.gradient(p) for p in points])
                want_v = np.array([value(p) for p in points])
                want_g = np.array([grad(p) for p in points])
            assert got_v.tobytes() == want_v.tobytes(), obj.name
            assert got_g.tobytes() == want_g.tobytes(), obj.name
            # the squares overflow, and fall below the normal range, on some draws
            assert np.isinf(got_v).sum() > 1_000 and (got_v < np.finfo(np.float64).tiny).sum() > 1_000

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_vecdot_rows_match_per_row_dot_on_100k_draws(self, n):
        rng = np.random.default_rng(20230421 + n)
        x, y = self.draws(rng, 100_000, n), self.draws(rng, 100_000, n)
        with np.errstate(all="ignore"):
            for a, b in ((x, x), (x, y)):
                assert np.vecdot(a, b).tobytes() == np.array([np.dot(p, q) for p, q in zip(a, b)]).tobytes()

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_non_finite_input_gives_the_same_output_and_warning(self, n):
        for obj, (value, grad) in quadratic_surfaces(n):
            for x in nonfinite_inputs(n):
                got_v, got_v_warned = warned(obj.value, x)
                want_v, want_v_warned = warned(value, x)
                got_g, got_g_warned = warned(obj.gradient, x)
                want_g, want_g_warned = warned(grad, x)
                assert not math.isfinite(got_v)
                assert np.float64(got_v).tobytes() == np.float64(want_v).tobytes(), (obj.name, x)
                assert got_g.tobytes() == want_g.tobytes(), (obj.name, x)
                assert (got_v_warned, got_g_warned) == (want_v_warned, want_g_warned), (obj.name, x)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_vecdot_on_non_finite_rows_gives_the_same_output_and_warning(self, n):
        rows = np.array(nonfinite_inputs(n))
        for other in (rows, np.linspace(-1.0, 1.0, rows.size).reshape(rows.shape)):
            for p, q in zip(rows, other):
                got, got_warned = warned(np.vecdot, p[None], q[None])
                want, want_warned = warned(np.dot, p, q)
                assert got.tobytes() == np.float64(want).tobytes() and got_warned == want_warned, (p, q)


def moons_mlp(pin=None):
    obj = MlpObjective(MlpSpec(16), make_two_moons(200, 0.1, seed=0))
    if pin is not None:
        obj.set_batch(BatchContext(pin))
    return obj


LAYOUT_OBJECTIVES = {
    "toy_a": toy_a,
    "toy_b": toy_b,
    "isotropic_quadratic": lambda: isotropic_quadratic(5),
    "spd_quadratic": lambda: spd_quadratic(8, seed=0),
    "rosenbrock": lambda: rosenbrock(6),
    "mlp_full_batch": moons_mlp,
    "mlp_pinned": lambda: moons_mlp(np.arange(3, 200, 6)),
    "mlp_one_row_pin": lambda: moons_mlp(np.array([5])),
}


class TestMemoryLayout:
    """value and gradient are functions of x's values, not of its memory
    layout: a strided view gives the bytes of its contiguous copy. Each
    layout is evaluated on its own objective, so the MLP's memo cannot
    hand one layout the other's pass."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_OBJECTIVES))
    def test_strided_view_gives_the_bytes_of_its_copy(self, name):
        make = LAYOUT_OBJECTIVES[name]
        dim = make().dim
        rng = np.random.default_rng(31)
        for _ in range(300):
            big = rng.standard_normal(2 * dim) * rng.choice([0.1, 1.0, 10.0])
            view = big[::2]
            copy = view.copy()
            assert not view.flags.c_contiguous
            for method in ("value", "gradient"):
                got, want = getattr(make(), method)(view), getattr(make(), method)(copy)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, method)
