"""Acceptance gate: one test per release criterion, each at its stated
tolerance and runtime budget. The terminal summary prints one PASS/FAIL
line per criterion (see conftest).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from dycent import baselines, harness, mlmodels, optimizer, theory
from dycent.objective import AnalyticObjective, isotropic_quadratic, rosenbrock, spd_quadratic, toy_a, toy_b
from dycent.records import CSV_COLUMNS

from oracles import central_diff_gradient, dycent_run, relative_error

BASELINE_METHODS = list(baselines.METHODS)


@pytest.fixture(scope="module")
def constrained_quadratic_steps():
    """Shared constrained-mode trajectories for criteria 1 and 2.

    Start points are drawn inside the unit ball so that ||grad|| <= L,
    the regime where the c1 = 1/(2L) sufficient-decrease bound follows
    from the per-step decrease guarantee.
    """
    rng = np.random.default_rng(20240)
    t0 = time.monotonic()
    runs = []
    suites = [
        (isotropic_quadratic(5), 400, 10),
        (spd_quadratic(8, seed=101, condition=10.0), 250, 20),
        (spd_quadratic(8, seed=202, condition=50.0), 250, 20),
    ]
    for obj, n_starts, n_steps in suites:
        L = obj.lipschitz_bound
        for k in range(n_starts):
            x0 = rng.standard_normal(obj.dim)
            x0 *= rng.uniform(0.1, 0.95) / np.linalg.norm(x0)
            traces, _ = theory.run_constrained(x0, obj, L, n_steps, seed=1000 + k)
            runs.append((obj, L, traces))
    elapsed = time.monotonic() - t0
    return runs, elapsed


def test_criterion_1_descent_bound(constrained_quadratic_steps):
    # f(x_t) <= f(x_{t-1}) - ||grad||^2/(2L) + 1e-10 on every constrained
    # step; >= 10^4 steps across isotropic and random-SPD quadratics
    runs, elapsed = constrained_quadratic_steps
    total = 0
    violations = 0
    for obj, L, traces in runs:
        report = theory.check_descent(traces, obj.value(traces[0].x1), L, tol=1e-10)
        total += len(traces)
        violations += report.violations
    assert total >= 10_000, f"only {total} constrained steps generated"
    assert violations == 0, f"{violations} descent violations in {total} steps"
    assert elapsed < 10.0, f"constrained runs took {elapsed:.1f}s (budget 10s)"
    print(f"criterion 1: {total} steps, {violations} violations, {elapsed:.2f}s")


def test_criterion_2_armijo_sufficient_decrease(constrained_quadratic_steps):
    # the c1 = 1/(2L) sufficient-decrease condition holds on 100% of the
    # same constrained steps
    runs, _ = constrained_quadratic_steps
    checked = 0
    for obj, L, traces in runs:
        report = theory.wolfe_report(traces, obj.value(traces[0].x1), obj, c1=1.0 / (2.0 * L))
        assert all(report.armijo_pass), "sufficient decrease failed"
        checked += len(report.armijo_pass)
    assert checked >= 10_000
    print(f"criterion 2: sufficient decrease on {checked}/{checked} steps")


def test_criterion_3_one_step_exactness():
    # from any x0 with h = 0.1 ||x0||, eps = 1e-12, one step (a first step
    # never doubles) lands within 1e-6 ||x0|| of the quadratic's minimum
    rng = np.random.default_rng(321)
    for k in range(100):
        dim = int(rng.integers(2, 8))
        obj = isotropic_quadratic(dim)
        x0 = rng.standard_normal(dim)
        x0 *= rng.uniform(0.1, 10.0) / np.linalg.norm(x0)
        r0 = float(np.linalg.norm(x0))
        cfg = optimizer.DycentConfig(h=0.1 * r0, epsilon=1e-12)
        state = optimizer.DycentState(rng=np.random.default_rng(k))
        x_new, _ = optimizer.dycent_step(x0, obj, cfg, state)
        assert np.linalg.norm(x_new) <= 1e-6 * r0
    print("criterion 3: one-step exactness on 100/100 random starts")


def test_criterion_4_toy_example_escape(tmp_path):
    # eta = h = 1e-2, 1000 iterations, shared starts; the angle-probed
    # stepper's final value is <= every baseline's final value on both toy
    # surfaces. The toy-A endpoint is seed-sensitive (the run keeps leaping
    # between basins); the pinned seed matches the harness examples.
    t0 = time.monotonic()
    for objective, x0 in (("toy_b", "toy_b_init"), ("toy_a", "toy_a_init_perturbed")):
        cfgs = [
            harness.RunConfig(
                objective=objective, optimizer="dycent", x0=x0, max_iters=1000,
                seed=7, optimizer_params={"h": 1e-2}, output_prefix=objective,
            )
        ]
        for method in BASELINE_METHODS:
            cfgs.append(
                harness.RunConfig(
                    objective=objective, optimizer=method, x0=x0, max_iters=1000,
                    seed=7, optimizer_params={"lr": 1e-2}, output_prefix=objective,
                )
            )
        result = harness.run_comparison(cfgs, out_dir=tmp_path)
        finals = {row["optimizer"]: row["final_f"] for row in result["rows"]}
        for method in BASELINE_METHODS:
            assert finals["dycent"] <= finals[method], (
                f"{objective}: dycent final {finals['dycent']} > {method} final {finals[method]}"
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"toy comparisons took {elapsed:.1f}s (budget 5s)"
    print(f"criterion 4: escape inequality holds on both toys, {elapsed:.2f}s")


def test_criterion_5_angle_regime(tmp_path):
    # two-moons MLP (hidden 16, batch 32) at the tuned probe settings: the
    # median logged angle over epochs 10..50 sits in (0, 2] degrees and no
    # step produces a non-finite step size
    t0 = time.monotonic()
    summary = harness.run_angle_experiment(seed=0, out_dir=tmp_path, epochs=60)
    band = summary["angle_band"]
    assert band["median_theta_deg"] is not None
    assert 0.0 < band["median_theta_deg"] <= 2.0
    assert band["all_steps_finite"]
    # every logged step size over the whole run must be finite
    csv_path = summary["files"]["trajectory_csv"]
    lines = Path(csv_path).read_text().splitlines()
    i_d = CSV_COLUMNS.index("d_used")
    d_values = [float(line.split(",")[i_d]) for line in lines[1:]]
    assert all(math.isfinite(d) for d in d_values)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"angle run took {elapsed:.1f}s (budget 60s)"
    print(
        f"criterion 5: median theta {band['median_theta_deg']:.3f} deg over "
        f"{band['steps_in_band']} steps, {elapsed:.2f}s"
    )


def test_criterion_6_stochastic_training_parity(tmp_path):
    # noise-0.1 two-moons: the angle-probed stepper reaches >= 95% train
    # accuracy within 500 epochs and lands within 2 points of default Adam
    t0 = time.monotonic()
    common = dict(
        objective="moons_mlp", x0="auto", seed=0, batch_size=32, epochs=500,
        objective_params={"n": 200, "noise": 0.1},
    )
    dycent_summary = harness.run_experiment(
        harness.RunConfig(
            optimizer="dycent",
            optimizer_params={"h": harness.MOONS_TUNED_H, "epsilon": harness.MOONS_TUNED_EPSILON},
            output_prefix="parity-dycent",
            **common,
        ),
        out_dir=tmp_path,
    )
    adam_summary = harness.run_experiment(
        harness.RunConfig(optimizer="adam", output_prefix="parity-adam", **common),
        out_dir=tmp_path,
    )
    acc_dycent = dycent_summary["final_train_accuracy"]
    acc_adam = adam_summary["final_train_accuracy"]
    assert acc_dycent >= 0.95, f"train accuracy {acc_dycent:.3f} < 0.95"
    assert acc_dycent >= acc_adam - 0.02, f"dycent {acc_dycent:.3f} vs adam {acc_adam:.3f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"parity runs took {elapsed:.1f}s (budget 120s)"
    print(
        f"criterion 6: dycent {acc_dycent:.3f} vs adam {acc_adam:.3f} train accuracy, "
        f"{elapsed:.2f}s"
    )


def test_criterion_7_gradient_oracle_suite():
    # every analytic gradient matches central finite differences at random
    # points: <= 1e-5 relative (1e-4 for the MLP's backprop)
    t0 = time.monotonic()
    rng = np.random.default_rng(99)

    surfaces = [
        (toy_a(), lambda: rng.uniform(-3, 3, 2), 100, 1e-5),
        (toy_b(), lambda: _away_from_origin(rng), 100, 1e-5),
        (isotropic_quadratic(5), lambda: rng.standard_normal(5), 50, 1e-5),
        (spd_quadratic(6, seed=17), lambda: rng.standard_normal(6), 50, 1e-5),
        (rosenbrock(2), lambda: rng.uniform(-2, 2, 2), 100, 1e-5),
        (rosenbrock(5), lambda: rng.uniform(-2, 2, 5), 50, 1e-5),
    ]
    for obj, draw, n_points, tol in surfaces:
        for _ in range(n_points):
            x = draw()
            fd = central_diff_gradient(obj.value, x)
            err = relative_error(obj.gradient(x), fd)
            assert err <= tol, f"{obj.name}: gradient error {err:.2e} > {tol}"

    data = mlmodels.make_two_moons(64, 0.1, seed=3)
    spec = mlmodels.MlpSpec(8, init_seed=1)
    obj = mlmodels.MlpObjective(spec, data)
    for _ in range(10):
        x = rng.standard_normal(spec.param_count)
        fd = central_diff_gradient(obj.value, x)
        err = relative_error(obj.gradient(x), fd)
        assert err <= 1e-4, f"mlp: gradient error {err:.2e} > 1e-4"

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s (budget 30s)"
    print(f"criterion 7: all analytic gradients match finite differences, {elapsed:.2f}s")


def _away_from_origin(rng):
    while True:
        x = rng.uniform(-4, 4, 2)
        if np.linalg.norm(x) > 0.1:
            return x


def test_criterion_8_determinism_and_equivariance(tmp_path):
    # identical seeds give byte-identical trajectories (in memory and in the
    # emitted CSV); scaling the objective by 10 with a matched seed leaves
    # the iterates unchanged to 1e-12
    cfg = optimizer.DycentConfig(h=1e-2)
    a = dycent_run(np.array([3.0, 3.0]), toy_b(), cfg, 500, seed=11)
    b = dycent_run(np.array([3.0, 3.0]), toy_b(), cfg, 500, seed=11)
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.x1, tb.x1)
        assert np.array_equal(ta.p1, tb.p1)
        assert ta.theta == tb.theta and ta.d_used == tb.d_used

    run_cfg = harness.RunConfig(
        objective="toy_b", optimizer="dycent", x0="toy_b_init",
        max_iters=500, seed=11, optimizer_params={"h": 1e-2}, output_prefix="det",
    )
    s1 = harness.run_experiment(run_cfg, out_dir=tmp_path / "a")
    s2 = harness.run_experiment(run_cfg, out_dir=tmp_path / "b")
    assert (
        Path(s1["files"]["trajectory_csv"]).read_bytes()
        == Path(s2["files"]["trajectory_csv"]).read_bytes()
    )

    for dim, seed in ((3, 42), (6, 7)):
        base = isotropic_quadratic(dim)
        scaled = AnalyticObjective(
            dim, lambda x: 10.0 * base.value(x), lambda x: 10.0 * base.gradient(x)
        )
        x0 = np.linspace(1.0, -1.0, dim)
        cfg = optimizer.DycentConfig(h=0.1)
        t1 = dycent_run(x0, base, cfg, 30, seed=seed)
        t2 = dycent_run(x0, scaled, cfg, 30, seed=seed)
        assert len(t1) == len(t2)
        for ta, tb in zip(t1, t2):
            assert float(np.max(np.abs(ta.x1 - tb.x1))) <= 1e-12
    print("criterion 8: bitwise determinism and 1e-12 scale equivariance")
