"""Objective evaluations per step, pinned per driver.

Each point is evaluated once: the stop check's gradient feeds the
baseline update, a baseline step that lands on the bytes it started on
evaluates nothing new (its value is the one the step before logged, and
the next step takes its gradient), while each epoch step, which pins a
new batch and so starts a new stepper, evaluates anew; a dycent step
evaluates f only where it lands, the
theory checks take the run's start value from the caller and every later
start value from the step before, and the Wolfe report takes each landing
gradient from the step that starts there, or, where a run stopped on a
zero gradient, from the stopping step. The counts are
taken by a wrapper defined here, not by package code, so a refactor that
brings a duplicate evaluation back fails these tests.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from dycent import baselines, harness
from dycent.harness import RunConfig, run_experiment
from dycent.objective import isotropic_quadratic, spd_quadratic
from dycent.optimizer import run_loop
from dycent.theory import check_descent, run_constrained, run_suite, wolfe_report
from oracles import every_step_baseline_run

TOY_B_COMPARE = Path(__file__).resolve().parent.parent / "configs" / "toy_b_compare.ini"


class CountingObjective:
    """Delegates to an objective and counts its value and gradient calls."""

    def __init__(self, inner):
        self.inner = inner
        self.values = 0
        self.gradients = 0

    def value(self, x):
        self.values += 1
        return self.inner.value(x)

    def gradient(self, x):
        self.gradients += 1
        return self.inner.gradient(x)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture
def counted(monkeypatch):
    """Run experiments on counting objectives; yields the list of them."""
    built = []
    build = harness._build_objective

    def build_counting(cfg):
        obj, extras = build(cfg)
        built.append(CountingObjective(obj))
        return built[-1], extras

    monkeypatch.setattr(harness, "_build_objective", build_counting)
    return built


def run_counted(counted, tmp_path, **kwargs):
    """One run on a counting objective; a diverged run took its whole budget too, so its written summary counts."""
    try:
        summary = run_experiment(RunConfig(**kwargs), out_dir=tmp_path)
    except harness.DivergedError:
        (path,) = tmp_path.glob("*.json")
        summary = json.loads(path.read_text())
    assert not summary["stopped_early"]  # a full run, no stationary stop
    (obj,) = counted
    return summary["iterations"], obj


def test_deterministic_baseline_one_gradient_one_value_per_step(counted, tmp_path):
    steps, obj = run_counted(
        counted, tmp_path, objective="rosenbrock", optimizer="adam", max_iters=200,
        optimizer_params={"lr": 1e-3},
    )
    assert steps == 200
    assert (obj.gradients, obj.values) == (steps, steps)


def counted_run(cfg):
    """cfg's records, run on a counting objective, and that objective."""
    obj, x0, _, opt_cfgs = harness._prepare(cfg)
    counting = CountingObjective(obj)
    records, _ = harness._run(cfg, counting, x0, opt_cfgs)
    return records, counting


@pytest.fixture
def moves(monkeypatch):
    """Whether each baseline update left its point's bytes, in step order."""
    moved = []
    step = baselines.baseline_step

    def spy(x, g, cfg, state):
        x_new = step(x, g, cfg, state)
        moved.append(x_new.tobytes() != np.asarray(x).tobytes())
        return x_new

    monkeypatch.setattr(baselines, "baseline_step", spy)
    return moved


def same_records(got, ref):
    """Field for field, each float by its repr, so 0.0 and -0.0 differ."""
    return list(map(repr, got)) == list(map(repr, ref))


def test_baseline_that_never_moves_evaluates_its_start_once(moves):
    cfg = RunConfig(objective="quadratic", optimizer="sgd", max_iters=50, optimizer_params={"lr": 1e-300})
    records, obj = counted_run(cfg)
    assert len(records) == 50 and not any(moves)
    assert (obj.gradients, obj.values) == (1, 1)
    ref = every_step_baseline_run(np.ones(2), obj.inner, baselines.BaselineConfig("sgd", 1e-300), 50)
    assert same_records(records, ref)


def test_a_step_from_negative_to_positive_zero_moved(moves):
    # the update of x[0] is -0.0, which takes -0.0 to 0.0: equal as floats, but toy_a's value tells them apart
    cfg = RunConfig(objective="toy_a", optimizer="sgd", x0=(-0.0, 1e-15), max_iters=3, optimizer_params={"lr": 1e-300})
    records, obj = counted_run(cfg)
    assert moves == [True, False, False]
    assert (obj.gradients, obj.values) == (2, 1)
    assert repr(obj.inner.value(np.array([-0.0, 1e-15]))) == "0.0"
    assert [repr(r.f) for r in records] == ["-0.0"] * 3


def test_a_direct_stepper_reuses_at_an_unmoved_point(moves):
    obj = CountingObjective(isotropic_quadratic(2))
    cfg = baselines.BaselineConfig("sgd", 1e-300)
    step = baselines.baseline_stepper(obj, cfg, baselines.BaselineState.zeros(2))
    records = run_loop(np.ones(2), (step for _ in range(5)))[0]
    assert len(records) == 5 and not any(moves)
    assert (obj.gradients, obj.values) == (1, 1)
    assert same_records(records, every_step_baseline_run(np.ones(2), obj.inner, cfg, 5))


# Gradient and value evaluations of each baseline over the shipped toy_b
# compare's 1000 steps: every method but rmsprop settles where its update
# rounds to zero, and from there evaluates nothing new.
TOY_B_COUNTS = {
    "sgd": (781, 780),
    "sgdm": (607, 606),
    "adam": (627, 626),
    "rmsprop": (1000, 1000),
    "adabelief": (645, 644),
    "diffgrad": (619, 618),
    "angulargrad_cos": (624, 623),
    "angulargrad_tan": (624, 623),
}


def test_toy_b_compare_baselines_evaluate_only_where_they_moved(moves):
    cfgs = [dataclasses.replace(c, seed=0) for c in harness.parse_config_file(TOY_B_COMPARE)]
    counts = {}
    for cfg in cfgs:
        if cfg.optimizer == "dycent":
            continue
        moves.clear()
        records, obj = counted_run(cfg)
        assert len(records) == cfg.max_iters == len(moves)
        counts[cfg.optimizer] = (obj.gradients, obj.values)
        # the first step evaluates both; after it, a step at an unmoved point takes no gradient,
        # and an unmoved step no value
        assert counts[cfg.optimizer] == (1 + sum(moves[:-1]), 1 + sum(moves[1:]))
        ref = every_step_baseline_run(
            harness._resolve_x0(cfg, None), obj.inner, baselines.BaselineConfig(cfg.optimizer, **cfg.optimizer_params),
            cfg.max_iters,
        )
        assert same_records(records, ref)
    assert counts == TOY_B_COUNTS


def test_epoch_baseline_that_never_moves_evaluates_every_step(moves):
    # every weight nonzero, so no update of size 1e-300 * g changes a byte
    cfg = RunConfig(
        objective="moons_mlp", optimizer="sgd", x0=(0.5,) * 82, batch_size=32, epochs=2,
        objective_params={"n": 100}, optimizer_params={"lr": 1e-300},
    )
    records, obj = counted_run(cfg)
    assert len(records) == 2 * 4 and not any(moves)
    # each step pins a new batch, so the point it did not leave has a new value and gradient
    assert (obj.gradients, obj.values) == (8, 8)


def test_epoch_baseline_that_never_moves_reads_each_batch_loss(moves):
    # one hidden unit; W2's two columns differ, so the batches' losses differ at the one point
    cfg = RunConfig(
        objective="moons_mlp", optimizer="sgd", x0=(1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0), batch_size=16, epochs=2,
        objective_params={"n": 64, "hidden_dim": 1}, optimizer_params={"lr": 1e-300},
    )
    records, obj = counted_run(cfg)
    assert len(records) == 2 * 4 and not any(moves)
    # a value or gradient carried from one batch to the next would log the same f twice
    assert (obj.gradients, obj.values) == (8, 8)
    assert len({r.f for r in records}) == 8


def test_deterministic_dycent_two_gradients_one_value_per_step(counted, tmp_path):
    steps, obj = run_counted(
        counted, tmp_path, objective="spd_quadratic", optimizer="dycent", max_iters=60,
        optimizer_params={"h": 1e-3},
    )
    assert steps == 60
    assert (obj.gradients, obj.values) == (2 * steps, steps)


def test_epoch_baseline_one_gradient_per_step(counted, tmp_path):
    steps, obj = run_counted(
        counted, tmp_path, objective="moons_mlp", optimizer="adam", batch_size=32, epochs=3,
        objective_params={"n": 100}, optimizer_params={"lr": 1e-2},
    )
    assert steps == 3 * 4
    assert (obj.gradients, obj.values) == (steps, steps)


def test_epoch_dycent_two_gradients_one_value_per_step(counted, tmp_path):
    steps, obj = run_counted(
        counted, tmp_path, objective="moons_mlp", optimizer="dycent", batch_size=32, epochs=3,
        objective_params={"n": 100}, optimizer_params={"h": 2e-3, "epsilon": 0.02},
    )
    assert steps == 3 * 4
    assert (obj.gradients, obj.values) == (2 * steps, steps)


def test_run_constrained_two_gradients_one_value_per_step():
    inner = spd_quadratic(5, seed=3)
    obj = CountingObjective(inner)
    traces, landing = run_constrained(np.full(5, 0.5), obj, inner.lipschitz_bound, 15, seed=2)
    assert len(traces) == 15 and landing is None
    assert obj.values == len(traces)
    assert obj.gradients == 2 * len(traces)


@pytest.fixture(scope="module")
def constrained_run():
    obj = spd_quadratic(5, seed=3)
    return obj, run_constrained(np.full(5, 0.5), obj, obj.lipschitz_bound, 15, seed=2)[0]


def test_wolfe_report_evaluates_only_the_last_landing_gradient(constrained_run):
    inner, traces = constrained_run
    obj = CountingObjective(inner)
    wolfe_report(traces, inner.value(traces[0].x1), obj, c1=1.0 / (2.0 * inner.lipschitz_bound))
    assert (obj.gradients, obj.values) == (1, 0)


def test_a_gap_is_refused_before_any_evaluation(constrained_run):
    inner, traces = constrained_run
    obj = CountingObjective(inner)
    gapped = traces[:7] + traces[8:]
    with pytest.raises(ValueError, match="step 7 does not start where step 6 landed"):
        wolfe_report(gapped, inner.value(traces[0].x1), obj, c1=1.0 / (2.0 * inner.lipschitz_bound))
    assert (obj.gradients, obj.values) == (0, 0)


def test_theory_checks_evaluate_no_value(constrained_run):
    inner, traces = constrained_run
    obj = CountingObjective(inner)
    f0 = inner.value(traces[0].x1)
    # each step starts where the one before landed, so its start value is that step's f_after
    assert [inner.value(tr.x1) for tr in traces[1:]] == [tr.f_after for tr in traces[:-1]]
    assert check_descent(traces, f0, inner.lipschitz_bound).violations == 0
    assert all(wolfe_report(traces, f0, obj, c1=1.0 / (2.0 * inner.lipschitz_bound)).armijo_pass)
    assert obj.values == 0


@pytest.fixture
def suite_objectives(monkeypatch):
    """Make harness.run_theory_suite build counting quadratics; returns the list of them."""
    built = []

    def counting(build):
        def wrapped(*args, **kwargs):
            built.append(CountingObjective(build(*args, **kwargs)))
            return built[-1]

        return wrapped

    for name in ("isotropic_quadratic", "spd_quadratic"):
        monkeypatch.setattr(harness.objectives, name, counting(getattr(harness.objectives, name)))
    return built


def test_theory_suite_one_value_per_step_plus_one_per_run(suite_objectives, tmp_path):
    report = harness.run_theory_suite(0, tmp_path)
    runs = 200 + 250 + 250  # the suite's starts on its three quadratics
    assert len(suite_objectives) == 3
    assert sum(obj.values for obj in suite_objectives) == report["descent"]["steps_checked"] + runs


def test_theory_suite_takes_each_gradient_once(suite_objectives, tmp_path):
    report = harness.run_theory_suite(0, tmp_path)
    gradients = sum(obj.gradients for obj in suite_objectives)
    values = sum(obj.values for obj in suite_objectives)
    assert (gradients, values) == (21_268, 10_984)
    # 2 per step, 1 more for each of the 200 isotropic runs that stopped on a zero
    # gradient, and 1 landing gradient for each of the 500 SPD runs that spent their budget
    assert gradients == 2 * report["descent"]["steps_checked"] + 200 + 500


def test_a_run_that_stops_on_a_zero_gradient_hands_it_to_the_checks():
    inner = isotropic_quadratic(5)
    starts = [np.array([0.3, -0.2, 0.1, 0.05, 0.4])]
    alone = CountingObjective(inner)
    traces, landing = run_constrained(starts[0], alone, inner.lipschitz_bound, 10, seed=1000)
    # the step 1/L lands on the minimum, where the next step stops on a zero gradient
    assert len(traces) == 1 and landing.tolist() == [0.0] * 5
    assert alone.gradients == 2 * 1 + 1  # the stopping step's gradient included
    checked = CountingObjective(inner)
    descent, wolfe = run_suite(checked, starts, 10, 0, c1=1.0 / (2.0 * inner.lipschitz_bound))
    assert wolfe.curvature_pass == [True]
    # the run's own gradients and none after its stopping step; one value for f(x0)
    assert (checked.gradients, checked.values) == (alone.gradients, alone.values + 1)


def test_wolfe_report_same_verdict_with_and_without_next(constrained_run):
    obj, traces = constrained_run
    verdicts = []
    for c2 in np.linspace(0.02, 0.98, 49):  # brackets each step's ratio
        joined = wolfe_report(traces, obj.value(traces[0].x1), obj, c1=0.01, c2=c2)
        # a one-step trajectory has no next step, so its landing gradient is evaluated
        alone = [wolfe_report([tr], obj.value(tr.x1), obj, c1=0.01, c2=c2) for tr in traces]
        assert joined.curvature_pass == [r.curvature_pass[0] for r in alone]
        assert joined.armijo_pass == [r.armijo_pass[0] for r in alone]
        verdicts += joined.curvature_pass
    assert any(verdicts) and not all(verdicts)
