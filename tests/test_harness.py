import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycent import harness, mlmodels, objective as objectives, optimizer
from dycent.harness import (
    MOONS_TUNED_EPSILON,
    MOONS_TUNED_H,
    ConfigError,
    DivergedError,
    RunConfig,
    config_hash,
    parse_config_file,
    run_angle_experiment,
    run_comparison,
    run_experiment,
    run_theory_suite,
)
from dycent.mlmodels import MlpSpec, initial_params
from dycent.records import CSV_COLUMNS
from dycent import cli


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_section(file_name, prefix):
    (section,) = [c for c in parse_config_file(CONFIGS / file_name) if c.output_prefix == prefix]
    return section


def toy_b_cfg(optimizer="dycent", **kwargs):
    params = {"h": 1e-2} if optimizer == "dycent" else {"lr": 1e-2}
    return RunConfig(
        objective="toy_b",
        optimizer=optimizer,
        x0="toy_b_init",
        max_iters=200,
        seed=7,
        optimizer_params=params,
        output_prefix="tb",
        **kwargs,
    )


class TestRunConfig:
    def test_start_presets_resolve_exactly(self):
        from dycent.harness import X0_PRESETS

        assert X0_PRESETS["toy_a_init"] == (-2.0, 0.0)
        assert X0_PRESETS["toy_a_init_perturbed"] == (-2.0, 0.1)
        assert X0_PRESETS["toy_b_init"] == (3.0, 3.0)

    def test_unknown_objective_lists_options(self):
        with pytest.raises(ConfigError, match="toy_a"):
            RunConfig(objective="nope", optimizer="sgd")

    def test_unknown_optimizer_lists_options(self):
        with pytest.raises(ConfigError, match="adam"):
            RunConfig(objective="toy_b", optimizer="nope")

    def test_epochs_need_dataset_objective(self):
        with pytest.raises(ConfigError):
            RunConfig(objective="toy_b", optimizer="sgd", epochs=5, batch_size=8)

    def test_unknown_optimizer_param_rejected(self, tmp_path):
        cfg = RunConfig(
            objective="toy_b", optimizer="dycent", x0="toy_b_init",
            optimizer_params={"lr": 0.1},
        )
        with pytest.raises(ConfigError, match="lr"):
            run_experiment(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize(
        "optimizer, params, message",
        [
            ("dycent", {"epsilon": math.inf}, "epsilon must be > 0 and finite"),
            ("dycent", {"h": math.inf}, "h must be > 0 and finite"),
            ("sgd", {"lr": math.inf}, "lr must be > 0"),
        ],
        ids=["epsilon", "h", "lr"],
    )
    def test_non_finite_optimizer_setting_refused_before_any_file(self, tmp_path, optimizer, params, message):
        # a config file refuses a non-finite number when it is parsed; a RunConfig built in Python meets the same rule
        cfg = RunConfig(objective="quadratic", optimizer=optimizer, optimizer_params=params, output_prefix="s")
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg, out_dir=tmp_path / "out")
        assert str(exc.value).startswith(f"[s] {message}")
        assert not (tmp_path / "out").exists()


class TestRunExperiment:
    def test_csv_structure(self, tmp_path):
        summary = run_experiment(toy_b_cfg("sgd"), out_dir=tmp_path)
        csv_path = summary["files"]["trajectory_csv"]
        lines = Path(csv_path).read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 200
        iters = [int(line.split(",")[0]) for line in lines[1:]]
        assert iters == sorted(iters) and len(set(iters)) == len(iters)

    def test_dycent_angle_columns_filled(self, tmp_path):
        summary = run_experiment(toy_b_cfg("dycent"), out_dir=tmp_path)
        lines = Path(summary["files"]["trajectory_csv"]).read_text().splitlines()
        first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert first["theta_deg"] != ""
        assert first["d_used"] != ""
        assert first["doubled"] in ("true", "false")

    def test_baseline_angle_columns_empty(self, tmp_path):
        summary = run_experiment(toy_b_cfg("sgd"), out_dir=tmp_path)
        lines = Path(summary["files"]["trajectory_csv"]).read_text().splitlines()
        first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert first["theta_deg"] == ""
        assert first["doubled"] == ""

    def test_toy_a_exact_init_flags_zero_gradient(self, tmp_path):
        cfg = RunConfig(
            objective="toy_a", optimizer="sgd", x0="toy_a_init",
            max_iters=100, optimizer_params={"lr": 1e-2}, output_prefix="ta",
        )
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert summary["stop_reason"] == "zero_gradient_start" and "stopped_early" not in summary
        assert summary["iterations"] == 0
        assert summary["final_f"] is None

    def test_zero_probe_gradient_at_the_start_flags_zero_gradient(self, tmp_path):
        # the gradient vanishes everywhere but at the start's bytes: the first
        # step's probe meets a zero gradient, and the run logs no step
        cfg = RunConfig(objective="quadratic", optimizer="dycent", x0=(0.6, -0.3), max_iters=10, output_prefix="zp")
        _, x0, echo, opt_cfgs = harness._prepare(cfg)
        at = x0.tobytes()
        obj = objectives.AnalyticObjective(
            2, lambda x: float(x.sum()), lambda x: np.array([1.0, 2.0]) if x.tobytes() == at else np.zeros(2)
        )
        summary = run_experiment(cfg, out_dir=tmp_path, prepared=(obj, x0, echo, opt_cfgs))
        assert summary["stop_reason"] == "zero_gradient_start"
        assert summary["iterations"] == 0 and summary["final_f"] is None
        assert Path(summary["files"]["trajectory_csv"]).read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_diverged_run_writes_its_steps_then_raises(self, tmp_path):
        # the defaults on rosenbrock: from f(x0) = 24.2 the run reaches 2.4e5 at best and ends near 1e23
        cfg = RunConfig(objective="rosenbrock", optimizer="dycent", output_prefix="r")
        with pytest.raises(DivergedError, match="run diverged"):
            run_experiment(cfg, out_dir=tmp_path)
        (json_path,) = tmp_path.glob("r-*.json")
        summary = json.loads(json_path.read_text())
        assert (summary["stop_reason"], summary["iterations"]) == ("diverged", 1000)
        assert "stopped_early" not in summary and "files" not in summary
        assert summary["final_f"] - summary["best_f"] > harness.DIVERGENCE_FACTOR * max(1.0, abs(summary["best_f"]))

    def test_run_that_ends_above_its_start_after_descending_is_not_diverged(self, tmp_path):
        # toy_a is unbounded below; at probe seed 35 the run reaches f = -1.4e5,
        # then wanders up to f = 376, a ratio of final - best to |best| of about 1.003
        cfg = RunConfig(
            objective="toy_a", optimizer="dycent", x0="toy_a_init_perturbed", seed=35, optimizer_params={"h": 1e-2},
        )
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert summary["stop_reason"] is None
        assert summary["final_f"] > 0 > summary["best_f"]
        assert summary["final_f"] - summary["best_f"] < 2.0 * abs(summary["best_f"])

    def test_dycent_toy_b_finds_global_basin(self, tmp_path):
        summary = run_experiment(toy_b_cfg("dycent"), out_dir=tmp_path)
        assert summary["final_f"] == pytest.approx(-1.0, abs=1e-9)

    def test_moons_run_reports_accuracy(self, tmp_path):
        cfg = RunConfig(
            objective="moons_mlp", optimizer="dycent", x0="auto", seed=0,
            batch_size=32, epochs=12,
            optimizer_params={"h": MOONS_TUNED_H, "epsilon": MOONS_TUNED_EPSILON},
            output_prefix="moons",
        )
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert summary["final_train_accuracy"] is not None
        assert 0.0 <= summary["final_train_accuracy"] <= 1.0

    def test_epoch_run_builds_one_mlp_objective(self, tmp_path, monkeypatch):
        built = []
        init = mlmodels.MlpObjective.__init__

        def counting_init(obj, spec, data):
            built.append(obj)
            init(obj, spec, data)

        monkeypatch.setattr(mlmodels.MlpObjective, "__init__", counting_init)
        cfg = RunConfig(
            objective="moons_mlp", optimizer="adam", batch_size=32, epochs=3,
            objective_params={"n": 100}, optimizer_params={"lr": 1e-2},
        )
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert summary["final_train_accuracy"] is not None  # logged after every epoch
        assert len(built) == 1

    def test_epoch_run_stopped_mid_epoch_logs_accuracy_at_its_last_point(self, tmp_path, monkeypatch):
        # 4 batches per epoch; the gradient vanishes from its 14th call on, so
        # the run stops in the second epoch, on its 7th step, after 6 records.
        calls = []
        gradient = mlmodels.MlpObjective.gradient

        def vanishing_gradient(obj, x):
            calls.append(None)
            return np.zeros(obj.dim) if len(calls) > 13 else gradient(obj, x)

        monkeypatch.setattr(mlmodels.MlpObjective, "gradient", vanishing_gradient)
        cfg = RunConfig(
            objective="moons_mlp", optimizer="dycent", batch_size=25, epochs=3, objective_params={"n": 100},
            optimizer_params={"h": MOONS_TUNED_H, "epsilon": MOONS_TUNED_EPSILON},
        )
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert (summary["stop_reason"], summary["iterations"]) == ("stationary_point", 6)
        rows = list(csv.DictReader(Path(summary["files"]["trajectory_csv"]).read_text().splitlines()))
        assert [r["acc_train"] != "" for r in rows] == [False, False, False, True, False, True]
        assert float(rows[5]["acc_train"]) == summary["final_train_accuracy"] == 0.83

    def test_rerun_is_byte_identical(self, tmp_path):
        s1 = run_experiment(toy_b_cfg("dycent"), out_dir=tmp_path / "a")
        s2 = run_experiment(toy_b_cfg("dycent"), out_dir=tmp_path / "b")
        b1 = Path(s1["files"]["trajectory_csv"]).read_bytes()
        b2 = Path(s2["files"]["trajectory_csv"]).read_bytes()
        assert b1 == b2

    def test_summary_echoes_defaults(self, tmp_path):
        summary = run_experiment(toy_b_cfg("dycent"), out_dir=tmp_path)
        echo = summary["config"]
        assert echo["optimizer_params"]["beta"] == 0.9
        assert echo["optimizer_params"]["epsilon"] == 1e-8
        assert echo["optimizer_params"]["enable_doubling"] is True
        # each run kind echoes its removed settings at their one value, so config hashes do not move
        assert echo["optimizer_params"]["clamp_nonnegative_step"] is False
        assert echo["optimizer_params"]["d_avg_init_mode"] == "first_step"
        assert echo["seed"] == 7
        baseline = run_experiment(toy_b_cfg("sgd"), out_dir=tmp_path)["config"]["optimizer_params"]
        assert baseline == {"method": "sgd", "lr": 1e-2, "momentum": 0.9, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}

    def test_output_named_by_config_hash(self, tmp_path):
        cfg = toy_b_cfg("dycent")
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert config_hash(harness._prepare(cfg)[2]) in summary["files"]["trajectory_csv"]

    def test_one_hidden_unit_and_a_one_row_last_batch_keep_their_bytes(self, tmp_path, capsys):
        # 65 rows in batches of 32 end each epoch on one row, and one hidden unit
        # gives products of inner dimension 1, which the MLP takes by @
        config, out = tmp_path / "one.ini", tmp_path / "out"
        config.write_text(
            "[one-unit]\nobjective = moons_mlp\noptimizer = dycent\n"
            "epochs = 2\nbatch_size = 32\nn = 65\nhidden_dim = 1\n"
        )
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        assert digests == {
            "one-unit-89faabb093.csv": "b6bd87e81f6f742e64b27aba07c18d93ec198fe37f49fb20b9994e65f2af980f",
            "one-unit-89faabb093.json": "b22e05991ae37997b099d7324e97e6acdd687e7870bec7d05e60b8bfa0a42dbc",
        }
        assert len((out / "one-unit-89faabb093.csv").read_text().splitlines()) == 1 + 2 * 3

    @pytest.mark.parametrize(
        "prefix, settings, steps, stop_reason, digests",
        [
            # 5 rows in batches of 1 and of 8: an epoch of one-row batches, and one of a single short batch
            ("n5-b1-adam", {"optimizer": "adam", "batch_size": 1}, 10, None, (
                "c555e21c2c2f05bcf3821f21bc9c5ed354a3ba7ad117a8893f06d7eeeff3a03b",
                "de469474023674d55855610d320d31124ffc4df74fb09756e44f4553bf9b6f4e")),
            ("n5-b1-dycent", {"optimizer": "dycent", "batch_size": 1}, 9, "stationary_point", (
                "c19bb06565cc71faee6af0a4c4f49f7001ee5f5ebc88c74d7b522e0a090b9661",
                "6b2f21e987ec45246c56dfae8ccc7cec89420d536632ea2f71200b26ad6a7bbe")),
            ("n5-b8-adam", {"optimizer": "adam", "batch_size": 8}, 2, None, (
                "572163c82f198d3ae5ded24f20f4419eb40b4a95036b435e646372db337e8e75",
                "8de3d3ea017ec6fe6604e1fb81812a374d5c3526ad777d21b9e44793b2547340")),
            ("n5-b8-dycent", {"optimizer": "dycent", "batch_size": 8}, 2, None, (
                "4aa00f2d9f27fd56f3755ea32bcf407fddda16494148ec5357b10d05acb80572",
                "c1e09228542c89b4e2d12ac968d022dee244c966a0224b4295076e7d3513ce83")),
            # 200 rows in batches of 7, the last of each epoch 4 rows, h decayed from the second epoch
            ("n200-b7", {
                "optimizer": "dycent", "batch_size": 7, "epochs": 3, "h_decay_factor": 10.0, "h_decay_at_epoch": 1,
                "objective_params": {}, "optimizer_params": {"h": 0.002, "epsilon": 0.02},
            }, 87, None, (
                "97273ba1a4bf0b20bab904b4f2ee1ef2b075e753515c618d6dd9e79f532cac1b",
                "bd971dea1809d356c42e3bf43beb2cf95a22452fb3d10d010e19c6cf5df7b160")),
        ],
    )
    def test_epoch_runs_keep_their_bytes(self, tmp_path, prefix, settings, steps, stop_reason, digests):
        cfg = RunConfig(**{
            "objective": "moons_mlp", "epochs": 2, "objective_params": {"n": 5}, "output_prefix": prefix, **settings,
        })
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert (summary["iterations"], summary["stop_reason"]) == (steps, stop_reason)
        got = tuple(hashlib.sha256(Path(summary["files"][f]).read_bytes()).hexdigest()
                    for f in ("trajectory_csv", "summary_json"))
        assert got == digests

    def test_epoch_run_stopped_by_a_non_finite_value_keeps_its_bytes(self, tmp_path):
        # sgd at lr 1e30 overflows on the 6th step, the first batch of epoch 3: the 5 steps
        # before it are written, and the last of them, in mid-epoch, gets no accuracy
        config, out = tmp_path / "nf.ini", tmp_path / "out"
        config.write_text(
            "[non-finite]\nobjective = moons_mlp\noptimizer = sgd\nepochs = 4\nbatch_size = 32\nn = 64\nlr = 1e30\n"
        )
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_NUMERICAL
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        assert digests == {
            "non-finite-9487f7310c.csv": "5f0337c65cc58a8a987fa749f13ab93662480866f88ff8db5024309000707d6f",
            "non-finite-9487f7310c.json": "1d5d7e57c66af429dfb165e609b8be7317c61cea30d47d4e209e296ce6e014a3",
        }
        rows = list(csv.DictReader((out / "non-finite-9487f7310c.csv").read_text().splitlines()))
        assert [r["acc_train"] != "" for r in rows] == [False, True, False, True, False]

    def test_full_batch_runs_keep_their_bytes(self, tmp_path):
        # without epochs every step pins all rows, so a step's first gradient
        # reuses the forward pass of the value taken where the step before landed
        config, out = tmp_path / "fb.ini", tmp_path / "out"
        config.write_text(
            "[DEFAULT]\nobjective = moons_mlp\nmax_iters = 40\n"
            "[fb-dycent]\noptimizer = dycent\n"
            "[fb-adam]\noptimizer = adam\nlr = 0.01\n"
            "[fb-one-unit]\noptimizer = sgd\nhidden_dim = 1\nn = 7\nlr = 0.5\n"
        )
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        assert digests == {
            "fb-adam-d22f106811.csv": "bc92c16fda2978e1783f8bde708f2ce3a0115f4915957d889b47b350fcaedaae",
            "fb-adam-d22f106811.json": "c408862fb92704c641170fbe0d975fd393e2d114e3745db4a59dca70fd2ba420",
            "fb-dycent-d1128c25da.csv": "5c2ac71e348262c9a6d61e345ce3021ef8569621021e9d73a2ecf73d800668d8",
            "fb-dycent-d1128c25da.json": "54c35d17d70f25b293e6467962c203aa66ef31850f18a6c43aba3d922c39011e",
            "fb-one-unit-b546716ee6.csv": "2335cf16198124f41aa34e32548abe79112ea5dfdb07cbdc18e29927420a9822",
            "fb-one-unit-b546716ee6.json": "bcf7c8bef86a33d860d7a33b1bc7b68eece46c71012373de4b0d65a4e17088a5",
        }
        for path in out.glob("*.json"):
            summary = json.loads(path.read_text())
            assert (summary["iterations"], summary["stop_reason"]) == (40, None)

    @pytest.mark.parametrize("objective", ["spd_quadratic", "moons_mlp"])
    def test_objective_is_the_one_its_echo_names(self, objective):
        # data_seed, condition and activation are fixed in the builders but echoed from a separate table
        obj, x0, echo, _ = harness._prepare(RunConfig(objective=objective, optimizer="sgd"))
        p = echo["objective_params"]
        if objective == "spd_quadratic":
            ref = objectives.spd_quadratic(p["dim"], seed=p["data_seed"], condition=p["condition"])
        else:
            assert p["activation"] == "relu"  # the MLP's one activation
            data = mlmodels.make_two_moons(p["n"], p["noise"], seed=p["data_seed"])
            ref = mlmodels.MlpObjective(MlpSpec(p["hidden_dim"], init_seed=p["init_seed"]), data)
        x = x0 + np.random.default_rng(4).standard_normal(x0.size)
        assert obj.value(x) == ref.value(x)
        assert obj.gradient(x).tobytes() == ref.gradient(x).tobytes()


class TestAutomaticStart:
    @pytest.fixture
    def starts(self, monkeypatch):
        """Every x0 that run_experiment hands to the run loop."""
        seen = []
        real = optimizer.run_loop

        def run_loop(x0, *args, **kwargs):
            seen.append(np.array(x0))
            return real(x0, *args, **kwargs)

        monkeypatch.setattr(optimizer, "run_loop", run_loop)
        return seen

    @pytest.mark.parametrize(
        "objective,params,expected",
        [
            ("quadratic", {}, [1.0, 1.0]),
            ("quadratic", {"dim": 4}, [1.0] * 4),
            ("spd_quadratic", {}, [1.0] * 5),
            ("rosenbrock", {}, [-1.2, 1.0]),
            ("rosenbrock", {"dim": 3}, [-1.2, 1.0, -1.2]),
        ],
    )
    def test_analytic_start(self, starts, tmp_path, objective, params, expected):
        cfg = RunConfig(objective=objective, optimizer="sgd", max_iters=1, objective_params=params)
        run_experiment(cfg, out_dir=tmp_path)
        (x0,) = starts
        assert x0.tolist() == expected

    def test_moons_start_is_initial_params_at_run_seed(self, starts, tmp_path):
        cfg = RunConfig(objective="moons_mlp", optimizer="sgd", max_iters=1, seed=3)
        run_experiment(cfg, out_dir=tmp_path)
        (x0,) = starts
        spec = MlpSpec(16, init_seed=3)
        assert x0.tobytes() == initial_params(spec).tobytes()

    @pytest.mark.parametrize("objective", ["toy_a", "toy_b"])
    def test_toy_surfaces_have_no_automatic_start(self, starts, tmp_path, objective):
        with pytest.raises(ConfigError, match="no automatic start"):
            run_experiment(RunConfig(objective=objective, optimizer="sgd"), out_dir=tmp_path)
        assert starts == []


def numbered_f(out_dir) -> list[float]:
    """The f column of the one run written to out_dir, after checking that its rows are numbered by position:
    the iter column is 0..rows-1, the summary's iterations is the row count and iters_to_best is the first
    row with the lowest f."""
    (csv_path,) = Path(out_dir).glob("*.csv")
    summary = json.loads(csv_path.with_suffix(".json").read_text())
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    f = [float(r["f"]) for r in rows]
    assert [r["iter"] for r in rows] == [str(i) for i in range(len(rows))]
    assert summary["iterations"] == len(rows)
    assert summary["iters_to_best"] == (f.index(min(f)) if f else None)
    return f


class TestRowNumbering:
    """A logged step's number is its index in the run's records; the CSV's iter
    column, iterations and iters_to_best are all read off that index."""

    @settings(max_examples=100, deadline=None)
    @given(
        objective=st.sampled_from(["toy_a", "toy_b", "quadratic"]),
        opt=st.sampled_from(harness.OPTIMIZERS),
        budget=st.integers(1, 40),
        rate=st.sampled_from([1e-3, 1e-2, 0.3]),
        seed=st.integers(0, 9),
    )
    @example(objective="toy_b", opt="dycent", budget=40, rate=1e-3, seed=0)  # rows 1..39 tie at the lowest f
    @example(objective="toy_b", opt="dycent", budget=40, rate=1e-2, seed=0)  # stops on a zero gradient
    def test_toy_runs(self, objective, opt, budget, rate, seed):
        x0 = {"toy_a": "toy_a_init_perturbed", "toy_b": "toy_b_init", "quadratic": "auto"}[objective]
        cfg = RunConfig(objective=objective, optimizer=opt, x0=x0, max_iters=budget, seed=seed,
                        optimizer_params={"h" if opt == "dycent" else "lr": rate})
        with tempfile.TemporaryDirectory() as out:
            run_experiment(cfg, out_dir=out)
            numbered_f(out)

    def test_tied_lowest_f_names_its_first_row(self, tmp_path):
        # sgd at lr 0.3 on toy_b settles within 40 steps, so the lowest f is logged on rows 12 to 39
        cfg = RunConfig(objective="toy_b", optimizer="sgd", x0="toy_b_init", max_iters=40, optimizer_params={"lr": 0.3})
        run_experiment(cfg, out_dir=tmp_path)
        f = numbered_f(tmp_path)
        assert f.count(min(f)) == 28 and f.index(min(f)) == 12

    @pytest.mark.parametrize(
        "run, steps, stop_reason",
        [
            # 5 rows in batches of 1 over 2 epochs: dycent stops on a zero gradient at its 10th step
            ({"optimizer": "dycent", "batch_size": 1, "objective_params": {"n": 5}}, 9, "stationary_point"),
            # 65 rows in batches of 32: each epoch ends on a one-row batch
            ({"optimizer": "dycent", "batch_size": 32, "objective_params": {"n": 65, "hidden_dim": 1}}, 6, None),
            ({"optimizer": "adam", "batch_size": 32, "objective_params": {"n": 65}}, 6, None),
        ],
    )
    def test_epoch_runs(self, tmp_path, run, steps, stop_reason):
        summary = run_experiment(RunConfig(objective="moons_mlp", epochs=2, **run), out_dir=tmp_path)
        assert summary["stop_reason"] == stop_reason
        assert len(numbered_f(tmp_path)) == steps


class TestHSchedule:
    def test_schedule_changes_trajectory(self, tmp_path):
        base = RunConfig(
            objective="moons_mlp", optimizer="sgd", x0="auto", seed=3,
            batch_size=32, epochs=4, optimizer_params={"lr": 0.5},
            output_prefix="sched",
        )
        sched = RunConfig(
            objective="moons_mlp", optimizer="sgd", x0="auto", seed=3,
            batch_size=32, epochs=4, optimizer_params={"lr": 0.5},
            h_decay_factor=10.0, h_decay_at_epoch=1,
            output_prefix="sched",
        )
        s_base = run_experiment(base, out_dir=tmp_path)
        s_sched = run_experiment(sched, out_dir=tmp_path)
        assert s_base["final_f"] != s_sched["final_f"]

    def test_invalid_schedule(self):
        epochs = {"objective": "moons_mlp", "optimizer": "sgd", "batch_size": 32, "epochs": 3}
        with pytest.raises(ConfigError, match="^h_decay_factor must be > 0$"):
            RunConfig(**epochs, h_decay_factor=0.0, h_decay_at_epoch=1)
        with pytest.raises(ConfigError, match="^h_decay_at_epoch must be >= 0$"):
            RunConfig(**epochs, h_decay_factor=10.0, h_decay_at_epoch=-1)
        with pytest.raises(ConfigError, match="^h_decay_at_epoch 3 never applies in a run of 3 epochs$"):
            RunConfig(**epochs, h_decay_factor=10.0, h_decay_at_epoch=3)
        with pytest.raises(ConfigError, match="^batch_size and h_decay_factor/h_decay_at_epoch apply only in epoch"):
            RunConfig(objective="toy_b", optimizer="sgd", h_decay_factor=10.0, h_decay_at_epoch=1)

    @pytest.mark.parametrize("half", [{"h_decay_factor": 10.0}, {"h_decay_at_epoch": 1}], ids=["factor", "epoch"])
    def test_half_a_schedule_is_refused(self, half):
        with pytest.raises(ConfigError, match="^h_decay_factor and h_decay_at_epoch go together$"):
            RunConfig(objective="moons_mlp", optimizer="sgd", batch_size=32, epochs=3, **half)

    def test_half_a_schedule_in_a_file_names_its_section(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text("[r]\nobjective = moons_mlp\noptimizer = sgd\nbatch_size = 32\nepochs = 3\nh_decay_factor = 10\n")
        with pytest.raises(ConfigError, match=r"^\[r\] h_decay_factor and h_decay_at_epoch go together$"):
            parse_config_file(path)

    def test_a_new_epoch_count_rechecks_the_schedule(self, tmp_path, capsys):
        cfg = RunConfig(objective="moons_mlp", optimizer="sgd", batch_size=32, epochs=3,
                        h_decay_factor=10.0, h_decay_at_epoch=2)
        with pytest.raises(ConfigError, match="^h_decay_at_epoch 2 never applies in a run of 2 epochs$"):
            dataclasses.replace(cfg, epochs=2)
        # the --iters override sets the epochs of an epoch-mode section the same way
        path = tmp_path / "runs.ini"
        path.write_text("[r]\nobjective = moons_mlp\noptimizer = sgd\nbatch_size = 32\nepochs = 3\n"
                        "h_decay_factor = 10\nh_decay_at_epoch = 2\n")
        assert cli.main(["run", "--config", str(path), "--iters", "2", "--out", str(tmp_path / "out")]) == 2
        assert "never applies in a run of 2 epochs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunComparison:
    def test_single_config_one_row(self, tmp_path):
        result = run_comparison([toy_b_cfg("sgd")], out_dir=tmp_path)
        assert len(result["rows"]) == 1
        assert result["rows"][0]["optimizer"] == "sgd"

    def test_mismatched_x0_rejected(self, tmp_path):
        a = toy_b_cfg("sgd")
        b = RunConfig(
            objective="toy_b", optimizer="adam", x0=(1.0, 1.0),
            max_iters=200, optimizer_params={"lr": 1e-2},
        )
        with pytest.raises(ConfigError):
            run_comparison([a, b], out_dir=tmp_path)

    def test_mismatch_names_field_and_sections(self, tmp_path):
        a = toy_b_cfg("sgd")
        b = RunConfig(
            objective="toy_b", optimizer="adam", x0="toy_b_init", max_iters=100,
            optimizer_params={"lr": 1e-2}, output_prefix="tb-adam",
        )
        with pytest.raises(ConfigError, match=r"share max_iters; \[tb\] and \[tb-adam\] differ"):
            run_comparison([a, b], out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_compares_objective_params_with_defaults_filled_in(self, tmp_path):
        code = compare_sections(
            tmp_path, "objective = quadratic\noptimizer = sgd\ndim = 2", "objective = quadratic\noptimizer = adam"
        )
        assert code == cli.EXIT_OK
        assert len(list((tmp_path / "out").glob("*-comparison-*.csv"))) == 1

    def test_moons_runs_from_different_init_seeds_rejected(self, tmp_path, capsys):
        # init_seed defaults to the run seed, so these runs start from different points
        code = compare_sections(tmp_path, *(f"objective = moons_mlp\noptimizer = sgd\nseed = {s}" for s in (1, 2)))
        assert code == cli.EXIT_CONFIG
        assert "share objective_params; [a] and [b] differ" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    def test_every_section_checked_before_the_first_run(self, tmp_path, capsys):
        code = compare_sections(
            tmp_path, "objective = quadratic\noptimizer = sgd", "objective = quadratic\noptimizer = adam\nlr = -1"
        )
        assert code == cli.EXIT_CONFIG
        assert "error[config]: [b] lr must be > 0" in capsys.readouterr().err  # names the section
        assert not any((tmp_path / "out").iterdir())

    def test_every_decay_checked_before_the_first_run(self, tmp_path, capsys):
        moons = "objective = moons_mlp\nepochs = 2\nbatch_size = 32\nn = 64\n"
        code = compare_sections(
            tmp_path, moons + "optimizer = adam",
            moons + "optimizer = dycent\nh = 1e-300\nh_decay_factor = 1e300\nh_decay_at_epoch = 1",
        )
        assert code == cli.EXIT_CONFIG
        assert "h / h_decay_factor is 0.0; it must be > 0 and finite" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    def test_epoch_sections_may_differ_in_the_max_iters_they_ignore(self, tmp_path):
        common = dict(objective="moons_mlp", epochs=2, batch_size=32, objective_params={"n": 64})
        a = RunConfig(optimizer="adam", max_iters=3, output_prefix="a", **common)
        b = RunConfig(optimizer="dycent", output_prefix="b", **common)
        result = run_comparison([a, b], out_dir=tmp_path)
        assert [r["optimizer"] for r in result["rows"]] == ["adam", "dycent"]
        assert [s["config"]["max_iters"] for s in result["runs"]] == [1000, 1000]  # ignored, so echoed at its default
        assert [s["iterations"] for s in result["runs"]] == [4, 4]

    def test_an_epoch_sections_max_iters_leaves_its_files_as_they_are(self, tmp_path):
        section = "objective = moons_mlp\noptimizer = adam\nepochs = 2\nbatch_size = 32\nn = 64\n"
        config = tmp_path / "m.ini"
        written = []
        for name, extra in (("three", "max_iters = 3\n"), ("many", "max_iters = 500\n"), ("unset", "")):
            config.write_text("[m]\n" + section + extra)
            assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == cli.EXIT_OK
            written.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert written[0] == written[1] == written[2] and len(written[0]) == 2
        config.write_text(f"[a]\n{section}max_iters = 3\n[b]\n{section}max_iters = 500\n")
        assert cli.main(["compare", "--config", str(config), "--out", str(tmp_path / "both")]) == cli.EXIT_OK

    def test_starts_compared_as_resolved(self, tmp_path):
        # (1, 1) is the quadratic's automatic start
        a = RunConfig(objective="quadratic", optimizer="sgd", max_iters=5, output_prefix="a")
        b = RunConfig(objective="quadratic", optimizer="dycent", x0=(1.0, 1.0), max_iters=5, output_prefix="b")
        result = run_comparison([a, b], out_dir=tmp_path)
        assert [r["optimizer"] for r in result["rows"]] == ["sgd", "dycent"]

    def test_every_start_checked_before_the_first_run(self, tmp_path, capsys):
        code = compare_sections(
            tmp_path, "objective = quadratic\noptimizer = sgd\ndim = 1", "objective = quadratic\noptimizer = dycent\ndim = 1"
        )
        assert code == cli.EXIT_CONFIG
        assert "dycent needs dimension >= 2" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "objective,optimizer,kwargs,message",
        [
            ("quadratic", "sgd", {"optimizer_params": {"h": 1.0}}, "unknown sgd parameters ['h']"),
            ("quadratic", "sgd", {"objective_params": {"n": 3}}, "unknown quadratic parameters ['n']"),
            ("toy_b", "sgd", {}, "toy_b has no automatic start"),
            ("quadratic", "sgd", {"x0": "nope"}, "unknown x0 preset 'nope'"),
            ("quadratic", "sgd", {"x0": (1.0, 2.0, 3.0)}, "x0 has dimension 3, objective needs 2"),
            ("quadratic", "dycent", {"objective_params": {"dim": 1}}, "dycent needs dimension >= 2"),
        ],
        ids=["unknown-optimizer-param", "unknown-objective-param", "no-auto-start", "unknown-preset",
             "x0-dimension", "dycent-1d"],
    )
    def test_prepare_errors_name_their_section(self, objective, optimizer, kwargs, message):
        cfg = RunConfig(objective=objective, optimizer=optimizer, output_prefix="s", **kwargs)
        with pytest.raises(ConfigError) as exc:
            harness._prepare(cfg)
        assert str(exc.value).startswith(f"[s] {message}")

    def test_each_section_built_once(self, tmp_path, monkeypatch):
        built = []
        build = harness._build_objective

        def build_counting(cfg):
            built.append(cfg.output_prefix)
            return build(cfg)

        monkeypatch.setattr(harness, "_build_objective", build_counting)
        config = CONFIGS / "toy_b_compare.ini"
        code = cli.main(["compare", "--config", str(config), "--iters", "5", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert len(built) == 9
        assert len(set(built)) == 9  # one build per section

    def test_emits_csv_and_text(self, tmp_path):
        result = run_comparison([toy_b_cfg("sgd"), toy_b_cfg("adam")], out_dir=tmp_path)
        csv_lines = Path(result["files"]["comparison_csv"]).read_text().splitlines()
        assert csv_lines[0].startswith("optimizer,")
        assert len(csv_lines) == 3
        txt = Path(result["files"]["comparison_txt"]).read_text()
        assert "sgd" in txt and "adam" in txt


def test_adam_on_the_shipped_moons_section_at_higher_learning_rates(tmp_path):
    # measured only, as the README states it: the moons table's Adam runs at
    # lr = 1e-3; at 1e-2 it ends at accuracy 1.0 at 4 of seeds 0-4, at 3e-2 at all 5
    adam = shipped_section("moons_dycent.ini", "moons-adam")
    perfect = {}
    for lr in (1e-2, 3e-2):
        finals = []
        for seed in range(5):
            cfg = dataclasses.replace(adam, seed=seed, optimizer_params={**adam.optimizer_params, "lr": lr})
            summary = run_experiment(cfg, out_dir=tmp_path)
            assert summary["stop_reason"] is None
            finals.append(summary["final_train_accuracy"])
        perfect[lr] = finals.count(1.0)
    assert perfect == {1e-2: 4, 3e-2: 5}


class TestTheorySuite:
    def test_report_contents(self, tmp_path):
        report = run_theory_suite(seed=0, out_dir=tmp_path)
        assert report["descent"]["violations"] == 0
        assert report["descent"]["steps_checked"] >= 10_000
        assert report["wolfe"]["armijo_pass_rate"] == 1.0
        assert 0.0 <= report["wolfe"]["curvature_pass_rate"] <= 1.0

    def test_byte_identical_for_seed(self, tmp_path):
        r1 = run_theory_suite(seed=5, out_dir=tmp_path / "a")
        r2 = run_theory_suite(seed=5, out_dir=tmp_path / "b")
        b1 = Path(r1["files"]["report_json"]).read_bytes()
        b2 = Path(r2["files"]["report_json"]).read_bytes()
        assert b1 == b2


class TestAngleExperiment:
    def test_band_summary(self, tmp_path):
        summary = run_angle_experiment(seed=0, out_dir=tmp_path, epochs=12)
        band = summary["angle_band"]
        assert band["steps_in_band"] > 0
        assert band["all_steps_finite"]
        assert band["median_theta_deg"] > 0.0

    def test_is_the_shipped_moons_dycent_run_before_its_decay(self, tmp_path):
        # the moons-dycent section shares the angles run's data, init, shuffles,
        # probe seed, h and epsilon, and its decay starts at epoch 80: the
        # angles CSV's 60 epochs are the first 420 rows of its CSV, byte for byte
        section = shipped_section("moons_dycent.ini", "moons-dycent")
        moons = Path(run_experiment(section, tmp_path)["files"]["trajectory_csv"]).read_bytes()
        angles = Path(run_angle_experiment(seed=0, out_dir=tmp_path)["files"]["trajectory_csv"]).read_bytes()
        assert angles.count(b"\n") == 1 + 420 and moons.count(b"\n") == 1 + 700
        assert moons.startswith(angles)


class TestAngleAblation:
    """Measured only, as the README states it: with the angle forced to 0,
    every dycent step has the length h cot(epsilon) and none doubles."""

    @pytest.fixture(autouse=True)
    def angle_at_zero(self, monkeypatch):
        monkeypatch.setattr(optimizer, "angle_between", lambda *args, **kwargs: 0.0)

    def test_moons_accuracies_at_seeds_0_to_4(self, tmp_path):
        section = shipped_section("moons_dycent.ini", "moons-dycent")
        moons, angles = [], []
        for seed in range(5):
            moons.append(run_experiment(dataclasses.replace(section, seed=seed), tmp_path)["final_train_accuracy"])
            angles.append(run_angle_experiment(seed=seed, out_dir=tmp_path)["final_train_accuracy"])
        assert moons == [1.0, 1.0, 0.93, 0.905, 1.0]
        assert angles == [1.0, 1.0, 0.88, 0.895, 1.0]

    def test_toy_a_at_seeds_0_to_39(self, tmp_path):
        # at epsilon = 1e-8 every step has the length 1e6 whatever the probe
        # seed, so every seed runs the same path: the first step takes f from
        # 0.009 to about 9.7e11, and f stays near 1e12
        section = shipped_section("toy_a_compare.ini", "toya-dycent")
        ends = set()
        for seed in range(40):
            summary = run_experiment(dataclasses.replace(section, seed=seed), tmp_path)
            assert summary["stop_reason"] is None
            ends.add((summary["final_f"], summary["best_f"]))
        ((final_f, best_f),) = ends
        assert final_f == pytest.approx(9.644e11, rel=1e-3)
        assert best_f == pytest.approx(8.709e11, rel=1e-3)


CONFIG_TEXT = """
[toyb-dycent]
objective = toy_b
optimizer = dycent
x0 = toy_b_init
max_iters = 50
seed = 7
h = 0.01

[toyb-sgd]
objective = toy_b
optimizer = sgd
x0 = toy_b_init
max_iters = 50
seed = 7
lr = 0.01
"""


class TestConfigFile:
    def test_parse_sections(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text(CONFIG_TEXT)
        cfgs = parse_config_file(path)
        assert [c.optimizer for c in cfgs] == ["dycent", "sgd"]
        assert cfgs[0].optimizer_params == {"h": 0.01}
        assert cfgs[0].x0 == "toy_b_init"
        assert cfgs[0].output_prefix == "toyb-dycent"

    def test_explicit_vector_x0(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text("[r]\nobjective = toy_b\noptimizer = sgd\nx0 = 1.5, -2.5\n")
        (cfg,) = parse_config_file(path)
        assert cfg.x0 == (1.5, -2.5)

    def test_unknown_key_lists_valid(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text("[r]\nobjective = toy_b\noptimizer = sgd\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.ini")

    def test_schedule_keys(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text(
            "[r]\nobjective = moons_mlp\noptimizer = sgd\nx0 = auto\n"
            "batch_size = 32\nepochs = 3\nh_decay_factor = 10\nh_decay_at_epoch = 1\n"
        )
        (cfg,) = parse_config_file(path)
        assert [(type(v), v) for v in (cfg.h_decay_factor, cfg.h_decay_at_epoch)] == [(float, 10.0), (int, 1)]


SHIPPED_CONFIGS = sorted(CONFIGS.glob("*.ini"))


def spelled_per_section(text):
    """A config text with its [DEFAULT] keys written out in every section, a section's own value winning."""
    sections, name = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            name = line[1:-1]
            sections[name] = {}
        elif " = " in line:
            key, value = line.split(" = ", 1)
            sections[name][key] = value
    defaults = sections.pop("DEFAULT")
    return "".join(
        f"[{n}]\n" + "".join(f"{k} = {v}\n" for k, v in {**defaults, **own}.items()) for n, own in sections.items()
    )


class TestDefaultSection:
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_file_parses_as_its_per_section_spelling(self, path, tmp_path):
        text = path.read_text()
        assert "[DEFAULT]" in text
        spelled = tmp_path / path.name
        spelled.write_text(spelled_per_section(text))
        assert parse_config_file(path) == parse_config_file(spelled)

    def test_default_key_applies_to_every_section_and_a_section_value_wins(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text(
            "[DEFAULT]\nobjective = toy_b\nx0 = toy_b_init\nmax_iters = 50\n"
            "[a]\noptimizer = sgd\n[b]\noptimizer = adam\nmax_iters = 7\n"
        )
        a, b = parse_config_file(path)
        assert (a.output_prefix, a.objective, a.x0, a.max_iters) == ("a", "toy_b", "toy_b_init", 50)
        assert (b.output_prefix, b.objective, b.x0, b.max_iters) == ("b", "toy_b", "toy_b_init", 7)

    def test_unknown_default_key_is_a_config_error_naming_a_section(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text("[DEFAULT]\nbogus = 1\n[a]\nobjective = toy_b\noptimizer = sgd\n")
        with pytest.raises(ConfigError, match=r"\[a\] unknown key 'bogus'"):
            parse_config_file(path)

    def test_only_a_default_section_is_no_run_sections(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text("[DEFAULT]\nobjective = toy_b\noptimizer = sgd\n")
        with pytest.raises(ConfigError, match="no run sections"):
            parse_config_file(path)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "runs.ini"
        path.write_text(CONFIG_TEXT)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert '"final_f"' in out

    def test_compare_subcommand(self, tmp_path, capsys):
        path = tmp_path / "runs.ini"
        path.write_text(CONFIG_TEXT)
        code = cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        (txt_path,) = (tmp_path / "out").glob("*-comparison-*.txt")
        assert out.startswith(txt_path.read_text())
        assert "dycent" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "runs.ini"
        path.write_text("[r]\nobjective = nope\noptimizer = sgd\n")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "text",
        ["[a]\n{run}[sub/b]\n{run}", "[a\0b]\n{run}"],
        ids=["slash-in-section", "nul-in-section"],
    )
    def test_prefix_that_is_not_a_file_name_exits_2_and_writes_nothing(self, tmp_path, capsys, command, text):
        path = tmp_path / "runs.ini"
        path.write_text(text.format(run="objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nmax_iters = 3\n"))
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "must not hold a path separator or NUL" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["runs.ini"]

    @pytest.mark.parametrize(
        "section,shown",
        [("a\x1b[31mRED", "[a\\x1b[31mRED] unknown optimizer 'nope'"), ("a\0b", "[a\\x00b] unknown optimizer 'nope'")],
        ids=["esc", "nul"],
    )
    def test_control_characters_in_a_message_are_escaped(self, tmp_path, section, shown):
        path = tmp_path / "runs.ini"
        path.write_text(f"[{section}]\nobjective = toy_b\noptimizer = nope\n")
        proc = run_dycent("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stderr.startswith(f"error[config]: {shown}")
        assert proc.stderr.endswith("\n") and not any(c < " " for c in proc.stderr[:-1])
        assert not (tmp_path / "out").exists()

    def test_theory_subcommand(self, tmp_path, capsys):
        code = cli.main(["theory", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["descent"]["violations"] == 0

    def test_angles_subcommand(self, tmp_path, capsys):
        code = cli.main(["angles", "--seed", "0", "--iters", "12", "--out", str(tmp_path / "angles")])
        assert code == 0
        assert "median_theta_deg" in capsys.readouterr().out
        # --iters sets the angles run's epochs: a header and 12 epochs of 7 batches, the first rows of
        # the moons-dycent section's run (81 epochs are the fewest in which its decay at epoch 80 applies)
        args = ["compare", "--config", str(CONFIGS / "moons_dycent.ini"), "--iters", "81", "--out", str(tmp_path)]
        assert cli.main(args) == cli.EXIT_OK
        (angles,) = (tmp_path / "angles").glob("angles-*.csv")
        (moons,) = (p for p in tmp_path.glob("moons-dycent-*.csv") if "-comparison-" not in p.name)
        assert angles.read_bytes().count(b"\n") == 1 + 12 * 7
        assert moons.read_bytes().startswith(angles.read_bytes())

    def test_theory_takes_no_iters(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["theory", "--iters", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run", "compare", "angles"])
    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_iters_below_one_names_the_flag_and_writes_nothing(self, tmp_path, capsys, command, iters):
        path = tmp_path / "runs.ini"  # an epoch-mode section: --iters would set its epochs
        path.write_text("[m]\nobjective = moons_mlp\noptimizer = sgd\nbatch_size = 32\nepochs = 2\n")
        config = [] if command == "angles" else ["--config", str(path)]
        code = cli.main([command, *config, "--iters", iters, "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error[config]: --iters must be >= 1, got {iters}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare", "theory", "angles"])
    def test_negative_seed_names_the_flag_and_writes_nothing(self, tmp_path, capsys, command):
        config = [] if command in ("theory", "angles") else ["--config", str(CONFIGS / "toy_b_compare.ini")]
        code = cli.main([command, *config, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error[config]: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_iters_that_breaks_a_section_names_it_and_writes_nothing(self, tmp_path, capsys):
        args = ["--config", str(CONFIGS / "moons_dycent.ini"), "--iters", "5", "--out", str(tmp_path / "out")]
        assert cli.main(["compare", *args]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error[config]: [moons-dycent] h_decay_at_epoch 80 never applies in a run of 5 epochs")
        assert not (tmp_path / "out").exists()

    def test_iters_sets_epochs_in_epoch_mode(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text(
            "[m]\nobjective = moons_mlp\noptimizer = sgd\nx0 = auto\nbatch_size = 32\nepochs = 100\n"
        )
        code = cli.main(["compare", "--config", str(path), "--iters", "2", "--out", str(tmp_path / "out")])
        assert code == 0
        (summary_path,) = (tmp_path / "out").glob("m-*.json")
        summary = json.loads(summary_path.read_text())
        assert (summary["config"]["epochs"], summary["config"]["max_iters"]) == (2, 1000)
        assert summary["iterations"] == 2 * 7  # 200 points in batches of 32

    def test_seed_override(self, tmp_path):
        path = tmp_path / "runs.ini"
        path.write_text(CONFIG_TEXT)
        code = cli.main(
            ["run", "--config", str(path), "--seed", "99", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        summaries = list((tmp_path / "out").glob("*.json"))
        assert all(json.loads(p.read_text())["config"]["seed"] == 99 for p in summaries)

    def test_non_finite_gradient_exits_3(self, tmp_path):
        # The gradient overflows to +-inf at this start. A subprocess with a
        # timeout fails, rather than hangs, if the step loops on it again.
        proc = run_cli(tmp_path, "objective = rosenbrock\noptimizer = dycent\nx0 = 1e160,1\n")
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert "error[numerical]: gradient is not finite" in proc.stderr
        assert "Warning" not in proc.stderr
        summary, rows = partial_outputs(tmp_path)
        assert (summary["iterations"], summary["stop_reason"], summary["final_f"]) == (0, "non_finite", None)
        assert rows == []

    def test_overflowing_toy_run_exits_3(self, tmp_path):
        # The first step takes x past the float range; the value there is NaN, not a crash.
        proc = run_cli(tmp_path, "objective = toy_a\noptimizer = sgd\nx0 = -2,1e154\nlr = 10\nmax_iters = 50\n")
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert "error[numerical]: value at the new point is not finite (nan)" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        summary, rows = partial_outputs(tmp_path)
        assert (summary["iterations"], summary["stop_reason"]) == (0, "non_finite") and "stopped_early" not in summary
        assert rows == []

    def test_run_checks_every_section_before_the_first_run(self, tmp_path, capsys):
        code = compare_sections(
            tmp_path, "objective = quadratic\noptimizer = sgd",
            "objective = moons_mlp\noptimizer = dycent\nepochs = 2\nbatch_size = 32\nn = 64\nh = 1e-300\n"
            "h_decay_factor = 1e300\nh_decay_at_epoch = 1",
            command="run",
        )
        assert code == cli.EXIT_CONFIG
        assert "h / h_decay_factor is 0.0; it must be > 0 and finite" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("max_iters", [2**62, 2**64], ids=["2**62", "2**64"])
    def test_any_iteration_budget_runs_without_allocating_it(self, tmp_path, max_iters):
        # the toy_b run stops after 2 steps; its budget is never built up front
        section = "objective = toy_b\noptimizer = dycent\nx0 = toy_b_init\nseed = 7\nh = 0.01\n"
        proc = run_cli(tmp_path, section + f"max_iters = {max_iters}\n")
        assert proc.returncode == 0, proc.stderr
        summary, rows = partial_outputs(tmp_path)
        assert (summary["iterations"], summary["stop_reason"], len(rows)) == (2, "stationary_point", 2)
        assert summary["config"]["max_iters"] == max_iters

    def test_diverging_baseline_exits_3_with_finite_records(self, tmp_path):
        proc = run_cli(tmp_path, "objective = rosenbrock\noptimizer = sgd\nlr = 1\nmax_iters = 50\n")
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert "error[numerical]" in proc.stderr and "Warning" not in proc.stderr
        summary, rows = partial_outputs(tmp_path)
        assert summary["stop_reason"] == "non_finite" and "stopped_early" not in summary
        assert 0 < summary["iterations"] == len(rows) < 50
        assert all(math.isfinite(float(r["f"])) and math.isfinite(float(r["grad_norm"])) for r in rows)
        assert summary["final_f"] == float(rows[-1]["f"])

    @pytest.mark.parametrize("extra", ["", "h = 1\nmax_iters = 300\n"], ids=["defaults", "h1-iters300"])
    def test_diverging_run_exits_3(self, tmp_path, extra):
        proc = run_cli(tmp_path, "objective = rosenbrock\noptimizer = dycent\n" + extra)
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert "error[numerical]: run diverged" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        summary, rows = partial_outputs(tmp_path)
        assert summary["stop_reason"] == "diverged"
        assert summary["iterations"] == len(rows) == summary["config"]["max_iters"]

    def test_toy_a_run_at_seed_35_exits_0(self, tmp_path):
        proc = run_cli(tmp_path, "objective = toy_a\noptimizer = dycent\nx0 = toy_a_init_perturbed\nseed = 35\nh = 0.01\n")
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert partial_outputs(tmp_path)[0]["stop_reason"] is None

    def test_objective_too_large_to_build_is_a_config_error(self, monkeypatch):
        # a size the machine could overcommit must never be allocated here, so the builder refuses instead
        def refuse(**params):
            raise MemoryError("Unable to allocate 373. GiB")

        _, defaults, takes_epochs = harness._OBJECTIVE_TABLE["moons_mlp"]
        monkeypatch.setitem(harness._OBJECTIVE_TABLE, "moons_mlp", (refuse, defaults, takes_epochs))
        cfg = RunConfig(objective="moons_mlp", optimizer="sgd", epochs=1, batch_size=32, objective_params={"n": 10**11})
        with pytest.raises(ConfigError, match=r"moons_mlp with \{'n': 100000000000, .*\} does not fit in memory: "
                                              r"Unable to allocate 373\. GiB"):
            harness._prepare(cfg)

    @pytest.mark.parametrize(
        "section",
        [
            "objective = toy_b\noptimizer = sgd\nx0 = 1,zz\n",
            "objective = toy_b\noptimizer = sgd\nx0 = nan,1\n",
            "objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nlr = 1%\n",
            "objective = moons_mlp\noptimizer = sgd\nactivation = tanh\n",
            "objective = quadratic\noptimizer = dycent\ndim = 1\n",
            "objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nmax_iters = 5\nbatch_size = 4\n",
            "objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nmax_iters = 5\n"
            "h_decay_factor = 10\nh_decay_at_epoch = 1\n",
            "objective = moons_mlp\noptimizer = sgd\nbatch_size = 32\nepochs = 2\n"
            "h_decay_factor = 10\nh_decay_at_epoch = 2\n",
            "objective = moons_mlp\noptimizer = sgd\nepochs = 2\nbatch_size = 32\nh_decay_factor = 10\n",
            "objective = moons_mlp\noptimizer = dycent\nepochs = 2\nbatch_size = 32\nn = 64\nh = 1e-300\n"
            "h_decay_factor = 1e300\nh_decay_at_epoch = 1\n",
            "objective = moons_mlp\noptimizer = adam\nepochs = 2\nbatch_size = 32\nn = 64\nlr = 1e-300\n"
            "h_decay_factor = 1e300\nh_decay_at_epoch = 1\n",
            "objective = moons_mlp\noptimizer = sgd\nepochs = 2\nbatch_size = 32\nn = 64\nlr = 1e300\n"
            "h_decay_factor = 1e-300\nh_decay_at_epoch = 1\n",
            "objective = toy_b\noptimizer = sgd\n[r]\nx0 = toy_b_init\n",
            "objective = toy_b\noptimizer = sgd\noptimizer = adam\n",
            "objective = toy_b\noptimizer sgd\n",
            # numpy refuses a 7.3 TiB request at once
            "objective = quadratic\noptimizer = sgd\ndim = 1000000000000\n",
            # removed settings; the summary still echoes their one value
            "objective = toy_b\noptimizer = dycent\nx0 = toy_b_init\nmax_iters = 5\nclamp_nonnegative_step = on\n",
            "objective = toy_b\noptimizer = dycent\nx0 = toy_b_init\nmax_iters = 5\nd_avg_init_mode = zero\n",
            "objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nlr = abc\n",
            "objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nseed = 1.5\n",
        ],
        ids=[
            "x0-unparsable", "x0-nan", "percent", "activation", "dycent-1d", "batch-no-epochs", "schedule-no-epochs",
            "schedule-past-last-epoch", "half-a-schedule", "h-decays-to-0", "lr-decays-to-0", "lr-decays-to-inf",
            "duplicate-section", "duplicate-key", "line-without-equals", "oversized-objective", "clamp-removed",
            "init-mode-removed", "lr-unparsable", "seed-unparsable",
        ],
    )
    def test_bad_config_exits_2_without_traceback(self, tmp_path, section):
        proc = run_cli(tmp_path, section)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "error[config]" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()
        for removed in ("clamp_nonnegative_step", "d_avg_init_mode", "activation"):
            if removed in section:
                assert f"unknown key {removed!r}" in proc.stderr
        # a value that does not parse is named with its section, as every section's error is
        for line, stderr in (
            ("x0 = 1,zz", "error[config]: [r] x0: expected a number, got 'zz'\n"),
            ("lr = abc", "error[config]: [r] lr: expected a number, got 'abc'\n"),
            ("seed = 1.5", "error[config]: [r] seed: expected an integer, got '1.5'\n"),
        ):
            if line in section:
                assert proc.stderr == stderr

    @pytest.mark.parametrize(
        "content", [b"objective = toy_b\noptimizer = sgd\n", b"\xff\xfe[r]\nobjective = toy_b\n"],
        ids=["no-section-header", "not-utf8"],
    )
    def test_unparsable_config_file_exits_2_without_traceback(self, tmp_path, content):
        path = tmp_path / "runs.ini"
        path.write_bytes(content)
        proc = run_dycent("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == cli.EXIT_CONFIG
        assert "error[config]" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare", "theory", "angles"])
    def test_out_is_a_file_exits_4_without_traceback(self, tmp_path, command):
        config = tmp_path / "runs.ini"
        config.write_text(CONFIG_TEXT)
        out = tmp_path / "taken"
        out.write_text("")
        args = {"run": ["--config", str(config)], "compare": ["--config", str(config)], "angles": ["--iters", "2"]}
        proc = run_dycent(command, *args.get(command, []), "--out", str(out))
        assert proc.returncode == cli.EXIT_IO
        assert "error[io]" in proc.stderr
        assert "Traceback" not in proc.stderr


def run_dycent(*args: str) -> subprocess.CompletedProcess:
    """The dycent CLI with args in a fresh interpreter that imports this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "dycent.cli", *args], env=env, capture_output=True, text=True, timeout=30
    )


def compare_sections(tmp_path, a: str, b: str, command: str = "compare") -> int:
    """`dycent compare` (or command), in process, on sections [a] and [b] with x0 = auto
    and max_iters = 5, writing to the empty directory tmp_path/out."""
    path = tmp_path / "runs.ini"
    path.write_text(f"[a]\n{a}\nx0 = auto\nmax_iters = 5\n[b]\n{b}\nx0 = auto\nmax_iters = 5\n")
    (tmp_path / "out").mkdir()
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def run_cli(tmp_path, section: str) -> subprocess.CompletedProcess:
    """`dycent run` on a one-section config in a fresh interpreter, writing to tmp_path/out."""
    path = tmp_path / "runs.ini"
    path.write_text("[r]\n" + section)
    return run_dycent("run", "--config", str(path), "--out", str(tmp_path / "out"))


def partial_outputs(tmp_path) -> tuple[dict, list[dict]]:
    """The summary, parsed as strict JSON (no NaN/Infinity), and the CSV rows of one run."""
    (json_path,) = (tmp_path / "out").glob("r-*.json")
    (csv_path,) = (tmp_path / "out").glob("r-*.csv")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads(json_path.read_text(), parse_constant=reject)
    return summary, list(csv.DictReader(csv_path.read_text().splitlines()))
