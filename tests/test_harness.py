import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dycent import optimizer
from dycent.harness import (
    MOONS_TUNED_EPSILON,
    MOONS_TUNED_H,
    ConfigError,
    HSchedule,
    RunConfig,
    config_echo,
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
        assert summary["stopped_early"]
        assert summary["stop_reason"] == "zero_gradient_start"
        assert summary["iterations"] == 0
        assert summary["final_f"] is None

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
        assert echo["seed"] == 7

    def test_output_named_by_config_hash(self, tmp_path):
        cfg = toy_b_cfg("dycent")
        summary = run_experiment(cfg, out_dir=tmp_path)
        assert config_hash(config_echo(cfg)) in summary["files"]["trajectory_csv"]


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
        spec = MlpSpec(input_dim=2, hidden_dim=16, num_classes=2, activation="relu", init_seed=3)
        assert x0.tobytes() == initial_params(spec).tobytes()

    @pytest.mark.parametrize("objective", ["toy_a", "toy_b"])
    def test_toy_surfaces_have_no_automatic_start(self, starts, tmp_path, objective):
        with pytest.raises(ConfigError, match="no automatic start"):
            run_experiment(RunConfig(objective=objective, optimizer="sgd"), out_dir=tmp_path)
        assert starts == []


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
            h_schedule=HSchedule(decay_factor=10.0, at_epoch=1),
            output_prefix="sched",
        )
        s_base = run_experiment(base, out_dir=tmp_path)
        s_sched = run_experiment(sched, out_dir=tmp_path)
        assert s_base["final_f"] != s_sched["final_f"]

    def test_invalid_schedule(self):
        with pytest.raises(ConfigError):
            HSchedule(decay_factor=0.0, at_epoch=1)


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

    def test_emits_csv_and_text(self, tmp_path):
        result = run_comparison([toy_b_cfg("sgd"), toy_b_cfg("adam")], out_dir=tmp_path)
        csv_lines = Path(result["files"]["comparison_csv"]).read_text().splitlines()
        assert csv_lines[0].startswith("optimizer,")
        assert len(csv_lines) == 3
        txt = Path(result["files"]["comparison_txt"]).read_text()
        assert "sgd" in txt and "adam" in txt


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
        assert cfg.h_schedule == HSchedule(10.0, 1)


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
        assert "dycent" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "runs.ini"
        path.write_text("[r]\nobjective = nope\noptimizer = sgd\n")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "error[config]" in capsys.readouterr().err

    def test_theory_subcommand(self, tmp_path, capsys):
        code = cli.main(["theory", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["descent"]["violations"] == 0

    def test_angles_subcommand(self, tmp_path, capsys):
        code = cli.main(["angles", "--seed", "0", "--iters", "12", "--out", str(tmp_path)])
        assert code == 0
        assert "median_theta_deg" in capsys.readouterr().out

    def test_theory_takes_no_iters(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["theory", "--iters", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2

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

    def test_diverging_baseline_exits_3_with_finite_records(self, tmp_path):
        proc = run_cli(tmp_path, "objective = rosenbrock\noptimizer = sgd\nlr = 1\nmax_iters = 50\n")
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert "error[numerical]" in proc.stderr and "Warning" not in proc.stderr
        summary, rows = partial_outputs(tmp_path)
        assert summary["stop_reason"] == "non_finite" and summary["stopped_early"]
        assert 0 < summary["iterations"] == len(rows) < 50
        assert all(math.isfinite(float(r["f"])) and math.isfinite(float(r["grad_norm"])) for r in rows)
        assert summary["final_f"] == float(rows[-1]["f"])

    @pytest.mark.parametrize(
        "section",
        [
            "objective = toy_b\noptimizer = sgd\nx0 = 1,zz\n",
            "objective = toy_b\noptimizer = sgd\nx0 = nan,1\n",
            "objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nlr = 1%\n",
            "objective = moons_mlp\noptimizer = sgd\nactivation = gelu\n",
            "objective = quadratic\noptimizer = dycent\ndim = 1\n",
            "objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nmax_iters = 5\nbatch_size = 4\n",
            "objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nmax_iters = 5\n"
            "h_decay_factor = 10\nh_decay_at_epoch = 1\n",
        ],
        ids=[
            "x0-unparsable", "x0-nan", "percent", "activation", "dycent-1d", "batch-no-epochs", "schedule-no-epochs"
        ],
    )
    def test_bad_config_exits_2_without_traceback(self, tmp_path, section):
        proc = run_cli(tmp_path, section)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "error[config]" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


def run_cli(tmp_path, section: str) -> subprocess.CompletedProcess:
    """`dycent run` on a one-section config in a fresh interpreter, writing to tmp_path/out."""
    path = tmp_path / "runs.ini"
    path.write_text("[r]\n" + section)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "dycent.cli", "run", "--config", str(path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=30,
    )


def partial_outputs(tmp_path) -> tuple[dict, list[dict]]:
    """The summary, parsed as strict JSON (no NaN/Infinity), and the CSV rows of one run."""
    (json_path,) = (tmp_path / "out").glob("r-*.json")
    (csv_path,) = (tmp_path / "out").glob("r-*.csv")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads(json_path.read_text(), parse_constant=reject)
    return summary, list(csv.DictReader(csv_path.read_text().splitlines()))
