"""The benchmark's workloads: what one pass runs, how its outputs are
checked, and what a cold process builds before the first pass.

Every pass goes through the public harness entry points the CLI uses.
The workload seed replaces the seed of every config section, as
`dycent compare --seed` does.
"""

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TOY_CONFIGS = ("configs/toy_a_compare.ini", "configs/toy_b_compare.ini")
MOONS_CONFIGS = ("configs/moons_dycent.ini",)


@dataclass
class PassResult:
    """What one pass produced: logged steps and the summaries to check."""

    steps: int
    summaries: list


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[str, ...]
    # (module, function) whose calls are the workload's operations.
    op: tuple[str, str]
    run_pass: Callable
    check: Callable
    # Calibration kernel of the same kind of work (see run.KERNELS).
    kernel: str


def parse_configs(harness, root: Path, paths, seed: int) -> list[list]:
    """One list of RunConfigs per config file, with the workload seed applied."""
    return [
        [dataclasses.replace(c, seed=seed) for c in harness.parse_config_file(root / p)]
        for p in paths
    ]


def _finite(v) -> bool:
    return v is not None and math.isfinite(v)


def toy_pass(harness, cfg_lists, seed, out) -> PassResult:
    runs = []
    for cfgs in cfg_lists:
        runs += harness.run_comparison(cfgs, out)["runs"]
    return PassResult(sum(s["iterations"] for s in runs), runs)


def toy_check(result: PassResult) -> list[str]:
    bad = []
    for s in result.summaries:
        c = s["config"]
        if not _finite(s["final_f"]):
            bad.append(f"{c['output_prefix']}: final_f {s['final_f']} is not finite")
        if c["objective"] == "toy_b" and c["optimizer"] == "dycent" and not (
            _finite(s["best_f"]) and s["best_f"] <= -0.99
        ):
            bad.append(f"{c['output_prefix']}: best_f {s['best_f']} > -0.99")
    if not any(s["config"]["objective"] == "toy_b" and s["config"]["optimizer"] == "dycent"
               for s in result.summaries):
        bad.append("no dycent run on toy_b")
    return bad


def moons_pass(harness, cfg_lists, seed, out) -> PassResult:
    runs = harness.run_comparison(cfg_lists[0], out)["runs"]
    runs.append(harness.run_angle_experiment(seed, out))
    return PassResult(sum(s["iterations"] for s in runs), runs)


def moons_check(result: PassResult) -> list[str]:
    bad = []
    for s in result.summaries:
        acc = s["final_train_accuracy"]
        if acc is None or not 0.0 <= acc <= 1.0:
            bad.append(f"{s['config']['output_prefix']}: accuracy {acc} outside [0, 1]")
    band = result.summaries[-1]["angle_band"]
    if not band["all_steps_finite"]:
        bad.append("angle band has non-finite angles")
    median = band["median_theta_deg"]
    if median is None or not 0.0 < median < 10.0:
        bad.append(f"angle band median {median} deg outside (0, 10)")
    return bad


def theory_pass(harness, cfg_lists, seed, out) -> PassResult:
    report = harness.run_theory_suite(seed, out)
    return PassResult(report["descent"]["steps_checked"], [report])


def theory_check(result: PassResult) -> list[str]:
    report = result.summaries[0]
    bad = []
    if report["descent"]["violations"] != 0:
        bad.append(f"{report['descent']['violations']} descent-bound violations")
    if report["wolfe"]["armijo_pass_rate"] != 1.0:
        bad.append(f"armijo pass rate {report['wolfe']['armijo_pass_rate']} != 1")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy_compare", TOY_CONFIGS, ("harness", "run_experiment"), toy_pass, toy_check,
                 "interpreter"),
        Workload("moons_train", MOONS_CONFIGS, ("harness", "run_experiment"), moons_pass, moons_check,
                 "mlp"),
        Workload("theory_suite", (), ("theory", "run_constrained"), theory_pass, theory_check,
                 "interpreter"),
    )
}


def build_objectives(workload: str, root: Path, seed: int) -> int:
    """What a cold process does before the first step: parse the workload's
    configs and build its objectives and datasets. Returns how many were built."""
    from dycent import harness, objective

    if workload == "theory_suite":
        # The three quadratics harness.run_theory_suite constructs.
        built = [
            objective.isotropic_quadratic(5),
            objective.spd_quadratic(8, seed=101, condition=10.0),
            objective.spd_quadratic(8, seed=202, condition=40.0),
        ]
        return len(built)
    cfgs = [c for cfgs in parse_configs(harness, root, WORKLOADS[workload].configs, seed) for c in cfgs]
    if workload == "moons_train":
        cfgs.append(harness.angle_run_config(seed))
    return len([harness._build_objective(c) for c in cfgs])
