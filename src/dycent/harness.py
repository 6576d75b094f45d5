"""Experiment orchestration and I/O.

Runs single experiments (one optimizer on one objective), head-to-head
comparisons sharing an objective and start, the theory suite, and the
angle-logging experiment; emits one trajectory CSV and one JSON summary
per run, their file names taken from a hash of the run's full config.
"""

import dataclasses
import hashlib
import json
import math
import os
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, mlmodels, objective as objectives, optimizer, theory
from .objective import BatchContext, Objective
from .records import CSV_COLUMNS, TrajectoryRecord, csv_cell
from .vecmath import ZeroGradientError, as_vector, norm

X0_PRESETS: dict[str, tuple[float, ...]] = {
    "toy_a_init": (-2.0, 0.0),
    "toy_a_init_perturbed": (-2.0, 0.1),
    "toy_b_init": (3.0, 3.0),
}


def _two_moons_mlp(n, noise, hidden_dim, init_seed):
    data = mlmodels.make_two_moons(n=n, noise=noise, seed=0)
    spec = mlmodels.MlpSpec(hidden_dim, init_seed)
    return mlmodels.MlpObjective(spec, data), mlmodels.initial_params(spec)


# Each objective's builder, its parameters with their defaults, and whether
# it takes epochs: the one description of an objective that building, the
# automatic start, RunConfig's checks, config_echo and the config-file parser
# all read. A builder takes every parameter by name, each converted to its
# default's type, and returns (objective, automatic start or None). The None
# default of moons_mlp's init_seed stands for the run seed.
_OBJECTIVE_TABLE = {
    "toy_a": (lambda: (objectives.toy_a(), None), {}, False),
    "toy_b": (lambda: (objectives.toy_b(), None), {}, False),
    "quadratic": (lambda dim: (objectives.isotropic_quadratic(dim), np.full(dim, 1.0)), {"dim": 2}, False),
    "spd_quadratic": (
        lambda dim: (objectives.spd_quadratic(dim, seed=0, condition=10.0), np.full(dim, 1.0)), {"dim": 5}, False
    ),
    "rosenbrock": (
        lambda dim: (objectives.rosenbrock(dim), np.tile([-1.2, 1.0], (dim + 1) // 2)[:dim]), {"dim": 2}, False
    ),
    "moons_mlp": (_two_moons_mlp, {"n": 200, "noise": 0.1, "hidden_dim": 16, "init_seed": None}, True),
}
OBJECTIVES = tuple(_OBJECTIVE_TABLE)
OPTIMIZERS = ("dycent",) + baselines.METHODS

# Settings fixed at one value that a config cannot set, by run kind.
# config_echo echoes them, so config hashes and file names match those
# written when they were config keys.
_FIXED_ECHO = {
    "dycent": {"beta": optimizer.BETA, "enable_doubling": True, "clamp_nonnegative_step": False,
               "d_avg_init_mode": "first_step"},
    "baseline": {"momentum": baselines.MOMENTUM, "beta1": baselines.BETA1, "beta2": baselines.BETA2,
                 "eps": baselines.EPS},
    "spd_quadratic": {"data_seed": 0, "condition": 10.0},
    "moons_mlp": {"data_seed": 0, "activation": "relu"},
}

# Tuned probe settings for the two-moons MLP runs. On this surface the raw
# probe angle can shrink below float resolution (the batch loss is nearly
# flat along most perpendicular directions once the net separates), so a
# visible epsilon floor is what keeps cot bounded: |d| <= h * cot(epsilon).
# With this pair the recorded angles sit in the low-single-degree band and
# steps stay O(0.1).
MOONS_TUNED_H = 2e-3
MOONS_TUNED_EPSILON = 0.02
ANGLE_EPOCHS = 60  # the angle-logging run's epochs, unless --iters sets them


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists the valid options."""


class DivergedError(ArithmeticError):
    """A run took its whole budget and ended far above the best value it recorded."""


# A run whose final f exceeds its best f by more than this factor times
# max(1, |best f|) is marked "diverged". The rule reads only recorded values,
# so it costs no evaluation; shipped runs stay below 1 and the diverging
# Rosenbrock runs reach about 1e17.
DIVERGENCE_FACTOR = 1e6


@dataclass
class RunConfig:
    """Complete description of one experiment run. h_decay_factor and h_decay_at_epoch go together:
    from epoch h_decay_at_epoch on, h (or lr) is divided by h_decay_factor."""

    objective: str
    optimizer: str
    x0: str | tuple[float, ...] = "auto"
    max_iters: int = 1000
    seed: int = 0
    batch_size: int | None = None
    epochs: int | None = None
    h_decay_factor: float | None = None
    h_decay_at_epoch: int | None = None
    output_prefix: str = "run"
    objective_params: dict = field(default_factory=dict)
    optimizer_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(
                f"unknown objective {self.objective!r}; valid: {sorted(OBJECTIVES)}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(
                f"unknown optimizer {self.optimizer!r}; valid: {sorted(OPTIMIZERS)}"
            )
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if any(c and c in self.output_prefix for c in (os.sep, os.altsep, "\0")):
            raise ConfigError(f"output_prefix {self.output_prefix!r} must not hold a path separator or NUL")
        scheduled = self.h_decay_factor is not None
        if scheduled != (self.h_decay_at_epoch is not None):
            raise ConfigError("h_decay_factor and h_decay_at_epoch go together")
        if scheduled and not self.h_decay_factor > 0:
            raise ConfigError("h_decay_factor must be > 0")
        if scheduled and self.h_decay_at_epoch < 0:
            raise ConfigError("h_decay_at_epoch must be >= 0")
        if self.epochs is not None:
            if self.epochs < 1:
                raise ConfigError("epochs must be >= 1")
            if not _OBJECTIVE_TABLE[self.objective][2]:
                raise ConfigError("epochs only apply to dataset-backed objectives")
            if self.batch_size is None or self.batch_size < 1:
                raise ConfigError("epoch mode needs batch_size >= 1")
            if scheduled and self.h_decay_at_epoch >= self.epochs:
                raise ConfigError(
                    f"h_decay_at_epoch {self.h_decay_at_epoch} never applies in a run of {self.epochs} epochs"
                )
        elif self.batch_size is not None or scheduled:
            raise ConfigError("batch_size and h_decay_factor/h_decay_at_epoch apply only in epoch mode; set epochs")


def _param_type(default) -> type:
    return int if default is None else type(default)  # None: the run seed


def _objective_params(cfg: RunConfig) -> dict:
    """cfg's objective parameters with every default filled in."""
    defaults = _OBJECTIVE_TABLE[cfg.objective][1]
    return {**{k: cfg.seed if d is None else d for k, d in defaults.items()}, **cfg.objective_params}


def _build_objective(cfg: RunConfig) -> tuple[Objective, np.ndarray | None]:
    """Instantiate the configured objective; returns (objective, automatic start or None).

    An unknown parameter, one the objective rejects, or a size too large to
    allocate raises ConfigError.
    """
    build, defaults, _ = _OBJECTIVE_TABLE[cfg.objective]
    unknown = set(cfg.objective_params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {cfg.objective} parameters {sorted(unknown)}")
    params = _objective_params(cfg)
    try:
        return build(**{k: _param_type(defaults[k])(v) for k, v in params.items()})
    except ValueError as exc:
        raise ConfigError(f"{cfg.objective}: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"{cfg.objective} with {params} does not fit in memory: {exc}") from None


def _resolve_x0(cfg: RunConfig, auto_start: np.ndarray | None) -> np.ndarray:
    if isinstance(cfg.x0, str):
        if cfg.x0 == "auto":
            if auto_start is not None:
                return auto_start
            raise ConfigError(
                f"{cfg.objective} has no automatic start; give x0 explicitly "
                f"or use a preset from {sorted(X0_PRESETS)}"
            )
        if cfg.x0 not in X0_PRESETS:
            raise ConfigError(
                f"unknown x0 preset {cfg.x0!r}; valid: {sorted(X0_PRESETS)} or 'auto'"
            )
        return as_vector(X0_PRESETS[cfg.x0])
    return as_vector(cfg.x0)


def _prepare(cfg: RunConfig) -> tuple[Objective, np.ndarray, dict, list]:
    """cfg's objective, resolved start, config echo and optimizer configs, the second after the h schedule's
    decay; a bad optimizer setting or decay, a start of the wrong dimension, or dycent in 1-D raises ConfigError,
    its message prefixed with [output_prefix] as parse_config_file prefixes a section's errors."""
    try:
        opt_cfgs = [_build_optimizer_config(cfg)]
        if cfg.h_decay_factor is not None:
            rate = "h" if cfg.optimizer == "dycent" else "lr"
            decayed = getattr(opt_cfgs[0], rate) / cfg.h_decay_factor
            if not 0.0 < decayed < math.inf:
                raise ConfigError(f"{rate} / h_decay_factor is {decayed}; it must be > 0 and finite")
            opt_cfgs.append(dataclasses.replace(opt_cfgs[0], **{rate: decayed}))
        echo = config_echo(cfg, opt_cfgs[0])
        obj, auto_start = _build_objective(cfg)
        x0 = _resolve_x0(cfg, auto_start)
        if x0.shape != (obj.dim,):
            raise ConfigError(f"x0 has dimension {x0.size}, objective needs {obj.dim}")
        if cfg.optimizer == "dycent" and obj.dim < 2:
            raise ConfigError(f"dycent needs dimension >= 2 to probe; {cfg.objective} has {obj.dim}")
        return obj, x0, echo, opt_cfgs
    except ConfigError as exc:
        raise ConfigError(f"[{cfg.output_prefix}] {exc}") from None


def _build_optimizer_config(cfg: RunConfig) -> optimizer.DycentConfig | baselines.BaselineConfig:
    """cfg's optimizer settings as the optimizer's own config, defaults filled in."""
    if cfg.optimizer == "dycent":
        cls, fixed = optimizer.DycentConfig, {}
    else:
        cls, fixed = baselines.BaselineConfig, {"method": cfg.optimizer}
    known = {f.name for f in dataclasses.fields(cls)} - set(fixed)
    unknown = set(cfg.optimizer_params) - known
    if unknown:
        raise ConfigError(f"unknown {cfg.optimizer} parameters {sorted(unknown)}; valid: {sorted(known)}")
    try:
        return cls(**cfg.optimizer_params, **fixed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_echo(cfg: RunConfig, opt_cfg) -> dict:
    """The run's full configuration with every default filled in; opt_cfg is _build_optimizer_config(cfg)."""
    return {
        "objective": cfg.objective,
        "objective_params": _objective_params(cfg) | _FIXED_ECHO.get(cfg.objective, {}),
        "optimizer": cfg.optimizer,
        "optimizer_params": dataclasses.asdict(opt_cfg)
        | _FIXED_ECHO["dycent" if cfg.optimizer == "dycent" else "baseline"],
        "x0": list(cfg.x0) if not isinstance(cfg.x0, str) else cfg.x0,
        # a section that sets epochs ignores max_iters, so its echo and file names hold the default
        "max_iters": cfg.max_iters if cfg.epochs is None else RunConfig.max_iters,
        "seed": cfg.seed,
        "batch_size": cfg.batch_size,
        "epochs": cfg.epochs,
        # the schedule keeps its nested echo, so config hashes and file names do not move
        "h_schedule": None if cfg.h_decay_factor is None
        else {"decay_factor": cfg.h_decay_factor, "at_epoch": cfg.h_decay_at_epoch},
        "output_prefix": cfg.output_prefix,
    }


def config_hash(echo: dict) -> str:
    """Stable 10-hex digest of a fully-resolved config."""
    canonical = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:10]


def _run(
    cfg: RunConfig, obj: Objective, x0: np.ndarray, opt_cfgs: list
) -> tuple[list[TrajectoryRecord], ZeroGradientError | optimizer.NonFiniteStepError | None]:
    """Run cfg's optimizer from x0 in the shared loop; returns the records and run_loop's stop. The lazy
    steps are max_iters unbatched ones, or one per shuffled batch of each epoch, which pins its batch (a range of
    the epoch's one shuffled BatchContext) and, at the epoch's end or where a zero gradient stops the run, records
    the accuracy. opt_cfgs is _prepare(cfg)'s."""
    opt_seed, shuffle_seed = (cfg.seed, None) if cfg.epochs is None else np.random.SeedSequence(cfg.seed).spawn(2)

    if cfg.optimizer == "dycent":
        dystate = optimizer.DycentState(rng=np.random.default_rng(opt_seed))
        def stepper(opt_cfg):
            def step(x):
                x_new, t = optimizer.dycent_step(x, obj, opt_cfg, dystate)
                rec = TrajectoryRecord(f=t.f_after, grad_norm=t.g1_norm, theta_deg=math.degrees(t.theta),
                                       d_raw=t.d_raw, d_used=t.d_used, doubled=t.doubled)
                return x_new, rec
            return step
    else:
        blstate = baselines.BaselineState.zeros(x0.size)
        def stepper(opt_cfg):
            return baselines.baseline_stepper(obj, opt_cfg, blstate)

    if cfg.epochs is None:  # RunConfig takes a schedule only with epochs, so there is one optimizer config
        step = stepper(opt_cfgs[0])
        return optimizer.run_loop(x0, (step for _ in range(cfg.max_iters)))[:2]

    n = len(obj.data)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    def batch_step(step, batch, epoch_end):
        def pinned(x):
            obj.set_batch(batch)
            x_new, rec = step(x)
            if epoch_end:
                rec.acc_train = mlmodels.accuracy(obj, x_new)
            return x_new, rec
        return pinned

    def schedule():
        for epoch in range(cfg.epochs):
            decayed = cfg.h_decay_at_epoch is not None and epoch >= cfg.h_decay_at_epoch
            opt_cfg = opt_cfgs[-1] if decayed else opt_cfgs[0]  # the second, if any, is after the decay
            perm = BatchContext(shuffle_rng.permutation(n))  # checked once, gathered at its first pin
            for i in range(0, n, cfg.batch_size):
                end = min(i + cfg.batch_size, n)
                # a step per batch, so nothing a step carries outlives the batch it pins
                yield batch_step(stepper(opt_cfg), perm.rows(i, end), end == n)

    records, stop, x = optimizer.run_loop(x0, schedule())
    if isinstance(stop, ZeroGradientError) and records:
        records[-1].acc_train = mlmodels.accuracy(obj, x)
    return records, stop


def write_trajectory_csv(path: Path, records: list[TrajectoryRecord]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines += [r.csv_row(i) for i, r in enumerate(records)]
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: RunConfig, out_dir: str | Path = ".", annotate=None, prepared=None) -> dict:
    """Execute one run; writes <prefix>-<hash>.csv/.json and returns the summary.

    annotate(records), if given, returns entries to add to the summary.
    prepared, if given, is _prepare(cfg)'s unused result. A run stopped by
    a non-finite value or gradient writes the steps before it, then raises
    the NonFiniteStepError; a run that diverged (DIVERGENCE_FACTOR) writes
    its steps, then raises DivergedError.
    """
    obj, x0, echo, opt_cfgs = prepared or _prepare(cfg)

    # A non-finite value or gradient stops the run as "non_finite"; numpy's
    # overflow warnings would only repeat that on stderr.
    with np.errstate(all="ignore"):
        records, stop = _run(cfg, obj, x0, opt_cfgs)
    error = stop if isinstance(stop, optimizer.NonFiniteStepError) else None
    if stop is None:
        stop_reason = None
    else:
        stop_reason = "non_finite" if error else "stationary_point" if records else "zero_gradient_start"

    digest = config_hash(echo)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{cfg.output_prefix}-{digest}.csv"
    json_path = out / f"{cfg.output_prefix}-{digest}.json"

    f_values = [r.f for r in records]
    accs = [r.acc_train for r in records if r.acc_train is not None]
    best_idx = int(np.argmin(f_values)) if f_values else None
    final_f, best_f = (f_values[-1], f_values[best_idx]) if f_values else (None, None)
    stopped_early = stop_reason is not None
    if not stopped_early and final_f - best_f > DIVERGENCE_FACTOR * max(1.0, abs(best_f)):
        stop_reason = "diverged"
        error = DivergedError(f"run diverged: final f {final_f:.6g} is more than {DIVERGENCE_FACTOR:g} "
                              f"times max(1, |best f|) above best f {best_f:.6g}")
    summary = {
        "config": echo,
        "config_hash": digest,
        "iterations": len(records),
        "final_f": final_f,
        "best_f": best_f,
        "iters_to_best": best_idx,
        "final_grad_norm": records[-1].grad_norm if records else None,
        "final_train_accuracy": accs[-1] if accs else None,
        "stopped_early": stopped_early,
        "stop_reason": stop_reason,
        "files": {"trajectory_csv": str(csv_path), "summary_json": str(json_path)},
    }
    if annotate is not None:
        summary.update(annotate(records))

    write_trajectory_csv(csv_path, records)
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n")
    if error is not None:
        raise error
    return summary


def run_comparison(cfgs: list[RunConfig], out_dir: str | Path = ".") -> dict:
    """Run several optimizers head to head on one objective and start.

    Runs each config once, writes a CSV and an aligned-text table, and returns the table's text.
    """
    if not cfgs:
        raise ConfigError("comparison needs at least one run config")
    prepared = [_prepare(c) for c in cfgs]  # every section is built and checked before any run
    ref, *echoes = [{**echo, "x0": x0.tolist()} for _, x0, echo, _ in prepared]
    for echo in echoes:
        for name in ("objective", "objective_params", "x0", "max_iters", "epochs", "batch_size"):
            if echo[name] != ref[name]:
                raise ConfigError(
                    f"comparison configs must share {name}; [{ref['output_prefix']}] and [{echo['output_prefix']}] differ"
                )

    summaries = [run_experiment(c, out_dir, prepared=p) for c, p in zip(cfgs, prepared)]
    rows = [
        {
            "optimizer": c.optimizer,
            "final_f": s["final_f"],
            "best_f": s["best_f"],
            "iters_to_best": None if s["iters_to_best"] is None else float(s["iters_to_best"]),
            "final_accuracy": s["final_train_accuracy"],
        }
        for c, s in zip(cfgs, summaries)
    ]

    # "repeats": 1 is a constant, kept so that comparison file names do not move
    digest = config_hash({"runs": [s["config"] for s in summaries], "repeats": 1})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = f"{ref['output_prefix']}-comparison-{digest}"
    csv_path = out / f"{base}.csv"
    txt_path = out / f"{base}.txt"

    cols = ("optimizer", "final_f", "best_f", "iters_to_best", "final_accuracy")
    csv_lines = [",".join(cols)]
    csv_lines += [",".join(csv_cell(row[c]) for c in cols) for row in rows]
    csv_path.write_text("\n".join(csv_lines) + "\n")

    widths = {c: max(len(c), *(len(_fmt(row[c])) for row in rows)) for c in cols}
    txt_lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    for row in rows:
        txt_lines.append("  ".join(_fmt(row[c]).ljust(widths[c]) for c in cols))
    table = "\n".join(txt_lines) + "\n"
    txt_path.write_text(table)

    return {
        "rows": rows,
        "table": table,
        "files": {"comparison_csv": str(csv_path), "comparison_txt": str(txt_path)},
        "runs": summaries,
    }


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def run_theory_suite(seed: int, out_dir: str | Path = ".") -> dict:
    """Constrained-mode runs on quadratics plus every theory check; writes JSON.

    The sufficient-decrease (Armijo) check uses c1 = 1/(2L); start points
    are drawn inside the unit ball, where that c1 is covered by the
    decrease bound. The curvature pass rate is reported, not asserted.
    """
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    suites = [
        ("isotropic_quadratic_5d", objectives.isotropic_quadratic(5), 200, 10),
        ("spd_quadratic_8d_a", objectives.spd_quadratic(8, seed=101, condition=10.0), 250, 20),
        ("spd_quadratic_8d_b", objectives.spd_quadratic(8, seed=202, condition=40.0), 250, 20),
    ]
    min_margin = math.inf
    armijo, curvature = [], []  # every step's pass/fail over all objectives
    per_objective = []
    for name, obj, n_starts, n_steps in suites:
        L = obj.lipschitz_bound
        starts = []
        for _ in range(n_starts):
            direction = rng.standard_normal(obj.dim)
            direction /= norm(direction)
            starts.append(direction * rng.uniform(0.1, 0.95))
        report, wolfe = theory.run_suite(obj, starts, n_steps, seed, c1=1.0 / (2.0 * L))
        min_margin = min(min_margin, report.min_decrease_margin)
        armijo += wolfe.armijo_pass
        curvature += wolfe.curvature_pass
        per_objective.append(
            {"objective": name, "lipschitz": L, "steps": len(wolfe.armijo_pass), "violations": report.violations}
        )

    report = {
        "seed": seed,
        "descent": {
            "steps_checked": sum(p["steps"] for p in per_objective),
            "violations": sum(p["violations"] for p in per_objective),
            "min_decrease_margin": min_margin,
            "tolerance": theory.TOL,
        },
        "wolfe": {
            "c1": "1/(2L) per objective",
            "c2": theory.C2,
            "armijo_pass_rate": sum(armijo) / len(armijo) if armijo else 1.0,
            "curvature_pass_rate": sum(curvature) / len(curvature) if curvature else 1.0,
            "curvature_note": "measured only; no guarantee is claimed for the curvature condition",
        },
        "per_objective": per_objective,
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"theory-{seed}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    report["files"] = {"report_json": str(path)}
    return report


def angle_run_config(seed: int, epochs: int = ANGLE_EPOCHS) -> RunConfig:
    """The two-moons MLP run used for angle logging, at the tuned probe settings."""
    return RunConfig(
        objective="moons_mlp",
        optimizer="dycent",
        x0="auto",
        seed=seed,
        batch_size=32,
        epochs=epochs,
        optimizer_params={"h": MOONS_TUNED_H, "epsilon": MOONS_TUNED_EPSILON},
        output_prefix="angles",
    )


def run_angle_experiment(seed: int, out_dir: str | Path = ".", epochs: int = ANGLE_EPOCHS) -> dict:
    """Log per-step probe angles on the two-moons MLP and summarize the
    epoch-10..50 band (degrees), mirroring the angle-progression plots."""
    cfg = angle_run_config(seed, epochs)
    batches_per_epoch = math.ceil(_objective_params(cfg)["n"] / cfg.batch_size)

    def angle_band(records: list[TrajectoryRecord]) -> dict:  # every dycent record has theta_deg
        thetas = [r.theta_deg for i, r in enumerate(records) if 10 <= i // batches_per_epoch <= 50]
        return {"angle_band": {
            "epochs": [10, 50],
            "median_theta_deg": float(np.median(thetas)) if thetas else None,
            "steps_in_band": len(thetas),
            "all_steps_finite": all(math.isfinite(t) for t in thetas),
        }}

    return run_experiment(cfg, out_dir, angle_band)


# --- config-file parsing -----------------------------------------------

# Every config-file key, by the part of RunConfig it sets (a run key names a field;
# output_prefix is the section name), with the type its value parses to. x0 is a preset or comma-separated floats.
_RUN_KEYS = {
    "objective": str, "optimizer": str, "x0": float, "max_iters": int, "seed": int, "batch_size": int,
    "epochs": int, "h_decay_factor": float, "h_decay_at_epoch": int,
}
_OPT_KEYS = {
    f.name: f.type
    for cls in (optimizer.DycentConfig, baselines.BaselineConfig)
    for f in dataclasses.fields(cls)
    if f.name != "method"  # set by the optimizer key
}
_OBJ_KEYS = {k: _param_type(d) for _, defaults, _ in _OBJECTIVE_TABLE.values() for k, d in defaults.items()}


def _parse_value(key: str, raw: str, kind: type):
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if kind is str:
        return raw.strip()
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def parse_config_file(path: str | Path) -> list[RunConfig]:
    """Read run sections from a plain-text key=value config file.

    Each section describes one run, and its name is the run's output prefix.
    """
    parser = ConfigParser(interpolation=None)  # a '%' in a value is literal
    try:
        read = parser.read(path)
    except (ConfigParserError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    configs = []
    for section in parser.sections():
        run_kwargs: dict = {"output_prefix": section}
        opt_params: dict = {}
        obj_params: dict = {}
        for key, raw in parser.items(section):
            if key == "x0":
                raw = raw.strip()
                run_kwargs["x0"] = (
                    raw if raw in X0_PRESETS or raw == "auto"
                    else tuple(_parse_value(key, c, float) for c in raw.split(","))
                )
                continue
            for params, types in ((run_kwargs, _RUN_KEYS), (opt_params, _OPT_KEYS), (obj_params, _OBJ_KEYS)):
                if key in types:
                    params[key] = _parse_value(key, raw, types[key])
                    break
            else:
                valid = sorted(_RUN_KEYS.keys() | _OPT_KEYS.keys() | _OBJ_KEYS.keys())
                raise ConfigError(f"[{section}] unknown key {key!r}; valid keys: {valid}")
        if "objective" not in run_kwargs or "optimizer" not in run_kwargs:
            raise ConfigError(f"[{section}] needs at least 'objective' and 'optimizer'")
        try:
            configs.append(RunConfig(optimizer_params=opt_params, objective_params=obj_params, **run_kwargs))
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    if not configs:
        raise ConfigError(f"{path}: no run sections found")
    return configs
