"""The config schema, pinned: the echoed defaults of every objective and
optimizer, and the type the config-file parser gives each key.

Output files are named by config_hash(config_echo(cfg, opt_cfg)), so a default that
moves, or a value parsed as another type (4 against 4.0), renames them.
"""

import dataclasses

import pytest

from dycent import cli
from dycent.harness import (
    OBJECTIVES,
    _FIXED_ECHO,
    _RUN_KEYS,
    ConfigError,
    RunConfig,
    _build_optimizer_config,
    config_echo,
    config_hash,
    parse_config_file,
)

# (objective, optimizer, seed, objective_params, config hash)
PINNED_HASHES = [
    ("toy_a", "dycent", 0, {}, "d6dedbba4c"),
    ("toy_a", "adam", 0, {}, "d117ec2e21"),
    ("toy_b", "dycent", 0, {}, "fc24aebf46"),
    ("toy_b", "adam", 0, {}, "0bd1a714d4"),
    ("quadratic", "dycent", 0, {}, "baeb27baba"),
    ("quadratic", "adam", 0, {}, "f21e9b42a9"),
    ("spd_quadratic", "dycent", 0, {}, "5e89564525"),
    ("spd_quadratic", "adam", 0, {}, "5e86c9f9a2"),
    ("rosenbrock", "dycent", 0, {}, "acc0957437"),
    ("rosenbrock", "adam", 0, {}, "abb1b0493d"),
    ("moons_mlp", "dycent", 0, {}, "136770fcf9"),
    ("moons_mlp", "adam", 0, {}, "740b916fdb"),
    ("spd_quadratic", "dycent", 0, {"dim": 8}, "a25c834ad8"),
    ("spd_quadratic", "adam", 0, {"dim": 3}, "d4cdaddbcc"),
    ("moons_mlp", "dycent", 0, {"init_seed": 5, "n": 100}, "f50e47bfa3"),
    # init_seed defaults to the run seed, so leaving it out and giving it
    # the run seed name the same files
    ("moons_mlp", "adam", 3, {}, "b1166b543f"),
    ("moons_mlp", "adam", 3, {"init_seed": 3}, "b1166b543f"),
]


def test_every_objective_is_pinned_at_defaults():
    pinned = {(o, opt) for o, opt, seed, params, _ in PINNED_HASHES if not params}
    assert pinned == {(o, opt) for o in OBJECTIVES for opt in ("dycent", "adam")}


@pytest.mark.parametrize("objective,optimizer,seed,params,digest", PINNED_HASHES)
def test_config_hash_pinned(objective, optimizer, seed, params, digest):
    cfg = RunConfig(objective=objective, optimizer=optimizer, seed=seed, objective_params=params)
    assert config_hash(config_echo(cfg, _build_optimizer_config(cfg))) == digest


EVERY_KEY = """
[every-key]
objective = moons_mlp
optimizer = dycent
x0 = 1, -2.5
max_iters = 40
seed = 9
batch_size = 16
epochs = 2
h_decay_factor = 4
h_decay_at_epoch = 1
h = 0.5
epsilon = 1e-6
lr = 1
dim = 3
n = 50
noise = 0
hidden_dim = 8
init_seed = 11
"""

EXPECTED_OPTIMIZER_PARAMS = {"h": 0.5, "epsilon": 1e-6, "lr": 1.0}
EXPECTED_OBJECTIVE_PARAMS = {"dim": 3, "n": 50, "noise": 0.0, "hidden_dim": 8, "init_seed": 11}


def typed(d: dict) -> dict:
    return {k: (type(v), v) for k, v in d.items()}


def test_every_key_parses_to_its_type(tmp_path):
    path = tmp_path / "every.ini"
    path.write_text(EVERY_KEY)
    (cfg,) = parse_config_file(path)
    assert typed(cfg.optimizer_params) == typed(EXPECTED_OPTIMIZER_PARAMS)
    assert typed(cfg.objective_params) == typed(EXPECTED_OBJECTIVE_PARAMS)
    run = [getattr(cfg, key) for key in _RUN_KEYS if key != "x0"]
    assert [(type(v), v) for v in run] == [
        (str, "moons_mlp"), (str, "dycent"), (int, 40), (int, 9), (int, 16), (int, 2), (float, 4.0), (int, 1),
    ]
    assert [(type(v), v) for v in cfg.x0] == [(float, 1.0), (float, -2.5)]
    assert cfg.output_prefix == "every-key"


def test_every_run_key_is_a_run_config_field():
    # the parser hands each run key to RunConfig under its own name; the section name sets output_prefix
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(_RUN_KEYS) == fields - {"objective_params", "optimizer_params", "output_prefix"}


def test_unknown_key_lists_the_whole_key_set(tmp_path):
    path = tmp_path / "bogus.ini"
    path.write_text("[r]\nobjective = toy_b\noptimizer = sgd\nbogus = 1\n")
    with pytest.raises(ConfigError) as info:
        parse_config_file(path)
    every_key = [line.split(" = ")[0] for line in EVERY_KEY.strip().splitlines()[1:]]
    assert str(info.value).endswith(f"valid keys: {sorted(every_key)}")


# A runnable section of the run kind or objective each group of _FIXED_ECHO belongs to.
FIXED_SECTIONS = {
    "dycent": "objective = toy_b\noptimizer = dycent\nx0 = toy_b_init\n",
    "baseline": "objective = toy_b\noptimizer = adam\nx0 = toy_b_init\n",
    "spd_quadratic": "objective = spd_quadratic\noptimizer = sgd\n",
    "moons_mlp": "objective = moons_mlp\noptimizer = sgd\n",
}
FIXED_SETTINGS = [(kind, key, value) for kind, fixed in _FIXED_ECHO.items() for key, value in fixed.items()]


@pytest.mark.parametrize("kind,key,value", FIXED_SETTINGS, ids=[f"{kind}-{key}" for kind, key, _ in FIXED_SETTINGS])
def test_a_removed_setting_is_an_unknown_key(tmp_path, capsys, kind, key, value):
    # the summary echoes each at its one value, but a file cannot set it, not even to that value
    path = tmp_path / "removed.ini"
    path.write_text(f"[r]\n{FIXED_SECTIONS[kind]}max_iters = 3\n{key} = {value}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_the_section_name_is_the_output_prefix(tmp_path, capsys):
    section = "objective = toy_b\noptimizer = sgd\nx0 = toy_b_init\nmax_iters = 3\n"
    path = tmp_path / "prefix.ini"
    path.write_text(f"[named]\n{section}output_prefix = other\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()
    assert "[named] unknown key 'output_prefix'" in capsys.readouterr().err

    path.write_text(f"[named]\n{section}")
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    (cfg,) = parse_config_file(path)
    digest = config_hash(config_echo(cfg, _build_optimizer_config(cfg)))
    assert sorted(p.name for p in out.iterdir()) == [f"named-{digest}.csv", f"named-{digest}.json"]
    assert '"output_prefix": "named"' in capsys.readouterr().out
