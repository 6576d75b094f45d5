"""The config schema, pinned: the echoed defaults of every objective and
optimizer, and the type the config-file parser gives each key.

Output files are named by config_hash(config_echo(cfg)), so a default that
moves, or a value parsed as another type (4 against 4.0), renames them.
"""

import pytest

from dycent.harness import (
    OBJECTIVES,
    ConfigError,
    HSchedule,
    RunConfig,
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
    ("spd_quadratic", "dycent", 0, {"dim": 8, "condition": 40.0}, "a5abbf23f8"),
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
    assert config_hash(config_echo(cfg)) == digest


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
output_prefix = named
h = 0.5
beta = 0
epsilon = 1e-6
enable_doubling = no
clamp_nonnegative_step = on
d_avg_init_mode = zero
lr = 1
momentum = 0.5
beta1 = 0.8
beta2 = 0.99
eps = 1e-7
dim = 3
n = 50
noise = 0
data_seed = 4
condition = 4
hidden_dim = 8
activation = tanh
init_seed = 11
"""

EXPECTED_OPTIMIZER_PARAMS = {
    "h": 0.5, "beta": 0.0, "epsilon": 1e-6, "enable_doubling": False,
    "clamp_nonnegative_step": True, "d_avg_init_mode": "zero", "lr": 1.0,
    "momentum": 0.5, "beta1": 0.8, "beta2": 0.99, "eps": 1e-7,
}
EXPECTED_OBJECTIVE_PARAMS = {
    "dim": 3, "n": 50, "noise": 0.0, "data_seed": 4, "condition": 4.0,
    "hidden_dim": 8, "activation": "tanh", "init_seed": 11,
}


def typed(d: dict) -> dict:
    return {k: (type(v), v) for k, v in d.items()}


def test_every_key_parses_to_its_type(tmp_path):
    path = tmp_path / "every.ini"
    path.write_text(EVERY_KEY)
    (cfg,) = parse_config_file(path)
    assert typed(cfg.optimizer_params) == typed(EXPECTED_OPTIMIZER_PARAMS)
    assert typed(cfg.objective_params) == typed(EXPECTED_OBJECTIVE_PARAMS)
    run = (cfg.objective, cfg.optimizer, cfg.max_iters, cfg.seed, cfg.batch_size, cfg.epochs, cfg.output_prefix)
    assert [(type(v), v) for v in run] == [
        (str, "moons_mlp"), (str, "dycent"), (int, 40), (int, 9), (int, 16), (int, 2), (str, "named"),
    ]
    assert [(type(v), v) for v in cfg.x0] == [(float, 1.0), (float, -2.5)]
    assert cfg.h_schedule == HSchedule(4.0, 1)
    assert (type(cfg.h_schedule.decay_factor), type(cfg.h_schedule.at_epoch)) == (float, int)


def test_unknown_key_lists_the_whole_key_set(tmp_path):
    path = tmp_path / "bogus.ini"
    path.write_text("[r]\nobjective = toy_b\noptimizer = sgd\nbogus = 1\n")
    with pytest.raises(ConfigError) as info:
        parse_config_file(path)
    every_key = [line.split(" = ")[0] for line in EVERY_KEY.strip().splitlines()[1:]]
    assert str(info.value).endswith(f"valid keys: {sorted(every_key)}")
