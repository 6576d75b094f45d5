"""The CLI's exit-code contract on random config files.

Each drawn file runs through cli.main as `run` or `compare`, with
--iters 1 to 3, in a temporary directory. Whatever the file holds, the
exit code is one of the documented four, no exception escapes, an exit
2 (a config error) writes no file, and every JSON written is strict JSON,
NaN and Infinity refused, that holds no path and no `stopped_early`. A
`run` that exits 2 names the section at fault: its stderr starts with
`error[config]: [` and that section's name.

Files are drawn two ways. Edge values over all 17 config keys reach the
checks of each key; sections built per objective reach runs, where a
setting that slipped past its check would show. Either way the section
names, which are the output prefixes, are drawn too. Every drawn size is
small: a few MB at most per run.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dycent import cli
from dycent.harness import _OBJ_KEYS, _OPT_KEYS, _RUN_KEYS, OBJECTIVES, OPTIMIZERS, X0_PRESETS

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_IO}

# an example that takes longer than 5 s, far more than a few steps need, fails
FUZZ = settings(max_examples=120, derandomize=True, deadline=5_000)

# Raw values that sit on or just past each kind of check.
EDGE_FLOATS = [
    "0", "-0.0", "1e-320", "1e-300", "0.5", "1", "-1", "3", "1e300", "-1e300", "nan", "inf", "-inf", "x", "",
]
EDGE_INTS = ["-1", "0", "1", "2", "3", "64", "1.5", "1e3", "x", ""]

EDGE_KEYS = {
    "objective": st.sampled_from([*OBJECTIVES, "nope", ""]),
    "optimizer": st.sampled_from([*OPTIMIZERS, "nope", ""]),
    "x0": st.one_of(
        st.sampled_from([*X0_PRESETS, "auto", "nope", ""]),
        st.lists(st.sampled_from(EDGE_FLOATS), min_size=1, max_size=4).map(",".join),
    ),
    "max_iters": st.sampled_from(EDGE_INTS),
    "seed": st.sampled_from([*EDGE_INTS, str(2**64)]),
    "batch_size": st.sampled_from(EDGE_INTS),
    "epochs": st.sampled_from(EDGE_INTS),
    "h_decay_factor": st.sampled_from(EDGE_FLOATS),
    "h_decay_at_epoch": st.sampled_from(EDGE_INTS),
    "h": st.sampled_from(EDGE_FLOATS),
    "epsilon": st.sampled_from(EDGE_FLOATS),
    "lr": st.sampled_from(EDGE_FLOATS),
    "dim": st.sampled_from(EDGE_INTS),
    "n": st.sampled_from(EDGE_INTS),
    "noise": st.sampled_from(EDGE_FLOATS),
    "hidden_dim": st.sampled_from(EDGE_INTS),
    "init_seed": st.sampled_from(EDGE_INTS),
}


def test_the_edge_value_table_covers_every_config_key():
    assert set(EDGE_KEYS) == _RUN_KEYS.keys() | _OPT_KEYS.keys() | _OBJ_KEYS.keys()
    assert len(EDGE_KEYS) == 17


@st.composite
def edge_sections(draw):
    keys = draw(st.lists(st.sampled_from(sorted(EDGE_KEYS)), max_size=8, unique=True))
    section = {"objective": draw(st.sampled_from(OBJECTIVES)), "optimizer": draw(st.sampled_from(OPTIMIZERS))}
    section |= {k: draw(EDGE_KEYS[k]) for k in keys}
    return section


def setting(wild, *usual):
    """A usual setting; in a wild file, also a non-finite one or any float, so
    that a value one of the checks lets through reaches a run."""
    if not wild:
        return st.sampled_from(usual)
    return st.one_of(st.sampled_from(usual), st.sampled_from(["inf", "-inf", "nan"]), st.floats().map(repr))


def floats_csv(n):
    return st.lists(st.sampled_from(["0", "-0.5", "1", "2.5", "-3", "1e3", "1e-9"]), min_size=n, max_size=n).map(
        ",".join
    )


@st.composite
def objective_part(draw, wild):
    """The keys a compare's sections share: one objective, its parameters and its start."""
    objective = draw(st.sampled_from(OBJECTIVES))
    part = {"objective": objective}
    if objective in ("toy_a", "toy_b"):
        part["x0"] = draw(st.one_of(st.sampled_from(sorted(X0_PRESETS)), floats_csv(2)))
    elif objective == "moons_mlp":
        n = draw(st.integers(2, 80))
        part |= {"n": str(n), "hidden_dim": str(draw(st.integers(1, 4))), "noise": draw(setting(wild, "0", "0.1", "0.3"))}
        if draw(st.booleans()):
            part |= {"epochs": "2", "batch_size": str(draw(st.integers(1, n + 2)))}
    else:
        dim = draw(st.integers(1 if wild else 2, 8))  # the surfaces and dycent need 2
        part["dim"] = str(dim)
        if draw(st.booleans()):
            part["x0"] = draw(floats_csv(dim))
    return part


@st.composite
def run_section(draw, part, wild):
    optimizer = draw(st.sampled_from(OPTIMIZERS))
    section = {**part, "optimizer": optimizer, "seed": str(draw(st.integers(0, 9)))}
    if optimizer == "dycent":
        section["h"] = draw(setting(wild, "1e-3", "0.01", "0.1"))
        if draw(st.booleans()):
            section["epsilon"] = draw(setting(wild, "1e-12", "0.02"))
    else:
        section["lr"] = draw(setting(wild, "1e-3", "0.01", "0.1", "10"))
    if "epochs" in part and draw(st.booleans()):
        section |= {"h_decay_factor": draw(setting(wild, "2", "10")), "h_decay_at_epoch": "1"}
    return section


@st.composite
def objective_sections(draw):
    wild = draw(st.booleans())
    part = draw(objective_part(wild))
    return [draw(run_section(part, wild)) for _ in range(draw(st.integers(1, 3)))]


# A file's section names, one per section. Each is its run's output prefix, and "a/b" is refused
# as one; an empty name cannot be a section header.
SECTION_NAMES = st.lists(st.sampled_from(["a", "b", "c", "p", ".", "a b", "a/b"]), min_size=3, max_size=3, unique=True)


def write_config(path: Path, names, sections) -> None:
    text = "".join(
        f"[{names[k]}]\n" + "".join(f"{key} = {value}\n" for key, value in section.items())
        for k, section in enumerate(sections)
    )
    path.write_text(text)


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_contract(names, sections, command, iters):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "cfg.ini", Path(tmp) / "out"
        write_config(config, names, sections)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config), "--iters", str(iters), "--out", str(out)])
        assert code in EXIT_CODES
        written = sorted(out.iterdir()) if out.exists() else []
        if code == cli.EXIT_CONFIG:
            assert written == []
            if command == "run":
                assert any(err.getvalue().startswith(f"error[config]: [{name}] ") for name in names[: len(sections)])
        for path in written:
            if path.suffix == ".json":
                summary = json.loads(path.read_text(), parse_constant=refuse_constant)
                assert "files" not in summary and "stopped_early" not in summary
        return code


@FUZZ
@given(
    names=SECTION_NAMES,
    sections=st.lists(edge_sections(), min_size=1, max_size=3),
    command=st.sampled_from(["run", "compare"]),
    iters=st.integers(1, 3),
)
def test_edge_value_files_keep_the_exit_code_contract(names, sections, command, iters):
    assert_contract(names, sections, command, iters)


@FUZZ
@given(
    names=SECTION_NAMES,
    sections=objective_sections(),
    command=st.sampled_from(["run", "compare"]),
    iters=st.integers(1, 3),
)
def test_per_objective_files_keep_the_exit_code_contract(names, sections, command, iters):
    assert_contract(names, sections, command, iters)
