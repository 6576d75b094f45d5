from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import dycent
from dycent import cli


def test_exports_resolve_and_leave_out_the_second_spellings():
    # the package calls np.vdot, np.random.default_rng and run_loop over
    # baseline_stepper or dycent_step directly, so no second name for them is exported
    assert [name for name in dycent.__all__ if not hasattr(dycent, name)] == []
    assert [
        name for name in ("dot", "make_rng", "run_baseline", "run") if name in dycent.__all__ or hasattr(dycent, name)
    ] == []


def test_the_dycent_command_is_cli_main():
    # the installed console script loads its entry point the way EntryPoint.load does
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"dycent": "dycent.cli:main"}
    assert EntryPoint("dycent", scripts["dycent"], "console_scripts").load() is cli.main
