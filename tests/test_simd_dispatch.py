"""Which output files depend on numpy's SIMD dispatch.

numpy picks the SIMD code of its ufuncs at import, and
NPY_ENABLE_CPU_FEATURES holds it to a named level: X86_V2 is numpy's
baseline, X86_V3 adds AVX2 and FMA3. The commands run in subprocesses at
each level the CPU reaches, and their files are compared with those of a
run at the default dispatch. The theory JSON at seed 0 and at seed 203
(whose isotropic runs reach gradients near 1e-160) must keep its bytes.
`compare` on the three shipped configs and `angles` may move only the
files that MOVED names for the level, the lists of the README's "Install
and test" and of tests/test_output_digests.py. That is a subset check,
so it holds at a default dispatch below AVX-512 too, where fewer move.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
SRC, CONFIGS = ROOT / "src", ROOT / "configs"
SEEDS = (0, 203)
THEORY = [["theory", "--seed", str(seed)] for seed in SEEDS]
OUTPUTS = [["compare", "--config", str(CONFIGS / f"{name}.ini"), "--seed", "0"] for name in (
    "toy_a_compare", "toy_b_compare", "moons_dycent")] + [["angles", "--seed", "0"]]
# each level, and the next one up, which holding numpy to the level turns off
LEVELS = {"X86_V2": "X86_V3", "X86_V3": "X86_V4"}
CPU_VARS = ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES")
FEATURES_ON = "from numpy._core._multiarray_umath import __cpu_features__ as f; print(*[k for k, v in f.items() if v])"

# the files of OUTPUTS at seed 0 whose bytes move from numpy's AVX-512 code to each level
_AVX2_MOVES = {
    "angles-dbe2609215.csv", "angles-dbe2609215.json",
    "moons-adam-a865733347.csv", "moons-adam-a865733347.json",
    "moons-dycent-e5952d4977.csv", "moons-dycent-e5952d4977.json",
    "moons-dycent-comparison-88099c2b91.csv", "toya-diffgrad-c95852408b.csv",
}
MOVED = {
    "X86_V3": _AVX2_MOVES,
    "X86_V2": _AVX2_MOVES | {
        "toya-angulargrad-cos-0c3002876f.csv", "toya-angulargrad-cos-0c3002876f.json",
        "toya-dycent-comparison-41c573cc14.csv",
    },
}


def run_at(level: str | None, commands: list[list[str]], tmp_path: Path) -> tuple[dict[str, bytes], set[str]]:
    """(the bytes of every file the commands write, by name; numpy's enabled CPU
    features) with numpy held to level, or at its default dispatch for None. Every command runs
    in its own subprocess and working directory, all at once, and writes to `out` there."""
    env = {k: v for k, v in os.environ.items() if k not in CPU_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if level is not None:
        env["NPY_ENABLE_CPU_FEATURES"] = level
    dirs = [tmp_path / (level or "default") / str(i) for i in range(len(commands))]
    for d in dirs:
        d.mkdir(parents=True)
    runs = [([sys.executable, "-c", FEATURES_ON], tmp_path)] + [
        ([sys.executable, "-m", "dycent.cli", *c, "--out", "out"], d) for c, d in zip(commands, dirs)
    ]
    procs = [
        subprocess.Popen(c, cwd=d, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for c, d in runs
    ]
    results = [p.communicate(timeout=120) for p in procs]
    for (command, _), proc, (_, err) in zip(runs, procs, results):
        assert proc.returncode == 0, f"{command[1:]} at {level}: {err}"
    files = {p.name: p.read_bytes() for d in dirs for p in (d / "out").iterdir()}
    return files, set(results[0][0].split())


@pytest.fixture(scope="module")
def default_files(tmp_path_factory):
    return {name: run_at(None, commands, tmp_path_factory.mktemp(name))[0]
            for name, commands in (("theory", THEORY), ("outputs", OUTPUTS))}


def reached(level: str, features: set[str]) -> None:
    """The variable took hold: the level is on and the one above it off."""
    assert level in features and LEVELS[level] not in features


@pytest.fixture(params=LEVELS)
def level(request):
    if not __cpu_features__.get(request.param):
        pytest.skip(f"this CPU does not reach {request.param}")
    return request.param


def test_theory_report_bytes_at_each_reachable_level(level, default_files, tmp_path):
    reports, features = run_at(level, THEORY, tmp_path)
    reached(level, features)
    assert reports == default_files["theory"]


def test_compare_and_angles_move_only_the_listed_files(level, default_files, tmp_path):
    files, features = run_at(level, OUTPUTS, tmp_path)
    reached(level, features)
    default = default_files["outputs"]
    assert files.keys() == default.keys() and len(files) == 48
    moved = sorted(name for name in files if files[name] != default[name])
    print(f"{level}: {len(moved)} of {len(files)} files moved: {', '.join(moved) or 'none'}")
    assert set(moved) <= MOVED[level]
