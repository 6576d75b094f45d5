"""The theory report's bytes do not depend on numpy's SIMD dispatch.

numpy picks the SIMD code of its ufuncs at import, and
NPY_ENABLE_CPU_FEATURES holds it to a named level: X86_V2 is numpy's
baseline, X86_V3 adds AVX2 and FMA3. `dycent theory` runs in a subprocess
at each level the CPU reaches, and its JSON at seed 0 and at seed 203
(whose isotropic runs reach gradients near 1e-160) must be the bytes of a
run at the default dispatch. The compare and angles outputs do move with
the dispatch level; tests/test_output_digests.py names those files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (0, 203)
# each level, and the next one up, which holding numpy to the level turns off
LEVELS = {"X86_V2": "X86_V3", "X86_V3": "X86_V4"}
CPU_VARS = ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES")
FEATURES_ON = "from numpy._core._multiarray_umath import __cpu_features__ as f; print(*[k for k, v in f.items() if v])"


def run_at(level: str | None, tmp_path: Path) -> tuple[dict[int, bytes], set[str]]:
    """(theory JSON bytes by seed, numpy's enabled CPU features) with numpy held to level,
    or at its default dispatch for None; every command runs in its own subprocess, all at once."""
    env = {k: v for k, v in os.environ.items() if k not in CPU_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if level is not None:
        env["NPY_ENABLE_CPU_FEATURES"] = level
    out = tmp_path / (level or "default")
    commands = [[sys.executable, "-c", FEATURES_ON]] + [
        [sys.executable, "-m", "dycent.cli", "theory", "--seed", str(seed), "--out", str(out)] for seed in SEEDS
    ]
    procs = [subprocess.Popen(c, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for c in commands]
    results = [p.communicate(timeout=120) for p in procs]
    for command, proc, (_, err) in zip(commands, procs, results):
        assert proc.returncode == 0, f"{command[1:]} at {level}: {err}"
    return {seed: (out / f"theory-{seed}.json").read_bytes() for seed in SEEDS}, set(results[0][0].split())


@pytest.fixture(scope="module")
def default_reports(tmp_path_factory):
    return run_at(None, tmp_path_factory.mktemp("dispatch"))[0]


@pytest.mark.parametrize("level", LEVELS)
def test_theory_report_bytes_at_each_reachable_level(level, default_reports, tmp_path):
    if not __cpu_features__.get(level):
        pytest.skip(f"this CPU does not reach {level}")
    reports, features = run_at(level, tmp_path)
    # the variable took hold: the level is on and the one above it off
    assert level in features and LEVELS[level] not in features
    assert reports == default_reports
