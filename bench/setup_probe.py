"""Cold set-up of one workload in a fresh interpreter.

    python3 bench/setup_probe.py <checkout root> <workload> <seed>

Imports the package from <root>/src, parses the workload's configs and
builds its objectives and datasets, then prints one JSON line with the
import time and the times of a fixed loop run before the import and after
the build. The parent process times from spawn to that line and uses the
loop's times to tell how fast the vCPU this interpreter ran on was.
"""

import json
import sys
import time
from pathlib import Path


def probe() -> float:
    """Seconds a fixed pure-Python loop takes; it needs no import."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


before = probe()
t0 = time.perf_counter()
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))
import dycent.cli  # noqa: E402  (the import is what is being timed)

import_ms = (time.perf_counter() - t0) * 1e3
from workloads import build_objectives  # noqa: E402

built = build_objectives(sys.argv[2], root, int(sys.argv[3]))
print(json.dumps({"import_ms": import_ms, "built": built, "probe_s": [before, probe()]}), flush=True)
