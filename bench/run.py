"""dycent benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload toy_compare --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0        # every workload in turn

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and nothing is installed. With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of the traced run instead.
Scratch output, results and spans go to .bench_build/dycent/. See
bench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

import probes
from workloads import WORKLOADS, parse_configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "dycent"

SETUP_SAMPLES = 15  # cold starts per run; setup_s is their median
# The machine this benchmark was written on (a 2-vCPU x86_64 VM shared with
# other tenants) runs a process at full speed or, most of the time, 1.5 to 2.3
# times slower, and the share of slow time drifts from minute to minute; raw
# pass times moved by up to 66 % between runs. Every timed interval is
# therefore divided by a speed factor: the time of a fixed calibration kernel,
# measured on either side of the interval, over the kernel's time at full
# speed there (Python 3.11, numpy 2.4). A timed pass is cut into windows of at
# least PROBE_EVERY seconds at the boundaries of its operations, with one run
# of the kernel between windows; a traced pass takes the median of CAL_REPS
# runs before and after it. A factor taken at the same moment divides the
# parent's and a change's times alike, so the ratio of their scaled times is
# the ratio of their raw times at that speed.
# The slow state slows different kinds of work by different amounts (1.96x a
# Python loop over tiny arrays, 1.71x small matrix products, 1.56x a
# moons_train pass), so each workload is calibrated with a kernel of its own
# kind of work; that keeps the scaled times steady when the share of slow time
# drifts. See bench/README.md, "Reference time".
CAL_REPS = 5
PROBE_EVERY = 0.02
_VEC = np.linspace(-1.0, 1.0, 8)
_RNG = np.random.default_rng(0)
_X, _W1, _W2 = _RNG.standard_normal((32, 2)), _RNG.standard_normal((2, 16)), _RNG.standard_normal((16, 2))
_LABELS = np.arange(32) % 2


def _interpreter_kernel() -> None:
    """Python loop over 8-element vectors, like steps on the analytic surfaces."""
    acc = 0.0
    for i in range(1500):
        acc += float(np.dot(_VEC, _VEC)) + i * 0.5


def _mlp_kernel() -> None:
    """Forward and backward pass of a 2-16-2 MLP on a batch of 32, like moons_train."""
    for _ in range(60):
        z = _X @ _W1 + 0.1
        h = np.maximum(z, 0.0)
        logits = h @ _W2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(32), _LABELS] -= 1.0
        np.concatenate([(_X.T @ ((p @ _W2.T) * (z > 0))).ravel(), (h.T @ p).ravel()])


# kernel name -> (kernel, its median time at full speed in seconds)
KERNELS = {"interpreter": (_interpreter_kernel, 1.2e-3), "mlp": (_mlp_kernel, 1.65e-3)}
# Full-speed time of setup_probe.probe(), the loop each cold interpreter
# times on its own vCPU before the import and after the build.
SETUP_LOOP_FULL_SPEED_S = 1.5e-3
MIN_PASSES = 3
MAX_PROBLEMS_SHOWN = 5
# run_ms_tail is the highest percentile with TAIL_BEYOND samples beyond it,
# but at most p99: above p99 of 20,000 theory_suite operations it is set by
# rare stalls of the machine (with one speed factor per pass, it moved by
# 17-39 % between runs).
TAIL_BEYOND = 10


def speed(kernel: str) -> float:
    """Current slowdown against full speed: 1.0 at full speed, about 2.0 at half."""
    fn, reference = KERNELS[kernel]
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / reference


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import dycent from this checkout's src/, refusing any other copy."""
    src = (ROOT / "src").resolve()
    if not (src / "dycent" / "__init__.py").is_file():
        fail(f"no package source at {src / 'dycent'}; run from a dycent checkout")
    for path in (p for w in WORKLOADS.values() for p in w.configs):
        if not (ROOT / path).is_file():
            fail(f"missing {path} in the checkout")
    sys.path.insert(0, str(src))
    import dycent

    if Path(dycent.__file__).resolve().parent != src / "dycent":
        fail(f"imported dycent from {dycent.__file__}, not from {src}")
    return probes.load_modules()


def blas_threads():
    """Thread count OpenBLAS will use, read from the loaded library (None if unknown)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(workload: str, seed: int) -> tuple[float, float, str]:
    """Median cold set-up time (s) and import time (ms) over fresh interpreters,
    in reference time, and a note on the samples.

    Each interpreter times setup_probe.probe() itself, on the vCPU it runs
    on; the loop's own time is left out of the start.
    """
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), workload, str(seed)]
    setups, imports, factors, raw = [], [], [], []
    for i in range(SETUP_SAMPLES + 1):  # the first start compiles bytecode; not counted
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or not line:
            fail(f"cold set-up of {workload} failed with exit code {code}")
        if i:
            ready = json.loads(line)
            factor = statistics.mean(ready["probe_s"]) / SETUP_LOOP_FULL_SPEED_S
            raw.append(t1 - t0 - sum(ready["probe_s"]))
            setups.append(raw[-1] / factor)
            imports.append(ready["import_ms"] / factor)
            factors.append(factor)
    note = (f"median of {SETUP_SAMPLES} cold starts; median speed factor {statistics.median(factors):.3f}, "
            f"unscaled median {statistics.median(raw):.4f} s")
    return statistics.median(setups), statistics.median(imports), note


def digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


class Outcome(NamedTuple):
    """A successful pass: its wall time, its timeline if it was timed, and its result.

    The wall time is in reference seconds for a pass that was not timed
    (scaled by `speed`, taken on either side of it) and raw for a timed one,
    whose segments typical_pass() scales window by window.
    """

    wall: float
    timeline: probes.Timeline | None
    result: object
    speed: float


class Session:
    """Runs passes of one workload at one seed and keeps the failure ledger.

    An operation is one call of the workload's op function. A pass fails on
    an exception, a failed correctness check, another number of operations
    than the first pass, or output digests that differ from those of the
    first pass; all of its operations then count as failed. Passes write to a path relative to the working directory, so the paths
    recorded in the outputs, and with them the digests, are the same in
    every run and every checkout.
    """

    def __init__(self, workload, mods, seed: int):
        self.w = workload
        self.mods = mods
        self.seed = seed
        self.out = Path(f"out-{workload.name}")
        self.cfgs = parse_configs(mods["harness"], ROOT, workload.configs, seed)
        self.kernel = KERNELS[workload.kernel][0]
        self.reference: dict | None = None
        self.ops_per_pass: int | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_speed = speed(workload.kernel)

    def run(self, extra=contextlib.nullcontext(), timed: bool = False) -> Outcome | None:
        """One pass. A timed pass is cut into windows with a kernel run between
        them; any other pass is scaled by the speed measured on either side of it."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        timeline = probes.Timeline(self.kernel, PROBE_EVERY) if timed else None
        cuts = probes.timed_ops(self.mods, *self.w.op, timeline) if timed else contextlib.nullcontext()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with cuts, extra:
                if timeline:
                    timeline.start()
                result = self.w.run_pass(self.mods["harness"], self.cfgs, self.seed, self.out)
                if timeline:
                    timeline.cut(last=True)
        except Exception:
            result = None
            problems = [traceback.format_exc()]
        wall = time.perf_counter() - t0
        before, self.last_speed = self.last_speed, speed(self.w.kernel)
        ops = len(timeline.ops()) if timeline else self.ops_per_pass
        if result is not None:
            problems = self.w.check(result)
            if self.ops_per_pass is None:
                self.ops_per_pass = ops
            elif ops != self.ops_per_pass:
                problems.append(f"{ops} operations, the first pass ran {self.ops_per_pass}")
            digests = digest_dir(self.out)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                problems.append("output digests differ from the first pass at this seed")
        ops = max(ops or 0, self.ops_per_pass or 0, 1)
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems += problems
            return None
        factor = 0.5 * (before + self.last_speed)
        return Outcome(wall if timed else wall / factor, timeline, result, factor)

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir() if p.is_file())


def typical_pass(timelines: list[probes.Timeline], reference: float) -> list[list[float]]:
    """Every segment's scaled times over the timed passes, in reference seconds.

    A segment's raw time is divided by the speed factor of its window: the
    mean of the kernel times on either side of the window over the kernel's
    full-speed time. Every pass runs the same operations in the same order,
    so segment k of one pass is segment k of every other, and a median per
    segment is steadier than the median whole pass.
    """
    samples: list[list[float]] = [[] for _ in timelines[0].segments]
    for t in timelines:
        for (i, before), (j, after) in itertools.pairwise(t.probes):
            factor = (before + after) / (2.0 * reference)
            for k in range(i, j):
                samples[k].append(t.segments[k] / factor)
    return samples


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile, at most p99, with at least TAIL_BEYOND samples
    beyond it, and its label."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, n // 100)
    if n <= beyond:
        return ordered[-1], f"max of {n} operations"
    return ordered[n - beyond - 1], f"p{100.0 * (n - beyond) / n:.2f} of {n} operations"


def counting_pass(session: Session):
    counts = probes.EvalCounts()
    outcome = session.run(probes.counting(session.mods, counts))
    return counts, outcome


def end_to_end(args, session: Session, setup: tuple[float, float, str]) -> tuple[dict, list[str]]:
    deadline = time.perf_counter() + args.seconds
    passes, outcomes = 0, []
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        passes += 1
        outcome = session.run(timed=True)
        if outcome is not None:
            outcomes.append(outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts, counted = counting_pass(session)  # after the RSS reading: its key sets are not the program's
    if not outcomes or counted is None:
        return {}, [f"no successful pass out of {passes}"]
    steps = counted.result.steps
    timelines = [o.timeline for o in outcomes]
    reference = KERNELS[session.w.kernel][1]
    samples = typical_pass(timelines, reference)
    pass_s = sum(statistics.median(s) for s in samples)
    per_op = [statistics.median(s) for s in samples[1::2]]
    p_tail, tail_label = tail([x for s in samples[1::2] for x in s])
    readings = [seconds for t in timelines for _, seconds in t.probes]
    raw_pass = sum(statistics.median(seg) for seg in zip(*(t.segments for t in timelines)))
    metrics = {
        "setup_s": (setup[0], "s", setup[2]),
        "steps_per_s": (steps / pass_s, "steps/s",
                        f"{steps} steps per pass / {pass_s:.4f} s, the sum of each segment's median"),
        "run_ms_p50": (statistics.median(per_op) * 1e3, "ms",
                       f"median of {len(per_op)} operations, each its median over {len(outcomes)} passes"),
        "run_ms_tail": (p_tail * 1e3, "ms", f"{tail_label} of {len(outcomes)} passes"),
        "grad_evals_per_step": (counts.grad / steps, "count",
                                f"{counts.grad} gradient evaluations / {steps} steps"),
        "value_evals_per_step": (counts.value / steps, "count",
                                 f"{counts.value} value evaluations / {steps} steps"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process before the counting pass"),
    }
    notes = [
        f"{passes} timed passes of {len(samples)} segments, {len(readings)} kernel runs between windows; "
        f"median speed factor {statistics.median(readings) / reference:.3f} ({session.w.kernel} kernel)",
        f"unscaled median pass (kernel runs left out) {raw_pass:.4f} s = {steps / raw_pass:.1f} steps/s",
    ]
    return metrics, notes


def per_layer(args, session: Session, import_ms: float) -> tuple[dict, list[str]]:
    deadline = time.perf_counter() + args.seconds
    untraced, traced, rows, passes = [], [], [], 0
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        passes += 1
        outcome = session.run()
        if outcome is not None:
            untraced.append(outcome.wall)
        tracer = probes.Tracer(keep_spans=not traced)
        outcome = session.run(tracer.instrument(session.mods))
        if outcome is None:
            continue
        if not traced:
            write_spans(spans_path, tracer, args)
        traced.append(outcome.wall)
        rows.append(layer_row(tracer, outcome, session.bytes_written()))
    counts, counted = counting_pass(session)
    if not traced or not untraced or counted is None:
        return {}, [f"no successful traced pass out of {passes}"]
    units = {name: unit for name, (_, unit) in rows[0].items()}
    metrics = {
        name: (statistics.median(row[name][0] for row in rows), units[name], "")
        for name in units
    }
    metrics.update({
        "objective.repeat_grad_ratio": (counts.repeat_grad / max(counts.grad, 1), "ratio",
                                        f"{counts.repeat_grad} of {counts.grad} gradient evaluations"),
        "objective.repeat_value_ratio": (counts.repeat_value / max(counts.value, 1), "ratio",
                                         f"{counts.repeat_value} of {counts.value} value evaluations"),
        "cli.import_ms": (import_ms, "ms", f"median of {SETUP_SAMPLES} cold starts"),
        "trace_overhead_ratio": (statistics.median(traced) / statistics.median(untraced), "ratio",
                                 f"median of {len(traced)} traced / {len(untraced)} untraced passes"),
    })
    mid = rows[sorted(range(len(traced)), key=traced.__getitem__)[len(traced) // 2]]
    layer_sum = sum(mid[f"{layer}.self_ms"][0] for layer in probes.MODULES)
    notes = [
        f"{passes} untraced/traced pass pairs; "
        f"{counts.grad + counts.value} objective evaluations in the counting pass",
        f"traced pass of median wall: layer self times {layer_sum:.3f} ms + untraced "
        f"{mid['trace.untraced_ms'][0]:.3f} ms = {layer_sum + mid['trace.untraced_ms'][0]:.3f} ms; "
        f"traced wall {mid['trace.wall_ms'][0]:.3f} ms",
        f"spans of the first traced pass: {spans_path}",
    ]
    return metrics, notes


def layer_row(tracer, outcome: Outcome, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit), times in reference ms."""
    ms = 1e-6 / outcome.speed
    row = {}
    for layer in probes.MODULES:
        row[f"{layer}.self_ms"] = (
            sum(ns for name, ns in tracer.self_ns.items() if name.startswith(layer + ".")) * ms, "ms")
    for span in probes.REPORTED_CALLS:
        row[f"{span}.calls"] = (tracer.calls[span], "count")
    for span in probes.REPORTED_SELF_MS:
        row[f"{span}.self_ms"] = (tracer.self_ns[span] * ms, "ms")
    row["harness.bytes_written"] = (bytes_written, "bytes")
    row["harness.build_ms"] = (tracer.build_ns * ms, "ms")
    row["optimizer.zero_gradient_stops"] = (
        tracer.errors[("optimizer.dycent_step", "ZeroGradientError")], "count")
    row["optimizer.nonfinite_errors"] = (
        tracer.errors[("optimizer.dycent_step", "NonFiniteStepError")], "count")
    row["trace.wall_ms"] = (outcome.wall * 1e3, "ms")
    row["trace.untraced_ms"] = (outcome.wall * 1e3 - tracer.outer_ns * ms, "ms")
    return row


def write_spans(path: Path, tracer, args) -> None:
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    with open(path, "w") as fh:
        for span_id, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"run": run_id, "workload": args.workload, "id": span_id,
                                 "parent": parent, "name": name, "start_ns": start,
                                 "end_ns": end}, separators=(",", ":")) + "\n")


def run_all(args) -> int:
    """Run every workload in its own process and print each one's report."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    mods = import_package()
    WORK.mkdir(parents=True, exist_ok=True)
    os.chdir(WORK)
    env = environment(args)
    setup = measure_setup(args.workload, args.seed)
    session = Session(WORKLOADS[args.workload], mods, args.seed)
    session.run(timed=True)  # warm-up; its output digests are the reference for every later pass
    if args.trace:
        metrics, notes = per_layer(args, session, setup[1])
    else:
        metrics, notes = end_to_end(args, session, setup)
    shutil.rmtree(session.out, ignore_errors=True)

    error_rate = session.failed / max(session.attempted, 1)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:8s} {detail}")
    print(f"  {'error_rate':40s} {error_rate:14.6g} {'ratio':8s} "
          f"{session.failed} failed / {session.attempted} attempted operations")
    for problem in session.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"  problem: {problem.strip()}", file=sys.stderr)
    print(f"  environment: {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": session.failed == 0 and bool(metrics),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = dict(result, environment=env, notes=notes, output_sha256=session.reference,
                  problems=session.problems[:MAX_PROBLEMS_SHOWN])
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
