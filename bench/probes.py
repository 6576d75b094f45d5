"""Instrumentation applied from outside the package: a timeline of each
timed pass, an evaluation counter and a span tracer.

Everything here works by temporarily replacing attributes of the dycent
modules and classes and restoring them afterwards, so the package source
is never edited. A module-level function is replaced in every dycent
module that holds a reference to it, because callers that did
`from .vecmath import norm` look the name up in their own namespace.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# (module, function, span name) for the module-level functions the tracer
# wraps; the layer of a span is the part of its name before the first dot.
TRACED_FUNCTIONS = (
    ("harness", "run_comparison", "harness.run_comparison"),
    ("harness", "run_angle_experiment", "harness.run_angle_experiment"),
    ("harness", "run_theory_suite", "harness.run_theory_suite"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "write_trajectory_csv", "harness.write_trajectory_csv"),
    ("harness", "_build_objective", "harness.build_objective"),
    ("baselines", "baseline_step", "baselines.baseline_step"),
    ("baselines", "run_baseline", "baselines.run_baseline"),
    ("optimizer", "dycent_step", "optimizer.dycent_step"),
    ("optimizer", "run", "optimizer.run"),
    ("theory", "run_constrained", "theory.run_constrained"),
    ("theory", "check_descent", "theory.check_descent"),
    ("theory", "wolfe_report", "theory.wolfe_report"),
    ("objective", "toy_a", "objective.toy_a"),
    ("objective", "toy_b", "objective.toy_b"),
    ("objective", "isotropic_quadratic", "objective.isotropic_quadratic"),
    ("objective", "spd_quadratic", "objective.spd_quadratic"),
    ("objective", "rosenbrock", "objective.rosenbrock"),
    ("mlmodels", "make_two_moons", "mlmodels.make_two_moons"),
    ("mlmodels", "mlp_objective", "mlmodels.mlp_objective"),
    ("mlmodels", "initial_params", "mlmodels.initial_params"),
    ("mlmodels", "accuracy", "mlmodels.accuracy"),
    ("vecmath", "sample_perpendicular", "vecmath.sample_perpendicular"),
    ("vecmath", "angle_between", "vecmath.angle_between"),
    ("vecmath", "norm", "vecmath.norm"),
)

# Spans that construct objectives and datasets; their outermost occurrences
# add up to harness.build_ms.
BUILD_SPANS = frozenset({
    "harness.build_objective",
    "objective.toy_a",
    "objective.toy_b",
    "objective.isotropic_quadratic",
    "objective.spd_quadratic",
    "objective.rosenbrock",
    "mlmodels.make_two_moons",
    "mlmodels.mlp_objective",
    "mlmodels.initial_params",
})

# (module, class, method, span name) for methods wrapped on the class.
TRACED_METHODS = (("records", "TrajectoryRecord", "csv_row", "records.csv_row"),)

MODULES = ("harness", "baselines", "records", "optimizer", "theory", "objective", "mlmodels", "vecmath")

# Spans whose per-pass call count (REPORTED_CALLS) and self time
# (REPORTED_SELF_MS) the traced run reports, besides each layer's self time.
# The objective/mlmodels spans are the value/gradient/accuracy calls that
# Tracer.instrument wraps on each Objective implementation.
REPORTED_CALLS = (
    "harness.run_experiment",
    "baselines.baseline_step",
    "records.csv_row",
    "optimizer.dycent_step",
    "theory.run_constrained",
    "objective.gradient",
    "objective.value",
    "mlmodels.gradient",
    "mlmodels.value",
    "mlmodels.accuracy",
    "vecmath.sample_perpendicular",
    "vecmath.angle_between",
    "vecmath.norm",
)
REPORTED_SELF_MS = REPORTED_CALLS + (
    "harness.write_trajectory_csv",
    "baselines.run_baseline",
    "theory.check_descent",
    "theory.wolfe_report",
)


def load_modules() -> dict:
    """The dycent submodules by short name (the package must be importable)."""
    return {name: importlib.import_module(f"dycent.{name}") for name in MODULES}


def objective_classes(mods: dict) -> list[type]:
    """Every Objective implementation currently defined, base class excluded."""
    found, todo = [], [mods["objective"].Objective]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _bindings(mods: dict, module: str, name: str) -> list[tuple[object, str]]:
    """Every (module, attribute) through which the named function is reached."""
    fn = getattr(mods[module], name, None)
    if fn is None:
        print(f"bench: dycent.{module}.{name} not found; not traced", file=sys.stderr)
        return []
    return [(m, attr) for m in mods.values() for attr, v in vars(m).items() if v is fn]


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Set owner.attr = new for each entry; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class Timeline:
    """One pass on the raw clock, cut into segments at the calls of its
    operations, with speed probes between segments.

    The segments alternate: the gap before the first call, the call, the
    gap up to the next call, and so on, ending with the gap after the last
    call. The probe runs at the start and at the end of the pass, and at a
    cut once `every` seconds have passed since it last ran. No segment
    contains probe time.
    """

    def __init__(self, probe, every: float):
        self.probe = probe
        self.every = every
        self.segments: list[float] = []
        # (number of segments before the probe, seconds the probe took)
        self.probes: list[tuple[int, float]] = []
        self._mark = self._last_probe = 0.0

    def _run_probe(self) -> None:
        t0 = time.perf_counter()
        self.probe()
        t1 = time.perf_counter()
        self.probes.append((len(self.segments), t1 - t0))
        self._mark = self._last_probe = t1

    def start(self) -> None:
        self._run_probe()

    def cut(self, last: bool = False) -> None:
        now = time.perf_counter()
        self.segments.append(now - self._mark)
        self._mark = now
        if last or now - self._last_probe >= self.every:
            self._run_probe()

    def ops(self) -> list[float]:
        return self.segments[1::2]


def timed_ops(mods: dict, module: str, name: str, timeline: Timeline):
    """Context that cuts the timeline at the start and end of every call to module.name."""
    fn = getattr(mods[module], name)

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        timeline.cut()
        try:
            return fn(*args, **kwargs)
        finally:
            timeline.cut()

    return patched([(owner, attr, timed) for owner, attr in _bindings(mods, module, name)])


@dataclass
class EvalCounts:
    """Objective evaluations seen by the counting wrappers during one pass."""

    grad: int = 0
    value: int = 0
    repeat_grad: int = 0
    repeat_value: int = 0
    seen: dict = field(default_factory=lambda: {"gradient": set(), "value": set()})
    batch: dict = field(default_factory=dict)
    keep_alive: dict = field(default_factory=dict)

    def record(self, obj, kind: str, x) -> None:
        # A repeat is an evaluation at the same x bytes, on the same object
        # and the same pinned minibatch as an earlier one.
        self.keep_alive.setdefault(id(obj), obj)  # keeps id(obj) unique for the pass
        key = (id(obj), self.batch.get(id(obj)), np.asarray(x, dtype=np.float64).tobytes())
        seen = self.seen[kind]
        repeat = key in seen
        seen.add(key)
        if kind == "gradient":
            self.grad += 1
            self.repeat_grad += repeat
        else:
            self.value += 1
            self.repeat_value += repeat


def counting(mods: dict, counts: EvalCounts):
    """Context that counts value/gradient calls on every Objective implementation."""
    replacements = []
    for cls in objective_classes(mods):
        own = vars(cls)
        for kind in ("value", "gradient"):
            if kind in own:
                replacements.append((cls, kind, _counted(own[kind], kind, counts)))
        if "set_batch" in own:
            replacements.append((cls, "set_batch", _batch_pin(own["set_batch"], counts)))
        if "clear_batch" in own:
            replacements.append((cls, "clear_batch", _batch_clear(own["clear_batch"], counts)))
    return patched(replacements)


def _counted(fn, kind, counts):
    @functools.wraps(fn)
    def wrapper(self, x, *args, **kwargs):
        counts.record(self, kind, x)
        return fn(self, x, *args, **kwargs)

    return wrapper


def _batch_pin(fn, counts):
    @functools.wraps(fn)
    def wrapper(self, ctx, *args, **kwargs):
        out = fn(self, ctx, *args, **kwargs)
        counts.batch[id(self)] = np.asarray(ctx.batch_indices).tobytes()
        return out

    return wrapper


def _batch_clear(fn, counts):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        out = fn(self, *args, **kwargs)
        counts.batch.pop(id(self), None)
        return out

    return wrapper


class Tracer:
    """In-memory span recorder with per-name call counts and self times.

    A span's self time is its duration minus the time covered by its child
    spans. Calls run on one thread, so spans nest strictly and the self
    times of all spans add up to the durations of the outermost ones.
    """

    def __init__(self, keep_spans: bool):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.errors: Counter = Counter()
        self.outer_ns = 0
        self.build_ns = 0
        self.spans: list | None = [] if keep_spans else None
        self._stack: list[list] = []
        self._next_id = 0
        self._build_depth = 0

    def call(self, name, fn, args, kwargs):
        self._next_id += 1
        frame = [self._next_id, 0]  # span id, ns covered by children
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        is_build = name in BUILD_SPANS
        self._build_depth += is_build
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._build_depth -= is_build
            dur = t1 - t0
            self.calls[name] += 1
            self.self_ns[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            else:
                self.outer_ns += dur
            if is_build and self._build_depth == 0:
                self.build_ns += dur
            if self.spans is not None:
                self.spans.append((frame[0], parent, name, t0, t1))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def instrument(self, mods: dict):
        """Context that routes every traced function and method through this tracer.

        Targets are looked up on entry, so a wrapper already in place (the
        latency probe) ends up inside the span.
        """
        replacements = []
        for module, fname, span in TRACED_FUNCTIONS:
            bindings = _bindings(mods, module, fname)
            if bindings:
                traced = self._wrap(getattr(mods[module], fname), span)
                replacements += [(owner, attr, traced) for owner, attr in bindings]
        for module, cname, meth, span in TRACED_METHODS:
            cls = getattr(mods[module], cname, None)
            if cls is None or meth not in vars(cls):
                print(f"bench: dycent.{module}.{cname}.{meth} not found; not traced", file=sys.stderr)
                continue
            replacements.append((cls, meth, self._wrap(vars(cls)[meth], span)))
        for cls in objective_classes(mods):
            layer = cls.__module__.rsplit(".", 1)[-1]
            for meth in ("value", "gradient"):
                if meth in vars(cls):
                    replacements.append((cls, meth, self._wrap(vars(cls)[meth], f"{layer}.{meth}")))
        with patched(replacements):
            yield
