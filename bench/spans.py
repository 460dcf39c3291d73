"""In-memory span tracing of vhjlab's layers, installed from outside.

The tracer replaces module attributes through which vhjlab's modules call
one another (``solver.stable_dt``, ``cli.write_run_dir``, ...) with thin
wrappers, and restores them on ``uninstall``.  A spanned call records
[name, start, end, parent] in memory; a counted call only bumps a counter,
and only while a ``solver.run`` span is open, so the count reads "per
solver step".  Nothing inside ``src/`` is changed.

Sweep jobs run in worker processes.  ``sweep_job`` stands in for
``cli._sweep_one`` there: it resets (fork) or installs (spawn) the
worker's tracer, runs the job, and writes the job's aggregates to a JSON
file in the directory named by ``VHJ_BENCH_JOBS``; the parent reads them
back after the sweep.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter

import hostspeed

JOBS_ENV = "VHJ_BENCH_JOBS"
TRACE_ENV = "VHJ_BENCH_TRACE"

MODULES = ("exponents", "gridop", "closedform", "solver", "analysis", "cli")

# (module, attribute, span name).  Every vhjlab module binding the same
# function object is patched, so calls through imported names are seen.
SPANNED = [
    ("gridop", "discrete_rhs", "gridop.discrete_rhs"),
    ("gridop", "stable_dt", "gridop.stable_dt"),
    ("gridop", "source_rate", "gridop.source_rate"),
    ("solver", "_semi_implicit_matrix", "solver.banded_solve.matrix"),
    ("solver", "solve_banded", "solver.banded_solve.solve"),
    ("analysis", "support_radius", "analysis.support_radius"),
    ("exponents", "derive_constants", "exponents.derive_constants"),
    ("closedform", "certify_sign", "closedform.certify_sign"),
    ("cli", "resolve_experiment", "cli.resolve_experiment"),
    ("cli", "write_run_dir", "cli.write_run_dir"),
    ("cli", "analyze_run_dir", "cli.analyze_run_dir"),
]
COUNTED = [("gridop", "face_gradient", "gridop.face_gradient")]
GEOMETRY = ("r_cells", "r_faces", "metric_cells", "metric_faces")
# Called once per solver step through the solver module's own binding:
# stable_dt by the explicit scheme, source_rate by the semi-implicit one
# (stable_dt reaches source_rate through gridop's binding, not this one).
# The untraced mode feeds each call to a hostspeed.StepClock.
STEP_CLOCK = ("stable_dt", "source_rate")
# Entry spans enclose whole runs or commands; coverage counts only the
# layer spans below them.
ENTRY = frozenset({"solver.run", "cli.main", "cli._sweep_one"})


def modules() -> dict:
    """The vhjlab modules a tracer patches, by short name."""
    return {name: importlib.import_module(f"vhjlab.{name}") for name in MODULES}


class Tracer:
    """Spans and counters for one process.

    With ``full`` off only ``solver.run`` and sweep jobs are spanned and
    solver steps go to a step clock: that is the untraced mode, which
    still needs solver time, step counts and step rates.
    """

    def __init__(self, full: bool, kernel: str = "explicit"):
        self.mods = modules()
        self.full = full
        self.clock = None if full else hostspeed.StepClock(kernel)
        self.active = False
        self._patches = []          # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []             # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.run_depth = 0
        if self.clock is not None:
            self.clock.reset()

    # ----- recording --------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _run(self, fn):
        spanned = self._spanned("solver.run", fn)

        def wrapper(*args, **kwargs):
            self.run_depth += 1
            try:
                result = spanned(*args, **kwargs)
            finally:
                self.run_depth -= 1
            if self.active:
                self.counts["solver.run.steps"] += result.n_steps
            return result
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active and self.run_depth:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _ticked(self, fn):
        def wrapper(*args, **kwargs):
            if self.active and self.clock is not None:
                self.clock.tick()
            return fn(*args, **kwargs)
        return wrapper

    def _counted_property(self, prop):
        def getter(obj):
            if self.active and self.run_depth:
                self.counts["gridop.RadialGrid.geometry"] += 1
            return prop.fget(obj)
        return property(getter, doc=prop.__doc__)

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself; yields its record."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    # ----- patching ---------------------------------------------------

    def _patch_everywhere(self, module, attr, wrapped_of):
        original = getattr(self.mods[module], attr)
        wrapped = wrapped_of(original)
        for mod in self.mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def install(self):
        CURRENT["tracer"] = self
        self._patch_everywhere("solver", "run", self._run)
        if self.full:
            for module, attr, name in SPANNED:
                self._patch_everywhere(
                    module, attr, lambda fn, name=name: self._spanned(name, fn))
            for module, attr, name in COUNTED:
                self._patch_everywhere(
                    module, attr, lambda fn, name=name: self._counted(name, fn))
            grid_cls = self.mods["gridop"].RadialGrid
            for attr in GEOMETRY:
                prop = grid_cls.__dict__[attr]
                self._patches.append((grid_cls, attr, prop))
                setattr(grid_cls, attr, self._counted_property(prop))
        else:
            solver = self.mods["solver"]
            for attr in STEP_CLOCK:
                fn = getattr(solver, attr)
                self._patches.append((solver, attr, fn))
                setattr(solver, attr, self._ticked(fn))
        cli = self.mods["cli"]
        self._patches.append((cli, "_sweep_one", cli._sweep_one))
        self.sweep_one = cli._sweep_one
        cli._sweep_one = sweep_job

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        CURRENT.pop("tracer", None)

    # ----- aggregation ------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total and self seconds; plus counters."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = {}
        record_calls = 0
        for k, (name, t0, t1, parent) in enumerate(self.spans):
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[k]
            if (name == "analysis.support_radius" and parent >= 0
                    and self.spans[parent][0] == "solver.run"):
                record_calls += 1
        return {"spans": agg, "counts": dict(self.counts),
                "record_calls": record_calls}

    def covered_s(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] inside at least one non-entry layer span."""
        covered, edge = 0.0, t0
        inner = sorted((s[1], s[2]) for s in self.spans if s[0] not in ENTRY)
        for s0, s1 in inner:
            s0, s1 = max(s0, edge), min(s1, t1)
            if s1 > s0:
                covered += s1 - s0
                edge = s1
        return covered


def empty_aggregate() -> dict:
    return {"spans": {}, "counts": {}, "record_calls": 0}


def merge(into: dict, other: dict):
    """Add one aggregate (from ``Tracer.aggregate``) into another."""
    for name, a in other["spans"].items():
        b = into["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in b:
            b[key] += a[key]
    for name, n in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n
    into["record_calls"] += other["record_calls"]


# ----- sweep workers ------------------------------------------------------

CURRENT: dict = {}               # the installed tracer of this process


def sweep_job(base_doc, overrides, out_dir):
    """Stand-in for ``cli._sweep_one`` that reports the job's spans."""
    tracer = CURRENT.get("tracer")
    if tracer is None:
        # fresh interpreter (spawn or forkserver): nothing is patched yet
        tracer = Tracer(full=os.environ.get(TRACE_ENV) == "1")
        tracer.install()
    tracer.reset()                  # a forked worker starts from the parent's copy
    tracer.active = True
    with tracer.span("cli._sweep_one") as rec:
        result = tracer.sweep_one(base_doc, overrides, out_dir)
    report = tracer.aggregate()
    report["job_s"] = rec[2] - rec[1]
    report["covered_s"] = tracer.covered_s(rec[1], rec[2])
    clock = tracer.clock
    report["segments"] = clock.segments if clock is not None else []
    report["kernel_s"] = clock.kernel_total if clock is not None else 0.0
    path = os.path.join(os.environ[JOBS_ENV],
                        f"{os.getpid()}-{time.monotonic_ns()}.json")
    with open(path, "w") as fh:
        json.dump(report, fh)
    return result
