"""Span tracing installed from outside the package.

A Tracer wraps coupledwg's public functions, numpy.linalg.eigvalsh and the
density-matrix validation hook.  Each wrapped call records one span (name,
start, end, parent span, job id) in memory; layer statistics are derived from
the spans afterwards, and the spans can be written out as CSV.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every public function the traced run wraps.  The
# wrapper replaces the name in the defining module and in every coupledwg
# module that imported it by name (cli binds its own evolve_damped_exact).
FUNCTIONS = (
    ("coupledwg.cli", "main"),
    ("coupledwg.cli", "write_csv"),
    ("coupledwg.damped", "evolve_damped_exact"),
    ("coupledwg.damped", "mode_rotation"),
    ("coupledwg.damped", "damped_entropy"),
    ("coupledwg.damped", "purity_closed"),
    ("coupledwg.fock", "log_negativity"),
    ("coupledwg.fock", "pure_log_negativity"),
    ("coupledwg.fock", "von_neumann_entropy"),
    ("coupledwg.fock", "reduced_state"),
    ("coupledwg.fock", "purity"),
    ("coupledwg.lindblad", "integrate"),
    ("coupledwg.lindblad", "liouvillian_apply"),
    ("coupledwg.lindblad", "compare"),
    ("coupledwg.lossless", "evolve_lossless"),
    ("coupledwg.lossless", "noon_log_negativity"),
    ("coupledwg.lossless", "entropy_closed"),
    ("coupledwg.thermal", "thermal_entropy"),
    ("coupledwg.gaussian", "log_negativity_gaussian"),
    ("coupledwg.gaussian", "thermal_evolved_covariance"),
)

# lru_caches whose hit ratio is read from cache_info() around traced passes.
CACHES = (
    ("coupledwg.lossless", "_sector_eigensystem"),
    ("coupledwg.damped", "_sector_rotation"),
    ("coupledwg.lindblad", "_system_operators"),
)

EIGVALSH = "numpy.linalg.eigvalsh"
VALIDATION = "fock.TwoModeDensityMatrix"
JOB = "job"


def _short(module: str, attr: str) -> str:
    return module.removeprefix("coupledwg.") + "." + attr


class Tracer:
    """In-memory span recorder.  install()/uninstall() patch and restore the
    wrapped names, so untraced and traced passes can alternate."""

    def __init__(self):
        self.spans = []             # [name, start, end, parent, job]
        self.counts = defaultdict(float)
        self.job = -1
        self._stack = []
        self._active = defaultdict(int)
        self._outer = []            # per span: no enclosing span of the same name
        self._patches = []
        self._cache_start = {}
        self.cache_hits = defaultdict(int)
        self.cache_lookups = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.job])
        self._outer.append(self._active[name] == 0)
        self._active[name] += 1
        self._stack.append(index)
        before = self.counts["lindblad.liouvillian_apply.calls"]
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1
            self.spans[index][1:3] = (start, end)
            self.counts[name + ".calls"] += 1
            self._note(name, args, None if raised else result, raised, before)

    def _note(self, name, args, result, raised, liouvillian_before):
        counts = self.counts
        if name == EIGVALSH:
            n = int(args[0].shape[-1])
            counts[name + ".n3_sum"] += float(n) ** 3
            counts[name + ".max_n"] = max(counts[name + ".max_n"], n)
        elif name == "cli.main":
            if raised or result != 0:
                counts[name + ".failed"] += 1
        elif name == "lindblad.integrate":
            # one RK4 step is four Liouvillian applications
            steps = (counts["lindblad.liouvillian_apply.calls"] - liouvillian_before) / 4
            counts[name + ".attempted_steps"] += steps
            if raised:
                counts[name + ".failed"] += 1
            else:
                counts[name + ".useful_steps"] += steps
                counts[name + ".rk4_steps"] += result.diagnostics["rk4_steps"]

    def job_span(self, job_id, fn):
        """Run fn() as the root span of one job."""
        self.job = job_id
        try:
            return self.call(JOB, fn, (), {})
        finally:
            self.job = -1

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    def _write_csv_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            to_stdout = path is None or path == "-"
            mark = sys.stdout.tell() if to_stdout else 0
            result = tracer.call("cli.write_csv", fn, (path,) + args, kwargs)
            size = sys.stdout.tell() - mark if to_stdout else os.path.getsize(path)
            tracer.counts["cli.write_csv.bytes"] += size
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch every target; a target that no longer exists raises, so a
        renamed function cannot read as a layer that costs nothing."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "coupledwg" or key.startswith("coupledwg.")]
        for module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            if attr == "write_csv":
                wrapped = self._write_csv_wrapper(original)
            else:
                wrapped = self._wrap(_short(module_name, attr), original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._set(module, key, wrapped)
        import numpy.linalg
        self._set(numpy.linalg, "eigvalsh", self._wrap(EIGVALSH, numpy.linalg.eigvalsh))
        density = importlib.import_module("coupledwg.fock").TwoModeDensityMatrix
        self._set(density, "__post_init__", self._wrap(VALIDATION, density.__post_init__))
        self._cache_start = dict(self._cache_infos())

    def uninstall(self):
        for key, info in self._cache_infos():
            start = self._cache_start[key]
            self.cache_hits[key] += info.hits - start.hits
            self.cache_lookups[key] += (info.hits + info.misses
                                        - start.hits - start.misses)
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _cache_infos(self):
        for module_name, attr in CACHES:
            fn = getattr(importlib.import_module(module_name), attr)
            yield _short(module_name, attr), fn.cache_info()

    # -- derived statistics ------------------------------------------------

    def layer_totals(self) -> dict:
        """calls, busy_s (outermost spans of a name) and self_s (duration less
        direct children) per span name, plus the recorded counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            duration = end - start
            if self._outer[index]:
                totals[name + ".busy_s"] += duration
            totals[name + ".self_s"] += duration - child[index]
        totals.update(self.counts)
        for key, lookups in self.cache_lookups.items():
            totals[f"cache.{key}.hit_ratio"] = (
                self.cache_hits[key] / lookups if lookups else 0.0)
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("id,name,start,end,parent,job\n")
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{job}\n")
