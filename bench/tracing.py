"""Spans and counts around the package's public functions, from outside it.

Tracer.install wraps every public function of the traced modules, plus a
few methods at class level, and finds every name in the package that
refers to one of the original function objects (for example
`hardcore.solve`, `experiments.solve` and `hardcoreboost.optimize`);
Tracer.enable rebinds them all, so a call is recorded whichever binding it
goes through.  Spans live in flat arrays in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "hardcoreboost"
MODULES = ("lp", "hardcore", "optimize", "losses", "risk", "hypotheses",
           "experiments", "bounds", "_scalar", "cli")

# (module, class, method, span name).  Loss.value is left unwrapped because
# it delegates to value_saturated; wrapping both would count each call twice.
METHODS = (
    ("losses", "Loss", "value_saturated", "losses.value_saturated"),
    ("losses", "Loss", "subgradient", "losses.subgradient"),
    ("losses", "Loss", "conjugate", "losses.conjugate"),
    ("hypotheses", "HypothesisClass", "materialize", "hypotheses.materialize"),
    ("hypotheses", "ProjectionClass", "materialize", "hypotheses.materialize"),
    ("hypotheses", "LatticeCellClass", "materialize", "hypotheses.materialize"),
    ("hypotheses", "ExplicitClass", "materialize", "hypotheses.materialize"),
    ("experiments", "LatticeNoiseWorld", "sample", "experiments.LatticeNoiseWorld.sample"),
    ("experiments", "LatticeNoiseWorld", "classification_risk",
     "experiments.LatticeNoiseWorld.classification_risk"),
)


def _add(stats, key, value):
    stats[key] = stats.get(key, 0) + value


def _count_lp(stats, args, result):
    _add(stats, "simplex_iters", result.iterations)
    stats["max_vars"] = max(stats.get("max_vars", 0), args[0].n_vars)


def _count_run(stats, args, result):
    _add(stats, "iterations", result.iterations)
    _add(stats, "truncated_steps", result.truncated_steps)


def _count_elements(stats, args, result):
    _add(stats, "elements", int(np.size(args[1])))


def _count_saturated(stats, args, result):
    _add(stats, "saturated_calls", int(bool(result[1])))


def _count_core(stats, args, result):
    _add(stats, "core_points", len(result.core))
    _add(stats, "points", args[0].m)


def _count_nnz(stats, args, result):
    _add(stats, "nnz", int(np.count_nonzero(result.features)))
    _add(stats, "entries", int(result.features.size))


# Counts taken from a call's arguments and result, keyed by span name.
COUNTERS = {
    "lp.solve": _count_lp,
    "optimize.coordinate_descent": _count_run,
    "optimize.subgradient_descent": _count_run,
    "losses.subgradient": _count_elements,
    "losses.conjugate": _count_elements,
    "losses.value_saturated": _count_saturated,
    "hardcore.compute_hardcore": _count_core,
    "hypotheses.materialize": _count_nnz,
}


def public_functions(module):
    """Public functions defined in the module itself (not re-exported ones)."""
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


class Tracer:
    """Records spans (name, start, end, parent, job) and per-name statistics.

    Self time is a span's duration minus the durations of its direct child
    spans.  Calls are recorded only while the wrappers are enabled, so the
    benchmark enables them around traced jobs and not around output checks.
    """

    def __init__(self):
        self.job = -1
        self._bindings: list[tuple] = []  # (owner, attribute, original, wrapper)
        self.names: list[str] = []  # span names, indexed by span_name
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_job = array("i")
        self._stack: list[list] = []  # [span index, child seconds]
        self.stats: dict[str, dict] = {}

    def install(self) -> list[str]:
        """Find the traced functions and every binding to them.

        Returns the span names found.  Nothing is rebound until enable(True).
        """
        wrappers = {}  # original function -> wrapper
        for mod in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            for name, fn in public_functions(module):
                wrappers[fn] = self._wrap(f"{mod}.{name}", fn)
        for mod, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), cls_name)
            fn = cls.__dict__[meth]
            self._bindings.append((cls, meth, fn, self._wrap(span, fn)))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._bindings.append((module, attr, value, wrappers[value]))
        return sorted(self.stats)

    def enable(self, on: bool) -> None:
        """Point every binding at its wrapper (on) or at the original function."""
        for owner, attr, original, wrapped in self._bindings:
            setattr(owner, attr, wrapped if on else original)

    def _wrap(self, span: str, fn):
        counter = COUNTERS.get(span)
        stats = self.stats.setdefault(span, {"calls": 0, "self_s": 0.0})
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_job.append(self.job)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[idx] = end
                duration = end - start
                stats["calls"] += 1
                stats["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                counter(stats, args, result)
            return result

        return wrapper

    def write_spans(self, path: str) -> int:
        """Write spans as CSV (name,start,end,parent,job); returns the count."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_job):
                fh.write(f"{names[row[0]]},{row[1]!r},{row[2]!r},{row[3]},{row[4]}\n")
        return len(self.span_start)
