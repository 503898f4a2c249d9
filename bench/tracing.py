"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces the module attributes that callers look up (for example
scenario.evolve, which is reduced.evolve as the scenario module sees it)
with wrappers that record a span: layer name, start, end and the index of
the enclosing span. Spans stay in memory until the benchmark writes them
out. install() and uninstall() bracket each traced pass; after uninstall()
every attribute holds its original object again.

A target that does not exist (a later version of the package may drop a
lookup, such as the integrator once an exact engine replaces it) is skipped
and listed in missing; its layer then reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, dict key or None, layer). Several lookups of one
# function share a layer.
SPAN_TARGETS = (
    ("cavity_beats.scenario", "derive_rates", None, "model.derive_rates"),
    ("cavity_beats.composite", "derive_rates", None, "model.derive_rates"),
    ("cavity_beats.cli", "derive_rates", None, "model.derive_rates"),
    ("cavity_beats.scenario", "evolve", None, "reduced.evolve"),
    ("cavity_beats.composite", "evolve_reduced", None, "reduced.evolve"),
    ("cavity_beats.reduced", "RHS_FORMS", "operator", "reduced.rhs"),
    ("cavity_beats.reduced", "RHS_FORMS", "element", "reduced.rhs"),
    ("cavity_beats.reduced", "integrate", None, "integrator.integrate"),
    ("cavity_beats.composite", "integrate", None, "integrator.integrate"),
    ("cavity_beats.reduced", "hermitize_and_check", None, "linalg.hermitize_and_check"),
    ("cavity_beats.composite", "hermitize_and_check", None, "linalg.hermitize_and_check"),
    ("cavity_beats.composite", "build_system", None, "composite.build_system"),
    ("cavity_beats.composite", "lindblad_rhs", None, "composite.lindblad_rhs"),
    ("cavity_beats.composite", "evolve_composite", None, "composite.evolve_composite"),
    ("cavity_beats.composite", "reduced_from_composite", None,
     "composite.reduced_from_composite"),
    ("cavity_beats.composite", "validate_elimination", None, "composite.validate_elimination"),
    ("cavity_beats.scenario", "symmetric_solution", None, "analytic.symmetric_solution"),
    ("cavity_beats.scenario", "measure_beats", None, "analytic.measure_beats"),
    ("cavity_beats.scenario", "load_scenario", None, "scenario.load_scenario"),
    ("cavity_beats.scenario", "run_scenario", None, "scenario.run_scenario"),
    ("cavity_beats.scenario", "write_csv", None, "scenario.write_csv"),
    ("cavity_beats.scenario", "write_summary", None, "scenario.write_summary"),
)

# Counted, not timed: the tone fit runs inside measure_beats and its time
# belongs to measure_beats' self time.
COUNT_TARGETS = (("cavity_beats.analytic", "_tone_fit", None, "analytic.tone_fit.calls"),)


def lookup(module_name: str, attr: str, key: str | None):
    """The object a caller finds under module.attr (or module.attr[key]), or None."""
    holder = getattr(importlib.import_module(module_name), attr, None)
    if key is None or holder is None:
        return holder
    return holder.get(key)


def _arg(args, kwargs, pos: int, name: str):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _after_integrate(counters, args, kwargs, result) -> None:
    grid = _arg(args, kwargs, 2, "t_grid")
    if grid is not None:
        counters["integrator.samples"] += len(grid)


def _after_measure(counters, args, kwargs, result) -> None:
    if getattr(result, "two_f", None) is not None:
        counters["analytic.measure_beats.measured"] += 1


def _after_write_csv(counters, args, kwargs, result) -> None:
    path = _arg(args, kwargs, 1, "path")
    if path is not None:
        counters["scenario.write_csv.bytes"] += os.path.getsize(path)


AFTER = {
    "integrator.integrate": _after_integrate,
    "analytic.measure_beats": _after_measure,
    "scenario.write_csv": _after_write_csv,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = [-1]
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_idx.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name (used for the CLI entry point)."""
        idx = self.open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, layer: str, fn):
        name_id = self._name_id(layer)
        after = AFTER.get(layer)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        targets = [(*t, self._wrap) for t in SPAN_TARGETS]
        targets += [(*t, self._count) for t in COUNT_TARGETS]
        for module_name, attr, key, label, make in targets:
            original = lookup(module_name, attr, key)
            if original is None:
                self.missing.append(f"{module_name}.{attr}" + (f"[{key!r}]" if key else ""))
                continue
            module = importlib.import_module(module_name)
            holder = module if key is None else getattr(module, attr)
            self._saved.append((holder, attr if key is None else key, original))
            if key is None:
                setattr(module, attr, make(label, original))
            else:
                holder[key] = make(label, original)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._saved):
            if isinstance(holder, dict):
                holder[name] = original
            else:
                setattr(holder, name, original)
        self._saved = []

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time per layer over every recorded span.

        Self time is the span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        n = len(self.start)
        out: dict[str, dict[str, float]] = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                                            for name in self.names}
        if n == 0:
            return out
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_idx = np.frombuffer(self.name_idx, dtype=np.int32)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(name_idx, minlength=len(self.names))
        selfs = np.bincount(name_idx, weights=self_time, minlength=len(self.names))
        totals = np.bincount(name_idx, weights=dur, minlength=len(self.names))
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "self_s": float(selfs[i]),
                         "total_s": float(totals[i])}
        return out

    def save(self, path: str) -> None:
        """Write every span as parallel arrays (name index, start, end, parent)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_idx, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
