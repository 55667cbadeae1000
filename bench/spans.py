"""Span recorder for the dcboost benchmark.

A ``Recorder`` wraps public functions and methods of the package at the
names their callers actually use (``from ... import`` copies a function into
the caller's namespace, so wrapping only the defining module would miss those
calls).  Every call that enters a layer from another layer opens a span with
its name, start, end, parent span and the id of the start (or replayed trace)
it belongs to.  Calls made inside the same layer only bump a counter, so
``Sum.value`` calling ``Quadratic.value`` is one ``convex.value`` span.

Spans stay in memory; ``write_spans`` dumps them when the run ends.  A span
name is ``<layer>.<function>`` and its layer is the module it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Entry points of one start: the untraced run wraps only these, so it can
# time each driver call at one span per start.
DRIVER_TARGETS = [
    ("dcboost.cli", f"run_{solver}", f"drivers.run_{solver}")
    for solver in ("inmbdca", "nmbdca", "bdca", "dca")
]

# (owner, attribute, span name).  Module functions are wrapped where the
# caller looks them up: drivers imports the subproblem, linesearch and
# nonmonotone functions by name, cli imports the drivers and core functions
# by name and calls ``problems.resolve`` through the module.
MODULE_TARGETS = DRIVER_TARGETS + [
    ("dcboost.cli", "_execute_start", "cli.start"),
    ("dcboost.cli", "final_residual", "drivers.final_residual"),
    ("dcboost.cli", "config_from_flat", "core.config_from_flat"),
    ("dcboost.cli", "validate", "core.validate"),
    ("dcboost.problems", "resolve", "problems.resolve"),
    ("dcboost.drivers", "solve_inexact", "subproblem.solve_inexact"),
    ("dcboost.drivers", "check_inexact", "subproblem.check_inexact"),
    ("dcboost.drivers", "nonmonotone_search", "linesearch.nonmonotone_search"),
    ("dcboost.drivers", "tau_bound", "linesearch.tau_bound"),
    ("dcboost.drivers", "nu_init", "nonmonotone.nu_init"),
    ("dcboost.drivers", "first_step_nu", "nonmonotone.first_step_nu"),
    ("dcboost.drivers", "nu_next", "nonmonotone.nu_next"),
]

# Methods are wrapped on the class that defines them.
CLASS_TARGETS = [
    ("dcboost.core", "Trace", ("write_jsonl", "read_jsonl"), "core"),
    ("dcboost.core", "DcProblem", ("phi", "from_components"), "core"),
    ("dcboost.convex", "SubdiffBox",
     ("membership_gap", "contains", "project", "gap_to"), "convex"),
] + [
    ("dcboost.convex", cls,
     ("value", "subgrad", "subdiff_box", "eps_subdiff_box", "modulus",
      "linearization_cert", "eps_subgrad"), "convex")
    for cls in ("ConvexExpr", "Quadratic", "Linear", "L1", "Sum")
]

# Spans that begin a new start id: one per start solved, one per trace read.
NEW_START = {"cli.start", "core.read_jsonl"}

NAME, T0, T1, PARENT, START = range(5)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """In-memory span and counter store with reversible wrapping."""

    def __init__(self):
        self.spans = []  # [name, t0_ns, t1_ns, parent index, start id]
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._stack = []
        self._start_id = -1
        self._next_start = 0
        self._hooks = {}
        self._patched = []
        self.missing = []  # targets the package no longer has

    def reset(self) -> None:
        """Drop recorded spans and counts; wrapping stays installed."""
        self.spans = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._start_id = -1

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        if name in NEW_START:
            self._start_id = self._next_start
            self._next_start += 1
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self._start_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][T1] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """Root span around one CLI command issued by the benchmark."""
        self._start_id = -1
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        layer = layer_of(name)
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            stack = self._stack
            if stack and layer_of(self.spans[stack[-1]][NAME]) == layer \
                    and name not in NEW_START:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self, self.spans[index], args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, module_targets, class_targets=(), hooks=None) -> None:
        """Wrap the targets in place; ``hooks`` maps a span name to
        ``hook(recorder, span, args, kwargs, result)``, run after each span
        of that name returns, to read counts off the returned object.  A
        target the package no longer defines is listed in ``missing`` and
        skipped, so its metrics read 0 instead of the run failing."""
        self._hooks = dict(hooks or {})
        for module_name, attr, name in module_targets:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        for module_name, cls_name, attrs, layer in class_targets:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is None:
                self.missing.append(f"{module_name}.{cls_name}")
                continue
            for attr in attrs:
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def self_times(spans) -> list:
    """Self time of each span in ns: its duration minus the part of its
    interval covered by the union of its direct children."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[T0], span[T1]))
    out = []
    for index, span in enumerate(spans):
        t0, t1 = span[T0], span[T1]
        covered = 0
        cursor = t0
        for c0, c1 in sorted(children.get(index, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((t1 - t0) - covered)
    return out


def roots(spans) -> list:
    """Index of the root span (the phase) each span descends from."""
    out = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        out.append(index if parent < 0 else out[parent])
    return out


def write_spans(spans, path) -> None:
    """One JSON array per span: name, start and end (ns from the first
    span), parent index, start id."""
    origin = spans[0][T0] if spans else 0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, start in spans:
            fh.write(json.dumps([name, t0 - origin, t1 - origin, parent,
                                 start]) + "\n")
