"""Spans around the public functions of every ``hyperhomology`` module.

The wrapping lives entirely in the benchmark: :meth:`Tracer.installed`
replaces each public function of each layer module, in every module
namespace that binds it (``smith_normal_form`` is bound in both
``exact_linalg`` and ``homology``, for example), and puts the originals
back on exit.  Each call records a span ``[name, start, end, parent,
query]``; spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "core", "boundary", "exact_linalg", "homology", "spanning_tree", "fixtures")

# Time spent computing a span's counters after the call is recorded as a
# child span of this name, so that it counts against no layer's self time.
OBSERVE = "trace.observe"

NAME, START, END, PARENT, QUERY = range(5)


def _max_bits(decomposition) -> int:
    return max(
        (
            abs(x).bit_length()
            for matrix in (
                decomposition.u,
                decomposition.v,
                decomposition.u_inverse,
                decomposition.v_inverse,
            )
            for row in matrix.entries
            for x in row
        ),
        default=0,
    )


class Tracer:
    """In-memory span recorder plus the per-call counters that need the
    arguments or results of a call."""

    def __init__(self):
        self.spans: list[list] = []
        self.query: object = "setup"
        self._stack: list[int] = []
        self.counters = {
            "boundary.matrix_cells": 0,
            "exact_linalg.snf_cells": 0,
            "exact_linalg.snf_max_bits": 0,
            "spanning_tree.integer_found": 0,
        }
        self._observers = {
            "boundary.boundary_matrix": self._on_boundary_matrix,
            "exact_linalg.smith_normal_form": self._on_snf,
            "spanning_tree.find_spanning_tree_integer": self._on_integer_search,
        }

    def _on_boundary_matrix(self, args, result):
        self.counters["boundary.matrix_cells"] += result.rows * result.cols

    def _on_snf(self, args, result):
        self.counters["exact_linalg.snf_cells"] += args[0].rows * args[0].cols
        bits = _max_bits(result)
        if bits > self.counters["exact_linalg.snf_max_bits"]:
            self.counters["exact_linalg.snf_max_bits"] = bits

    def _on_integer_search(self, args, result):
        self.counters["spanning_tree.integer_found"] += result is not None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.query]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                began = clock()
                observe(args, result)
                spans.append([OBSERVE, began, clock(), parent, self.query])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of every layer while the block runs."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hyperhomology.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr == value.__name__
                ):
                    wrappers[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        patched = []
        for name, module in list(sys.modules.items()):
            if name != "hyperhomology" and not name.startswith("hyperhomology."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "query"], "spans": self.spans}, handle)


class SpanSummary:
    """Calls, inclusive time and self time per span name, over the spans
    that ``keep`` accepts (by query id)."""

    def __init__(self, spans: list[list], keep):
        self.spans = spans
        self.keep = [keep(s[QUERY]) for s in spans]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        children = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                children[s[PARENT]] += s[END] - s[START]
        for i, s in enumerate(spans):
            if not self.keep[i]:
                continue
            duration = s[END] - s[START]
            self.calls[s[NAME]] = self.calls.get(s[NAME], 0) + 1
            self.total[s[NAME]] = self.total.get(s[NAME], 0.0) + duration
            self.self_time[s[NAME]] = self.self_time.get(s[NAME], 0.0) + duration - children[i]

    def calls_within(self, name: str, ancestor: str) -> int:
        """Calls to ``name`` made (directly or not) inside a call to ``ancestor``."""
        inside = [False] * len(self.spans)
        count = 0
        for i, s in enumerate(self.spans):
            parent = s[PARENT]
            inside[i] = s[NAME] == ancestor or (parent >= 0 and inside[parent])
            if s[NAME] == name and parent >= 0 and inside[parent] and self.keep[i]:
                count += 1
        return count
