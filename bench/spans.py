"""Spans recorded from outside the program, around the functions it calls.

`Tracer.install` replaces module attributes of qids with wrappers that
record a span per call: name, start, end (perf_counter_ns), parent span,
operation and search. Spans stay in memory and are written out when the
run ends. A function that a later change stops calling through one of the
patched names is no longer wrapped, so its time shows up as the self time
of the span around it (usually `driver.search`).
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from pathlib import Path

# (module, attribute, span name). The driver is patched in both modules
# because cli.py imports it by name while corpus_sweep calls it directly.
PATCHES = (
    ("qids.cli", "load_system", "cli.load"),
    ("qids.cli", "report_to_json", "cli.report"),
    ("qids.cli", "quantum_iterative_deepening", "driver.search"),
    ("qids.driver", "quantum_iterative_deepening", "driver.search"),
    ("qids.driver", "marked_vector", "production.mark"),
    ("qids.driver", "amplified_state", "grover.amplify"),
    ("qids.driver", "measure", "statevector.measure"),
    ("qids.driver", "execute_sequence", "production.replay"),
    ("qids.turing", "compile_tm", "turing.compile"),
)

AMPLITUDE_BYTES = 16  # complex128


class Tracer:
    """In-memory span store plus the computed work counts at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.search = array("i")
        self._stack: list[int] = []
        self._op = -1
        self._search = -1  # the search now running, -1 outside any
        self._searches = -1
        self.paths_marked = 0
        self.oracle_calls = 0
        self.amplitude_updates = 0
        self.state_bytes: dict[int, int] = {}  # search -> largest state
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.search.append(self._search)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, i: int) -> int:
        self._op = i
        return self.open(self._name_id("op"))

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self._op = -1

    def wrap(self, name: str, fn):
        """`fn` with a span around each call and the work counts of its arguments."""
        name_id = self._name_id(name)
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        new_search = name == "driver.search"

        def wrapper(*args, **kwargs):
            outer = self._search
            if new_search:
                self._searches += 1
                self._search = self._searches
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                self._search = outer
            if count is not None:
                count(*args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_production_mark(self, system, start, d, *rest):
        self.paths_marked += system.branching_factor**d

    def _count_grover_amplify(self, b, d, oracle, m, *rest):
        n = b**d
        self.oracle_calls += m
        self.amplitude_updates += m * 2 * n
        size = 2 * n * AMPLITUDE_BYTES
        if size > self.state_bytes.get(self._search, 0):
            self.state_bytes[self._search] = size

    def install(self) -> None:
        """Patch every name in PATCHES that the program still has."""
        wrapped: dict[int, object] = {}
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(span_name, fn)
            self._patched.append((module, attr, fn))
            setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        """Put back every function that install replaced."""
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self) -> dict[str, int]:
        """Total self time per span name, in ns.

        Every span of an operation nests inside its `op` span, so the self
        times of an operation's spans add up to the op span's duration.
        """
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            totals[name] = totals.get(name, 0) + self.end[i] - self.start[i] - child[i]
        return totals

    def op_time(self) -> int:
        """Summed duration of the op spans, in ns."""
        op_id = self._name_id("op")
        return sum(self.end[i] - self.start[i] for i in range(len(self.name))
                   if self.name[i] == op_id)

    def write(self, path: Path, summary: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "summary": summary,
                "names": self.names,
                "fields": ["name", "start_ns", "end_ns", "parent", "op", "search"],
                "spans": [list(self.name), list(self.start), list(self.end),
                          list(self.parent), list(self.op), list(self.search)],
            }, fh)

