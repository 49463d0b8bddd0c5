"""Spans around the benchmark's calls into dpcolor, kept in memory.

A span has a name, a start, an end and the index of the span that was
open when it started (-1 for a root).  Names are ``<layer>.<function>``
for calls into a dpcolor module and ``bench.<step>`` for the benchmark's
own grouping spans; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self._stack.append(len(self.start))
        self.name_id.append(nid)
        self.parent.append(self._stack[-2])
        self.end.append(0)
        self.start.append(perf_counter_ns())

    def _close(self) -> None:
        self.end[self._stack.pop()] = perf_counter_ns()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span called ``name``."""
        self._open(name)
        try:
            return fn(*args)
        finally:
            self._close()

    def __len__(self) -> int:
        return len(self.start)

    def durations(self, lo: int = 0) -> dict[str, list[int]]:
        """Span durations in ns by name, for the spans from index lo on."""
        out: dict[str, list[int]] = defaultdict(list)
        for i in range(lo, len(self.start)):
            out[self.names[self.name_id[i]]].append(self.end[i] - self.start[i])
        return out

    def self_ns_by_layer(self, lo: int = 0) -> dict[str, int]:
        """Self time (duration minus child spans) summed by layer, from span lo on."""
        hi = len(self.start)
        child: dict[int, int] = defaultdict(int)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, int] = defaultdict(int)
        for i in range(lo, hi):
            layer = self.names[self.name_id[i]].split(".", 1)[0]
            out[layer] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path, info: dict) -> None:
        """All spans as gzipped JSON: names, then [name, start_ns, end_ns, parent] rows."""
        rows = [
            [self.name_id[i], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.start))
        ]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"info": info, "names": self.names, "spans": rows}, fh)


class NullTracer:
    """Same calls as Tracer, recording nothing."""

    _nospan = nullcontext()

    def span(self, name: str):
        return self._nospan

    def call(self, name: str, fn, *args):
        return fn(*args)
