"""In-memory spans recorded by the benchmark around its calls into a layer.

A span is ``(id, parent, op_id, name, start, end)``.  Spans of one
operation share ``op_id``; a stage replayed from that operation's inputs
is a child of the replay span, which is a child of the op span.  Nothing
is written until :meth:`SpanLog.dump`; self time is a span's duration
minus what its children cover.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator


class SpanLog:
    def __init__(self) -> None:
        self.rows: list[tuple[int, int, str, str, float, float]] = []
        self._ids = itertools.count(1)

    def add(self, name: str, op_id: str, start: float, end: float,
            parent: int = 0) -> int:
        """Record a finished span; returns its id (0 means no parent)."""
        span_id = next(self._ids)
        self.rows.append((span_id, parent, op_id, name, start, end))
        return span_id

    @contextmanager
    def span(self, name: str, op_id: str, parent: int = 0) -> Iterator[int]:
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.rows.append(
                (span_id, parent, op_id, name, start, time.perf_counter()))

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            for span_id, parent, op_id, name, start, end in self.rows:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "op_id": op_id,
                    "name": name, "start": start, "end": end,
                }) + "\n")

    def self_times_us(self) -> dict[str, list[float]]:
        """Per span name: duration minus the part of that interval its
        children cover, in microseconds.  (A replay runs after its op, so
        it covers none of the op's interval.)"""
        interval = {span_id: (start, end)
                    for span_id, _p, _o, _n, start, end in self.rows}
        covered: dict[int, float] = defaultdict(float)
        for _id, parent, _op, _name, start, end in self.rows:
            if parent:
                lo, hi = interval[parent]
                covered[parent] += max(0.0, min(end, hi) - max(start, lo))
        by_name: dict[str, list[float]] = defaultdict(list)
        for span_id, _parent, _op, name, start, end in self.rows:
            by_name[name].append((end - start - covered[span_id]) * 1e6)
        return by_name
