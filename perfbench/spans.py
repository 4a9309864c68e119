"""Spans kept in memory around calls into ngtrace, and per-layer self times.

A span is (id, op, name, parent, start_ns, end_ns).  ``op`` is the index of
the benchmark operation that caused it, shared by every span of that
operation.  Replayed spans name as parent the span whose inner calls they
stand in for; a layer's self time is its span minus its replayed children.
Start and end are the thread's CPU time, as are the operations' times.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._next = 0

    @contextmanager
    def span(self, op: int, name: str, parent=None):
        sid = self._next
        self._next += 1
        rec = [sid, op, name, parent, time.thread_time_ns(), 0]
        try:
            yield sid
        finally:
            rec[5] = time.thread_time_ns()
            self.spans.append(rec)


def layer_table(spans: list[list]) -> dict[str, dict]:
    """calls, total seconds and self seconds per span name."""
    children: dict = defaultdict(int)
    for _, _, _, parent, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    table: dict[str, dict] = {}
    for sid, _, name, _, start, end in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - children.get(sid, 0)) / 1e9
    return table
