"""In-memory spans around calls into rszoo's layers.

A :class:`Tracer` replaces a function at the attribute its caller looks
up at call time (a module global, or a method on its class) with a
wrapper that records one span per call: name, start, end and the index
of the enclosing span.  Nothing is written until :meth:`Tracer.dump`.
The benchmark is single-threaded, so one stack of open spans suffices.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start, end, parent index)
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Trace every call made through ``owner.attr`` as a span named
        ``name``; ``on_result(counters, result)`` may record counters."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name,
                                         on_result))

    def traced(self, inner, name: str, on_result=None):
        """``inner`` wrapped so that each call records a span."""
        spans, open_, counters = self.spans, self._open, self.counters
        clock = time.perf_counter

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(idx)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                open_.pop()
            if on_result is not None:
                on_result(counters, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the given intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [s[2] - s[1] - covered(kids) for s, kids in zip(spans, children)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds ``s`` (a span nested
    in another of the same name is counted once) and ``self_s``."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["s"] += end - start
    return out
