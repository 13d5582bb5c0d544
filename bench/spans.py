"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (or
``None``).  Spans are kept in a list and written out once, when the run ends,
so recording costs one list append and two clock reads per span.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def totals(self) -> Counter:
        """Summed duration per span name."""
        out: Counter = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> Counter:
        """Per-name duration minus the time covered by direct children."""
        out = self.totals()
        for _, start, end, parent in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
