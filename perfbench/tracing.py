"""In-memory spans and counters for the traced benchmark run.

A span records a name, a start, an end, its parent span and the item it
belongs to.  Spans stay in memory while the run measures; `layer_report`
turns them into per-layer self times at the end.  `time.perf_counter` is
CLOCK_MONOTONIC on Linux, so spans written by a child process can be merged
under the parent's span for the same item.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through, counts are dropped."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: int = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index or None, item id)
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = perf_counter()
        try:
            yield index
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def adopt(self, spans, counts, parent: int) -> None:
        """Merge spans recorded by a child process under one of our spans.

        Child spans arrive as (name, start, end, parent index within the
        child's list or None)."""
        base = len(self.spans)
        for name, start, end, child_parent in spans:
            owner = parent if child_parent is None else base + child_parent
            self.spans.append((name, start, end, owner, self.item))
        self.counts.update(counts)

    def layer_report(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time (time not covered
        by the span's direct children), in seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        report: dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = report.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return report
