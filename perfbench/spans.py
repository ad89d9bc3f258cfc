"""In-memory spans for the benchmark's traced run.

A span covers one call into a shapprune module (or one pipeline stage) and
records its name, start, end, parent span and the trace id of the pipeline
repetition it belongs to, plus work counts taken at the same boundary. Spans
stay in memory; the caller writes them out when the run ends.

A disabled tracer still times each span, because the end-to-end metrics need
a few of those durations, but keeps no record of it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "trace", "name", "parent", "start", "end", "counts")

    def __init__(self, span_id, trace, name, parent, start):
        self.id = span_id
        self.trace = trace
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.counts = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "trace": self.trace,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.trace_id = None
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), self.trace_id, name, parent, time.perf_counter())
        if self.enabled:
            self.spans.append(span)
            self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if self.enabled:
                self._open.pop()


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover. Spans
    come from one thread, so children never overlap each other."""
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return {span.id: span.seconds - covered[span.id] for span in spans}


def layer_totals(spans) -> tuple:
    """Per span name, summed self seconds; per count name, summed counts."""
    own = self_times(spans)
    seconds = defaultdict(float)
    counts = defaultdict(int)
    for span in spans:
        seconds[span.name] += own[span.id]
        for key, value in span.counts.items():
            counts[key] += value
    return dict(seconds), dict(counts)
