"""In-memory spans for the benchmark's traced runs.

A span records one call into a layer: its name, the trace (request) it
belongs to, the span that caused it, and its start and end on the
``perf_counter_ns`` clock. Spans stay in memory while the benchmark runs
and are written out as JSON lines when it ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    trace: str
    sid: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, trace: str, name: str, parent: Span | None = None):
        rec = Span(
            trace,
            len(self.spans),
            None if parent is None else parent.sid,
            name,
            time.perf_counter_ns(),
        )
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end_ns = time.perf_counter_ns()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), separators=(",", ":")) + "\n")
