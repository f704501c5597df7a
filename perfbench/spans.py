"""In-memory span recorder for the traced benchmark run.

A span is one timed call (or batch of calls) that the benchmark makes into
a layer of the program.  Each records its name, start, end, parent span and
pass id, plus optional work counts.  Spans stay in memory until the run
ends; `write_jsonl` then writes them with their self times.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Span:
    """One recorded interval; used as a context manager that times itself."""

    __slots__ = ("span_id", "parent_id", "pass_id", "name", "start", "end", "counts", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, counts: dict[str, int]) -> None:
        self._tracer = tracer
        self.name = name
        self.counts = counts
        self.span_id = -1
        self.parent_id: int | None = None
        self.pass_id = tracer.pass_id
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        tr = self._tracer
        self.span_id = len(tr.spans)
        self.parent_id = tr.stack[-1].span_id if tr.stack else None
        tr.spans.append(self)
        tr.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter()
        self._tracer.stack.pop()
        return False


class Tracer:
    """Collects spans; `pass_id` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.pass_id = 0

    def span(self, name: str, **counts: int) -> Span:
        return Span(self, name, counts)


class _NullSpan:
    """Stand-in for `Span` in untraced passes: records nothing."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class NullTracer:
    """Tracer with the same interface that keeps no spans."""

    def span(self, name: str, **counts: int) -> _NullSpan:
        return _NullSpan()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent_id is not None:
            child[s.parent_id] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def write_jsonl(path: Path, spans: list[Span], header: dict) -> None:
    """Write a header line, then one JSON object per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for s, self_s in zip(spans, self_times(spans)):
            fh.write(
                json.dumps(
                    {
                        "id": s.span_id,
                        "parent": s.parent_id,
                        "pass": s.pass_id,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "self_s": self_s,
                        **({"counts": s.counts} if s.counts else {}),
                    }
                )
                + "\n"
            )
