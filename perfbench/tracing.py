"""In-memory span recorder used by the traced benchmark run.

Spans are recorded from outside the program: around the benchmark's own
calls, and by temporarily replacing module attributes that varseg looks up
at call time (for example `pipeline.bcd_solve`, which `detect` resolves on
every call).  Nothing under `src/` is modified.
"""

from __future__ import annotations

import functools
import itertools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    series: int | None     # spans of one series share this id; None = set-up
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `patch` routes module attributes through spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.series: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(self.series, span_id, parent, name, start, end))

    def patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def per_series(self) -> dict[int, dict[str, list[float]]]:
        """series -> span name -> [total seconds, total self seconds, calls].

        Self time is a span's duration minus the durations of its direct
        children; spans of one process never overlap, so the self times
        of a series add up to its root spans' durations.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        out: dict[int, dict[str, list[float]]] = {}
        for s in self.spans:
            if s.series is None:
                continue
            row = out.setdefault(s.series, {}).setdefault(s.name, [0.0, 0.0, 0])
            row[0] += s.seconds
            row[1] += s.seconds - child_time.get(s.span_id, 0.0)
            row[2] += 1
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
