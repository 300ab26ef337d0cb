"""Spans recorded by the benchmark around its calls into the library.

A span has a name (``<module>.<function>`` for a library call, ``cmd.<command>``
for a replayed CLI command), a start, an end and the id of the span that was
open when it began. Spans stay in memory until ``write`` dumps them at the
end of a run. ``NULL_TRACER`` has the same interface and records nothing, so
one code path serves traced and untraced runs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, time.perf_counter_ns())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def mark(self) -> int:
        """Position to pass to ``durations`` / ``self_time_by_layer`` later."""
        return len(self.spans)

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations in seconds of the spans called ``name``."""
        return [sp.duration_ns * 1e-9 for sp in self.spans[since:] if sp.name == name]

    def self_time_by_layer(self, since: int = 0) -> dict[str, float]:
        """Seconds per layer not covered by a child span, summed."""
        spans = self.spans[since:]
        child_ns: dict[int, int] = defaultdict(int)
        for sp in spans:
            if sp.parent is not None:
                child_ns[sp.parent] += sp.duration_ns
        out: dict[str, float] = defaultdict(float)
        for sp in spans:
            out[sp.layer] += (sp.duration_ns - child_ns[sp.id]) * 1e-9
        return dict(out)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(sp) for sp in self.spans]), encoding="utf-8")


class _NullTracer(Tracer):
    enabled = False

    @contextmanager
    def span(self, name: str):
        yield None

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL_TRACER = _NullTracer()
