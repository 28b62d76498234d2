"""In-memory span recorder for the benchmark's traced runs.

A span records a name, start, end, the span that caused it (``parent``) and
the request it belongs to (``request_id``).  Spans are kept in a list and
written out once, when the run ends.  Every timestamp is ``time.monotonic()``:
on Linux that is the same clock the service stamps ``submitted_at`` /
``started_at`` / ``finished_at`` with, so server-side intervals read from job
snapshots nest under the client spans that caused them.

The layer of a span is the part of its name before the first dot
(``"substrate.solve"`` belongs to ``substrate``).  A span's *self time* is its
duration minus the part of its interval that its children cover; the root
span's self time is the wall time no other span accounts for.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["Span", "Tracer", "covered", "self_times", "layer_self_times"]


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.span_id]
    return totals


class Tracer:
    """Collects spans when enabled; a disabled tracer records nothing.

    The parent of a span opened with :meth:`span` is the innermost span open
    on the same thread, or ``parent`` when given (client threads pass their
    phase span).  :meth:`add` records an interval measured elsewhere, such as
    a job's queue wait read back from its snapshot.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: str | None = None, parent: int | None = None):
        """Record the enclosed block as one span; yields the span id."""
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield span_id
        finally:
            end = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, request_id))

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None,
        request_id: str | None = None,
    ) -> int | None:
        """Record an interval measured elsewhere; returns its span id."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        with self._lock:
            self.spans.append(Span(span_id, name, start, end, parent, request_id))
        return span_id

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def per_span_cost_s(self, n: int = 2000) -> float:
        """Measured cost of opening and closing one span on this machine."""
        probe = Tracer(True)
        start = time.monotonic()
        for _ in range(n):
            with probe.span("probe"):
                pass
        return (time.monotonic() - start) / n

    def write(self, path: Path) -> None:
        """Write every span as JSON (one document, spans in start order)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda s: (s.start, s.span_id))
        path.write_text(json.dumps({"spans": [asdict(s) for s in spans]}) + "\n")
