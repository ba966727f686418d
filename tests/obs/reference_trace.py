"""The span store as it was before the columnar rewrite.

Kept verbatim (``Span``, ``Trace``, and the ``trace_to_json`` and
``stage_breakdown`` exporters over them) as the reference that
``test_trace_differential.py`` checks the columnar store against: one
``Span`` object with its own attrs dict per recorded span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.metrics.percentile import LatencyDigest
from repro.obs.export import STAGE_LABELS, BreakdownReport, StageStats
from repro.obs.trace import HTTP_OK, ROOT_SPAN, STAGE_ORDER


def _zero_clock() -> float:
    return 0.0


class Span:
    """One named interval in a trace, in virtual-time seconds."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start", "end", "attrs", "_clock",
    )

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
        clock: Optional[Callable[[], float]] = None,
        end: Optional[float] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attrs: Dict[str, Any] = {} if attrs is None else attrs
        self._clock = clock

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration_s(self) -> Optional[float]:
        """Span length in seconds, or ``None`` while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, at: Optional[float] = None, **attrs: Any) -> "Span":
        """Close the span (idempotent); ``at`` overrides the clock."""
        if attrs:
            self.attrs.update(attrs)
        if self.end is None:
            if at is not None:
                self.end = at
            elif self._clock is not None:
                self.end = self._clock()
            else:
                self.end = self.start
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"[{self.start:.6f}, {end}], {self.attrs})"
        )


class Trace:
    """An append-only span recorder bound to a virtual clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock or _zero_clock
        self.spans: List[Span] = []
        self._roots: Dict[int, Span] = {}
        self._next_span_id = 0

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording ----------------------------------------------------------

    def begin(
        self,
        name: str,
        trace_id: int,
        parent: Optional[Span] = None,
        at: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span. Without an explicit ``parent``, the span becomes a
        child of the first span recorded for ``trace_id`` (the root), or
        the root itself when none exists yet."""
        root = self._roots.get(trace_id)
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
        elif root is not None:
            parent_id = root.span_id
        else:
            parent_id = None
        span = Span(
            name, trace_id, self._next_span_id, parent_id,
            self.clock() if at is None else at, attrs, self.clock,
        )
        self._next_span_id += 1
        self.spans.append(span)
        if root is None:
            self._roots[trace_id] = span
        return span

    def record(
        self, name: str, trace_id: int, start: float, end: float, **attrs: Any
    ) -> Span:
        """Append a span that closed at birth, in one call.

        Equivalent to ``begin(name, trace_id, at=start).finish(at=end,
        **attrs)``: the next span id, a child of the trace's root (or the
        root itself when the trace has none yet), ``attrs`` in the order
        given.
        """
        root = self._roots.get(trace_id)
        span = Span(
            name, trace_id, self._next_span_id,
            None if root is None else root.span_id,
            start, attrs, self.clock, end,
        )
        self._next_span_id += 1
        self.spans.append(span)
        if root is None:
            self._roots[trace_id] = span
        return span

    def finish(self, span: Span, at: Optional[float] = None, **attrs: Any) -> Span:
        """Close ``span``, stamping the clock unless ``at`` is given."""
        return span.finish(at=self.clock() if at is None else at, **attrs)

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: int,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Context-manager form: the span closes when the block exits."""
        opened = self.begin(name, trace_id, parent=parent, **attrs)
        try:
            yield opened
        finally:
            self.finish(opened)

    # -- queries ------------------------------------------------------------

    def root(self, trace_id: int) -> Optional[Span]:
        """The first span recorded for ``trace_id``, or None."""
        return self._roots.get(trace_id)

    def by_trace(self, root: Optional[str] = None) -> Dict[int, List[Span]]:
        """Spans grouped by ``trace_id``, in recording order.

        With ``root``, only the traces whose root span has that name.
        """
        grouped: Dict[int, List[Span]] = {
            trace_id: []
            for trace_id, first in self._roots.items()
            if root is None or first.name == root
        }
        for span in self.spans:
            spans = grouped.get(span.trace_id)
            if spans is not None:
                spans.append(span)
        return grouped

    def find(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]


def _jsonable(value: Any):
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return str(value)


def trace_to_json(trace: Trace, indent: Optional[int] = None) -> str:
    """Serialize every recorded span (open spans have ``end: null``)."""
    payload = {
        "span_count": len(trace.spans),
        "trace_count": len(trace.by_trace()),
        "spans": [span.to_dict() for span in trace.spans],
    }
    return json.dumps(payload, indent=indent, default=_jsonable)


def _stats(stage: str, label: str, digest: LatencyDigest, total_e2e: float) -> StageStats:
    count = len(digest)
    total = digest.mean() * count if count else 0.0
    return StageStats(
        stage=stage,
        label=label,
        count=count,
        mean_ms=digest.mean() * 1000.0 if count else 0.0,
        p90_ms=digest.percentile(90) * 1000.0 if count else 0.0,
        total_s=total,
        share=(total / total_e2e) if total_e2e > 0 else 0.0,
    )


def stage_breakdown(trace: Trace) -> Optional[BreakdownReport]:
    """Attribute each successful request's latency to pipeline stages.

    Considers traces whose root span is named ``request``, finished, and
    carries ``status == 200``. Stage spans are matched by name; whatever
    part of the end-to-end time no stage span covers (in practice the
    response-direction network hop) is reported as ``other``. By
    construction the stage rows plus ``other`` sum to exactly the
    end-to-end total.
    """
    digests: Dict[str, LatencyDigest] = {name: LatencyDigest() for name in STAGE_ORDER}
    other = LatencyDigest()
    e2e = LatencyDigest()
    requests = 0

    for spans in trace.by_trace(root=ROOT_SPAN).values():
        root = spans[0]
        if not root.finished:
            continue
        if root.attrs.get("status", HTTP_OK) != HTTP_OK:
            continue
        requests += 1
        total = root.duration_s or 0.0
        e2e.record(total)
        covered = 0.0
        for span in spans[1:]:
            if span.name in digests and span.finished:
                duration = span.duration_s or 0.0
                digests[span.name].record(duration)
                covered += duration
        other.record(max(total - covered, 0.0))

    if requests == 0:
        return None

    total_e2e = e2e.mean() * len(e2e)
    stages = [
        _stats(name, STAGE_LABELS[name], digests[name], total_e2e)
        for name in STAGE_ORDER
        if len(digests[name])
    ]
    stages.append(_stats("other", "other (respond)", other, total_e2e))
    end_to_end = _stats("end_to_end", "end-to-end", e2e, total_e2e)
    return BreakdownReport(requests=requests, stages=stages, end_to_end=end_to_end)
