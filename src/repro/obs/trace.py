"""Span tracing over the simulator's virtual clock.

A :class:`Trace` records :class:`Span` objects — named, timestamped
intervals with parent/child links and free-form attributes — so one
request can be followed across the load generator, the service network
hop, the server queue, the batching buffer, the device executor and the
HTTP response path. All timestamps are **virtual-time seconds** read from
a clock callable (normally ``lambda: simulator.now``); nothing here
touches the wall clock.

Span model (see ``docs/observability.md`` for the full contract):

- every request gets one **root span** named ``request`` whose
  ``trace_id`` is the request id;
- stage spans (``sent``, ``queued``, ``batch_assembled``, ``inference``,
  ``http_respond``) are children of that root, linked automatically when
  ``begin()`` or ``record()`` is called without an explicit parent;
- attributes carry the cross-cutting identifiers, most importantly
  ``batch_id``: every request flushed in one GPU batch shares it.

Spans can be driven three ways:

- context manager, for synchronous blocks::

      with trace.span("inference", trace_id=7, batch_id=3):
          ...

- explicit begin/finish, for work that crosses simulator callbacks::

      span = trace.begin("queued", trace_id=7)
      ...                       # arbitrarily later, other events between
      span.finish()             # stamps the clock at finish time

- one call, for a span whose both ends are known when it is recorded::

      trace.record("inference", 7, started, started + duration_s, batch_id=3)

  is ``trace.begin("inference", 7, at=started).finish(at=started +
  duration_s, batch_id=3)``: the same span id, root link and attributes.

``begin`` and ``finish`` both accept ``at=`` to backdate a boundary — the
servers use this to split one combined ``yield`` into its inference and
HTTP components without changing the simulation's event sequence.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


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
