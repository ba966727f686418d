"""Span tracing over the simulator's virtual clock.

A :class:`Trace` records spans — named, timestamped intervals with
parent/child links and free-form attributes — so one request can be
followed across the load generator, the service network hop, the server
queue, the batching buffer, the device executor and the HTTP response
path. All timestamps are **virtual-time seconds** read from a clock
callable (normally ``lambda: simulator.now``); nothing here touches the
wall clock.

Span model (see ``docs/observability.md`` for the full contract):

- every request gets one **root span** named ``request`` whose
  ``trace_id`` is the request id;
- stage spans (``sent``, ``queued``, ``batch_assembled``, ``inference``,
  ``http_respond``) are children of that root, linked automatically when
  ``begin()`` or ``record()`` is called without an explicit parent;
- attributes carry the cross-cutting identifiers, most importantly
  ``batch_id``: every request flushed in one GPU batch shares it.

Storage is columnar: the trace keeps one list per field (``names``,
``trace_ids``, ``parent_ids``, ``starts``, ``ends``, ``attrs``), a span
is one row, and its span id is the row index. A span without attributes
stores ``None`` instead of an empty dict. A :class:`Span` is a handle
(trace, row) whose properties read and write that row, so recording a
span allocates no per-span object that outlives the call. Values are
stored as given: an ``int`` time stays an ``int`` in the JSON dump.

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
    """A handle on one span of a :class:`Trace`, in virtual-time seconds.

    Two handles on the same row compare equal. ``attrs`` is the stored
    dict (created on first access when the span has none), so mutating
    it changes the span.
    """

    __slots__ = ("trace", "span_id")

    def __init__(self, trace: "Trace", span_id: int):
        self.trace = trace
        self.span_id = span_id

    @property
    def name(self) -> str:
        return self.trace.names[self.span_id]

    @property
    def trace_id(self) -> int:
        return self.trace.trace_ids[self.span_id]

    @property
    def parent_id(self) -> Optional[int]:
        return self.trace.parent_ids[self.span_id]

    @property
    def start(self) -> float:
        return self.trace.starts[self.span_id]

    @property
    def end(self) -> Optional[float]:
        return self.trace.ends[self.span_id]

    @property
    def attrs(self) -> Dict[str, Any]:
        column = self.trace.attrs
        attrs = column[self.span_id]
        if attrs is None:
            attrs = column[self.span_id] = {}
        return attrs

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration_s(self) -> Optional[float]:
        """Span length in seconds, or ``None`` while still open."""
        end = self.end
        if end is None:
            return None
        return end - self.start

    def set(self, **attrs: Any) -> "Span":
        if attrs:
            self.trace._merge_attrs(self.span_id, attrs)
        return self

    def finish(self, at: Optional[float] = None, **attrs: Any) -> "Span":
        """Close the span (idempotent); ``at`` overrides the clock."""
        trace = self.trace
        if attrs:
            trace._merge_attrs(self.span_id, attrs)
        if trace.ends[self.span_id] is None:
            trace.ends[self.span_id] = trace.clock() if at is None else at
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.trace is other.trace and self.span_id == other.span_id

    def __hash__(self) -> int:
        return hash((id(self.trace), self.span_id))

    def __repr__(self) -> str:
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"[{self.start:.6f}, {end}], {self.attrs})"
        )


class Trace:
    """An append-only span recorder bound to a virtual clock.

    One list per span field; row ``i`` of every list is span id ``i``.
    Read the columns freely, but append only through :meth:`begin` and
    :meth:`record`.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock or _zero_clock
        self.names: List[str] = []
        self.trace_ids: List[int] = []
        self.parent_ids: List[Optional[int]] = []
        self.starts: List[float] = []
        self.ends: List[Optional[float]] = []
        #: Each span's attributes, ``None`` for a span that has none.
        self.attrs: List[Optional[Dict[str, Any]]] = []
        self._roots: Dict[int, Span] = {}

    def __len__(self) -> int:
        return len(self.names)

    @property
    def trace_count(self) -> int:
        """How many distinct trace ids have a span."""
        return len(self._roots)

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
        span = Span(self, len(self.names))
        self.names.append(name)
        self.trace_ids.append(trace_id)
        self.parent_ids.append(parent_id)
        self.starts.append(self.clock() if at is None else at)
        self.ends.append(None)
        self.attrs.append(attrs or None)
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
        span = Span(self, len(self.names))
        self.names.append(name)
        self.trace_ids.append(trace_id)
        self.parent_ids.append(None if root is None else root.span_id)
        self.starts.append(start)
        self.ends.append(end)
        self.attrs.append(attrs or None)
        if root is None:
            self._roots[trace_id] = span
        return span

    def finish(self, span: Span, at: Optional[float] = None, **attrs: Any) -> Span:
        """Close ``span``, stamping the clock unless ``at`` is given."""
        return span.finish(at=self.clock() if at is None else at, **attrs)

    def _merge_attrs(self, row: int, attrs: Dict[str, Any]) -> None:
        stored = self.attrs[row]
        if stored is None:
            self.attrs[row] = attrs
        else:
            stored.update(attrs)

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

    @property
    def spans(self) -> List[Span]:
        """A new handle on every span, in recording order (count them
        with ``len(trace)``)."""
        return [Span(self, row) for row in range(len(self.names))]

    def root(self, trace_id: int) -> Optional[Span]:
        """The first span recorded for ``trace_id``, or None."""
        return self._roots.get(trace_id)

    def rows_by_trace(self, root: Optional[str] = None) -> Dict[int, List[int]]:
        """Span ids grouped by ``trace_id``, in recording order; the traces
        in the order their roots were recorded.

        With ``root``, only the traces whose root span has that name.
        """
        names = self.names
        grouped: Dict[int, List[int]] = {
            trace_id: []
            for trace_id, first in self._roots.items()
            if root is None or names[first.span_id] == root
        }
        for row, trace_id in enumerate(self.trace_ids):
            rows = grouped.get(trace_id)
            if rows is not None:
                rows.append(row)
        return grouped

    def by_trace(self, root: Optional[str] = None) -> Dict[int, List[Span]]:
        """Spans grouped by ``trace_id``, in recording order.

        With ``root``, only the traces whose root span has that name.
        """
        return {
            trace_id: [Span(self, row) for row in rows]
            for trace_id, rows in self.rows_by_trace(root).items()
        }

    def find(self, name: str) -> List[Span]:
        return [
            Span(self, row) for row, named in enumerate(self.names) if named == name
        ]

    def children(self, span: Span) -> List[Span]:
        return [
            Span(self, row)
            for row, parent_id in enumerate(self.parent_ids)
            if parent_id == span.span_id
        ]
