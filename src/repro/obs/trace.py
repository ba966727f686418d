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

Storage comes in two parts:

- the **stage log** (:class:`StageLog`), always kept: typed arrays with
  one entry per span the stage breakdown reads (each request root and
  each :data:`STAGE_ORDER` span of a trace whose first span is
  ``request``), plus each request root's status;
- the **span rows**, kept only with ``keep_spans=True`` (the default of a
  bare ``Trace()``): one list per field (``names``, ``trace_ids``,
  ``parent_ids``, ``starts``, ``ends``, ``attrs``), a span is one row,
  and its span id is the row index. A span without attributes stores
  ``None`` instead of an empty dict. A :class:`Span` is a handle (trace,
  row) whose properties read and write that row. Values are stored as
  given: an ``int`` time stays an ``int`` in the JSON dump.

A trace built with ``keep_spans=False`` keeps only the log, a map from
trace id to log ordinal, and the span count: ``begin`` returns a handle
that can only be finished and given attributes, ``record`` returns
None, and every row query raises :class:`SpanRowsNotKept`.

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

import math
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

#: Root-span name marking one end-to-end request.
ROOT_SPAN = "request"
#: Stage spans in pipeline order: with the root, what the stage log keeps.
STAGE_ORDER = (
    "sent",
    "shard_fanout",
    "shard_merge",
    "queued",
    "batch_assembled",
    "inference",
    "http_respond",
)
HTTP_OK = 200
#: Stage code of a logged root; ``STAGE_ORDER[i]`` logs as ``i + 1``.
ROOT_CODE = 0
_STAGE_CODES = {name: code for code, name in enumerate(STAGE_ORDER, 1)}
#: The logged end of a span still open.
OPEN = math.nan
#: What only a trace built with ``keep_spans=True`` has.
_ROW_ATTRIBUTES = frozenset(
    ("names", "trace_ids", "parent_ids", "starts", "ends", "attrs", "_roots", "_entries")
)


def _zero_clock() -> float:
    return 0.0


def _status_ok(attrs: Dict[str, Any]) -> bool:
    """Whether a root with these attributes counts as a successful
    request: no ``status``, or one that does not differ from 200."""
    return not attrs.get("status", HTTP_OK) != HTTP_OK


class SpanRowsNotKept(RuntimeError):
    """A row query on a trace built with ``keep_spans=False``."""


class StageLog:
    """The spans the stage breakdown reads, in recording order.

    Entry ``i`` is one span across four typed columns: ``ordinals[i]``,
    its trace's rank among request traces in the order their roots were
    recorded; ``codes[i]``, :data:`ROOT_CODE` for the root or ``j + 1``
    for ``STAGE_ORDER[j]``; ``starts[i]``; and ``ends[i]``, set by the
    span's first finish (:data:`OPEN`, a NaN, until then). ``ok[k]`` is 1
    while request trace ``k``'s root has no ``status`` attribute or
    status 200, as the last ``set`` or ``finish`` left it. An entry keeps
    no Python object: 25 bytes.
    """

    __slots__ = ("ordinals", "codes", "starts", "ends", "ok")

    def __init__(self):
        self.ordinals = array("q")
        self.codes = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.ok = array("b")

    def __len__(self) -> int:
        return len(self.codes)

    def append(self, ordinal: int, code: int, start: float, end: float) -> int:
        """Log one span; returns its entry."""
        self.ordinals.append(ordinal)
        self.codes.append(code)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.codes) - 1


class Span:
    """A handle on one span of a :class:`Trace`, in virtual-time seconds.

    Two handles on the same row compare equal. ``attrs`` is the stored
    dict (created on first access when the span has none), so mutating
    it changes the span, but not the stage log: a root's status reaches
    the stage breakdown only through :meth:`set` and :meth:`finish`.
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
            trace = self.trace
            trace._merge_attrs(self.span_id, attrs)
            trace._note_status(trace._entries[self.span_id], attrs)
        return self

    def finish(self, at: Optional[float] = None, **attrs: Any) -> "Span":
        """Close the span (idempotent); ``at`` overrides the clock."""
        trace = self.trace
        row = self.span_id
        entry = trace._entries[row]
        if attrs:
            trace._merge_attrs(row, attrs)
            trace._note_status(entry, attrs)
        ends = trace.ends
        if ends[row] is None:
            end = ends[row] = trace.clock() if at is None else at
            if entry >= 0:
                trace.stage_log.ends[entry] = end
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


class LoggedSpan:
    """The handle ``begin`` returns for a logged span of a trace without
    rows: it can only be finished and given attributes, which the log
    keeps as its end and, for a root, its status."""

    __slots__ = ("trace", "entry")

    def __init__(self, trace: "Trace", entry: int):
        self.trace = trace
        self.entry = entry

    def set(self, **attrs: Any) -> "LoggedSpan":
        if attrs:
            self.trace._note_status(self.entry, attrs)
        return self

    def finish(self, at: Optional[float] = None, **attrs: Any) -> "LoggedSpan":
        """Close the span (idempotent); ``at`` overrides the clock."""
        trace = self.trace
        if attrs:
            trace._note_status(self.entry, attrs)
        ends = trace.stage_log.ends
        if math.isnan(ends[self.entry]):
            ends[self.entry] = trace.clock() if at is None else at
        return self


class UnloggedSpan:
    """The handle ``begin`` returns for a span that a trace without rows
    does not keep: finishing it or setting attributes does nothing. All
    such spans share one instance, :data:`UNLOGGED`."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "UnloggedSpan":
        return self

    def finish(self, at: Optional[float] = None, **attrs: Any) -> "UnloggedSpan":
        return self


UNLOGGED = UnloggedSpan()

AnySpan = Union[Span, LoggedSpan, UnloggedSpan]


class Trace:
    """An append-only span recorder bound to a virtual clock.

    The stage log (``stage_log``) is kept in every mode. With
    ``keep_spans=True`` the trace also keeps one list per span field;
    row ``i`` of every list is span id ``i``. Read the columns freely,
    but append only through :meth:`begin` and :meth:`record`.
    """

    def __init__(
        self, clock: Optional[Callable[[], float]] = None, keep_spans: bool = True
    ):
        self.clock = clock or _zero_clock
        self.keep_spans = keep_spans
        self.stage_log = StageLog()
        #: Trace id -> the trace's ordinal in the stage log, or -1 for a
        #: trace whose first span is not ``request``.
        self._ordinals: Dict[int, int] = {}
        self._count = 0
        if keep_spans:
            self.names: List[str] = []
            self.trace_ids: List[int] = []
            self.parent_ids: List[Optional[int]] = []
            self.starts: List[float] = []
            self.ends: List[Optional[float]] = []
            #: Each span's attributes, ``None`` for a span that has none.
            self.attrs: List[Optional[Dict[str, Any]]] = []
            self._roots: Dict[int, Span] = {}
            #: Each row's stage-log entry, or -1 for a span not logged.
            self._entries = array("q")

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes the instance lacks.
        if name in _ROW_ATTRIBUTES:
            raise SpanRowsNotKept(
                "this trace keeps no span rows; build it with keep_spans=True "
                "(the CLI does for --trace-out)"
            )
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __len__(self) -> int:
        return self._count

    @property
    def trace_count(self) -> int:
        """How many distinct trace ids have a span."""
        return len(self._ordinals)

    # -- recording ----------------------------------------------------------

    def begin(
        self,
        name: str,
        trace_id: int,
        parent: Optional[Span] = None,
        at: Optional[float] = None,
        **attrs: Any,
    ) -> AnySpan:
        """Open a span. Without an explicit ``parent``, the span becomes a
        child of the first span recorded for ``trace_id`` (the root), or
        the root itself when none exists yet."""
        start = self.clock() if at is None else at
        entry = self._log(name, trace_id, start, OPEN, attrs)
        if not self.keep_spans:
            return UNLOGGED if entry < 0 else LoggedSpan(self, entry)
        root = self._roots.get(trace_id)
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
        elif root is not None:
            parent_id = root.span_id
        else:
            parent_id = None
        span = Span(self, len(self.names))
        self._append(name, trace_id, parent_id, start, None, attrs, entry)
        if root is None:
            self._roots[trace_id] = span
        return span

    def record(
        self, name: str, trace_id: int, start: float, end: float, **attrs: Any
    ) -> Optional[Span]:
        """Append a span that closed at birth, in one call.

        Equivalent to ``begin(name, trace_id, at=start).finish(at=end,
        **attrs)``: the next span id, a child of the trace's root (or the
        root itself when the trace has none yet), ``attrs`` in the order
        given. Returns the span's handle, or None when the trace keeps no
        rows.
        """
        entry = self._log(name, trace_id, start, end, attrs)
        if not self.keep_spans:
            return None
        root = self._roots.get(trace_id)
        span = Span(self, len(self.names))
        parent_id = None if root is None else root.span_id
        self._append(name, trace_id, parent_id, start, end, attrs, entry)
        if root is None:
            self._roots[trace_id] = span
        return span

    def finish(self, span: AnySpan, at: Optional[float] = None, **attrs: Any) -> AnySpan:
        """Close ``span``, stamping the clock unless ``at`` is given."""
        return span.finish(at=self.clock() if at is None else at, **attrs)

    def _log(
        self, name: str, trace_id: int, start: float, end: float, attrs: Dict[str, Any]
    ) -> int:
        """Count one span and log it if the stage breakdown reads it;
        returns its log entry, or -1."""
        self._count += 1
        ordinal = self._ordinals.get(trace_id)
        if ordinal is None:
            if name != ROOT_SPAN:
                self._ordinals[trace_id] = -1
                return -1
            ok = self.stage_log.ok
            ordinal = self._ordinals[trace_id] = len(ok)
            ok.append(_status_ok(attrs))
            code = ROOT_CODE
        elif ordinal < 0:
            return -1
        else:
            code = _STAGE_CODES.get(name)
            if code is None:
                return -1
        return self.stage_log.append(ordinal, code, start, end)

    def _note_status(self, entry: int, attrs: Dict[str, Any]) -> None:
        """Keep a logged root's status as ``set`` or ``finish`` leaves it."""
        if entry >= 0 and "status" in attrs:
            log = self.stage_log
            if log.codes[entry] == ROOT_CODE:
                log.ok[log.ordinals[entry]] = _status_ok(attrs)

    def _append(
        self,
        name: str,
        trace_id: int,
        parent_id: Optional[int],
        start: float,
        end: Optional[float],
        attrs: Dict[str, Any],
        entry: int,
    ) -> None:
        self.names.append(name)
        self.trace_ids.append(trace_id)
        self.parent_ids.append(parent_id)
        self.starts.append(start)
        self.ends.append(end)
        self.attrs.append(attrs or None)
        self._entries.append(entry)

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
    ) -> Iterator[AnySpan]:
        """Context-manager form: the span closes when the block exits."""
        opened = self.begin(name, trace_id, parent=parent, **attrs)
        try:
            yield opened
        finally:
            self.finish(opened)

    # -- queries (span rows only) -------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """A new handle on every span, in recording order (count them
        with ``len(trace)``)."""
        return [Span(self, row) for row in range(len(self.names))]

    def root(self, trace_id: int) -> Optional[Span]:
        """The first span recorded for ``trace_id``, or None."""
        return self._roots.get(trace_id)

    def rows_by_trace(self) -> Dict[int, List[int]]:
        """Span ids grouped by ``trace_id``, in recording order; the traces
        in the order their roots were recorded."""
        grouped: Dict[int, List[int]] = {trace_id: [] for trace_id in self._roots}
        for row, trace_id in enumerate(self.trace_ids):
            grouped[trace_id].append(row)
        return grouped

    def by_trace(self) -> Dict[int, List[Span]]:
        """Spans grouped by ``trace_id``, in recording order."""
        return {
            trace_id: [Span(self, row) for row in rows]
            for trace_id, rows in self.rows_by_trace().items()
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
