"""The columnar span store against its reference implementation.

``reference_trace.py`` is the store before the columnar rewrite (one
``Span`` object with its own attrs dict per span). Random programs drive
both in lockstep: ``begin`` with and without ``at=``, ``parent=`` and
attrs; ``record``, including a root made by ``record`` and negative trace
ids; ``finish`` twice, with attrs, through both ``Trace.finish`` and
``Span.finish``; ``set``; mutations of ``span.attrs``; the ``span()``
context manager; whole requests with stage spans laid end to end; spans
left open at export; int and float times. The columnar store must give
the same ``trace_to_json`` text, the same stage breakdown of its rows and
the same answers to every query.

The rows' breakdown is taken by ``reference_breakdown.stage_breakdown``,
the walk over rows: ``mutate`` writes ``span.attrs`` directly, which
changes a row but not the stage log that ``stage_breakdown`` reads
(``test_stage_log_differential.py`` checks the log against the walk).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import stage_breakdown, trace_to_json
from repro.obs.trace import Trace
from tests.obs import reference_breakdown, reference_trace

NAMES = (
    "request", "sent", "queued", "batch_assembled", "inference",
    "http_respond", "shard_merge", "kernel",
)
TRACE_IDS = range(-3, 4)
#: Trace id of the first whole request; each one gets the next.
REQUEST_IDS = 100

names = st.sampled_from(NAMES)
trace_ids = st.sampled_from(TRACE_IDS)
#: Clock steps and offsets: ints and floats, so stored times keep their type.
steps = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
#: A finish offset from the span's start; a negative one closes the span
#: before it opened, which ``stage_breakdown`` rejects in both stores.
offsets = st.one_of(steps, st.just(-1), st.floats(-0.5, -0.01))
attr_pairs = st.lists(
    st.tuples(
        st.sampled_from(["status", "batch_id", "tier"]),
        st.sampled_from([200, 200, 503, 0, 1, 2.5, "local"]),
    ),
    max_size=3,
)
handle = st.integers(min_value=0, max_value=63)

#: A whole request on a fresh trace id: a root over stage spans laid end
#: to end, then a tail that no stage covers, so ``other`` depends on the
#: order of the float sum.
whole_requests = st.tuples(
    st.just("request"),
    st.lists(st.tuples(names, st.floats(0.0, 0.1)), max_size=5),
    steps,
    st.sampled_from([200, 200, 503]),
)
ops = st.one_of(
    # begin(name, trace_id, parent=handles[i] or None, at=now - back or None)
    st.tuples(
        st.just("begin"), names, trace_ids, st.none() | handle, st.none() | steps,
        attr_pairs,
    ),
    # record(name, trace_id, now - back, now - back + duration)
    st.tuples(st.just("record"), names, trace_ids, steps, steps, attr_pairs),
    # handles[i].finish(at=start + offset or None) / trace.finish(...)
    st.tuples(st.just("finish"), handle, st.none() | offsets, attr_pairs),
    st.tuples(st.just("trace_finish"), handle, st.none() | offsets, attr_pairs),
    st.tuples(st.just("set"), handle, attr_pairs),
    # handles[i].attrs[key] = value
    st.tuples(st.just("mutate"), handle, attr_pairs),
    # with trace.span(...): clock advances by a step inside the block
    st.tuples(
        st.just("span"), names, trace_ids, st.none() | handle, attr_pairs, steps
    ),
    whole_requests,
    st.tuples(st.just("tick"), steps),
)
programs = st.lists(ops, max_size=40)


class Store:
    """One span store driven by a program, with the handles it returned."""

    def __init__(self, trace_class):
        self.now = 0
        self.trace = trace_class(clock=lambda: self.now)
        self.handles = []
        self.requests = []

    def pick(self, index):
        return self.handles[index % len(self.handles)] if self.handles else None

    def step(self, op):
        kind = op[0]
        trace = self.trace
        if kind == "begin":
            _, name, trace_id, parent, back, pairs = op
            at = None if back is None else self.now - back
            parent_span = None if parent is None else self.pick(parent)
            self.handles.append(
                trace.begin(name, trace_id, parent=parent_span, at=at, **dict(pairs))
            )
        elif kind == "record":
            _, name, trace_id, back, duration, pairs = op
            start = self.now - back
            self.handles.append(
                trace.record(name, trace_id, start, start + duration, **dict(pairs))
            )
        elif kind in ("finish", "trace_finish"):
            _, index, offset, pairs = op
            span = self.pick(index)
            if span is None:
                return None
            at = None if offset is None else span.start + offset
            if kind == "finish":
                span.finish(at=at, **dict(pairs))
            else:
                trace.finish(span, at=at, **dict(pairs))
        elif kind == "set":
            _, index, pairs = op
            if self.handles:
                self.pick(index).set(**dict(pairs))
        elif kind == "mutate":
            _, index, pairs = op
            if self.handles:
                self.pick(index).attrs.update(pairs)
        elif kind == "span":
            _, name, trace_id, parent, pairs, step = op
            parent_span = None if parent is None else self.pick(parent)
            with trace.span(name, trace_id, parent=parent_span, **dict(pairs)) as span:
                self.handles.append(span)
                self.now += step
        elif kind == "request":
            _, stages, tail, status = op
            trace_id = REQUEST_IDS + len(self.requests)
            root = trace.begin("request", trace_id)
            self.requests.append(root)
            self.handles.append(root)
            at = self.now
            for name, duration in stages:
                self.handles.append(trace.record(name, trace_id, at, at + duration))
                at += duration
            root.finish(at=at + tail, status=status)
        else:
            self.now += op[1]
        span = self.handles[-1] if self.handles else None
        return span and (span.finished, span.duration_s)


def breakdown(exporter, trace):
    try:
        report = exporter(trace)
    except ValueError:
        return "ValueError"
    if report is None:
        return None
    rows = [
        (s.stage, s.label, s.count, s.mean_ms, s.p90_ms, s.total_s, s.share)
        for s in report.stages + [report.end_to_end]
    ]
    return report.requests, report.to_dict(), rows


def grouped(by_trace):
    return {
        trace_id: [span.to_dict() for span in spans]
        for trace_id, spans in by_trace.items()
    }


def run_both(program):
    store, reference = Store(Trace), Store(reference_trace.Trace)
    for op in program:
        assert store.step(op) == reference.step(op), op
    return store, reference


@settings(max_examples=400, deadline=None)
@given(program=programs)
def test_matches_the_reference_store(program):
    store, reference = run_both(program)
    trace, expected = store.trace, reference.trace

    # The exports first: the queries below read ``attrs``, which creates
    # the empty dict of a span that has none.
    assert trace_to_json(trace) == reference_trace.trace_to_json(expected)
    assert trace_to_json(trace, indent=2) == reference_trace.trace_to_json(
        expected, indent=2
    )
    assert breakdown(reference_breakdown.stage_breakdown, trace) == breakdown(
        reference_trace.stage_breakdown, expected
    )
    assert len(trace) == len(expected)
    assert trace.trace_count == len(expected.by_trace())

    request_ids = range(REQUEST_IDS, REQUEST_IDS + len(store.requests))
    for trace_id in [*TRACE_IDS, *request_ids]:
        root, expected_root = trace.root(trace_id), expected.root(trace_id)
        assert (root and root.to_dict()) == (expected_root and expected_root.to_dict())
    # The root is the very handle that opened its trace.
    openers = {}
    for span in store.handles:
        openers.setdefault(span.trace_id, span)
    for trace_id, opener in openers.items():
        assert trace.root(trace_id) is opener
    assert grouped(trace.by_trace()) == grouped(expected.by_trace())
    for name in NAMES:
        assert [s.to_dict() for s in trace.find(name)] == [
            s.to_dict() for s in expected.find(name)
        ]
    for span, expected_span in zip(store.handles, reference.handles):
        assert [s.to_dict() for s in trace.children(span)] == [
            s.to_dict() for s in expected.children(expected_span)
        ]
        assert span == trace.spans[span.span_id]
        assert repr(span) == repr(expected_span)
    assert [s.to_dict() for s in trace.spans] == [s.to_dict() for s in expected.spans]


@settings(max_examples=200, deadline=None)
@given(program=st.lists(whole_requests, min_size=1, max_size=8))
def test_breakdown_of_whole_requests_matches(program):
    """Many stage spans per request, so a stage sum taken in another
    order than the reference's shows in ``other``."""
    store, reference = run_both(program)
    assert breakdown(stage_breakdown, store.trace) == breakdown(
        reference_trace.stage_breakdown, reference.trace
    )
