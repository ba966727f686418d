"""The stage breakdown read from the stage log against the walk over rows.

``reference_breakdown.stage_breakdown`` is the breakdown as it was
before the stage log: a walk over a trace's rows. Random programs drive
one trace that keeps its rows and one that keeps only the log, in
lockstep: roots and stages on a few trace ids in any interleaving;
stages recorded after their root finished, as a hedged request's
original is; spans left open; roots without a status, with 200 and with
other statuses, set at ``begin`` or by a later ``set`` or ``finish``;
traces whose first span is not ``request``; one stage twice in a trace,
as a retry records it; zero and negative-zero durations; int and float
times. ``stage_breakdown`` on either trace must give what the walk gives
on the rows: the same request count and, value for value, the same
``repr`` of every ``to_dict()`` entry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import stage_breakdown
from repro.obs.trace import Trace
from tests.obs import reference_breakdown

NAMES = (
    "request", "request", "sent", "shard_fanout", "shard_merge", "queued",
    "batch_assembled", "inference", "http_respond", "cache_hit", "retry_backoff",
)
TRACE_IDS = range(-2, 4)
#: Trace id of the first whole request; each one gets the next.
REQUEST_IDS = 100

names = st.sampled_from(NAMES)
trace_ids = st.sampled_from(TRACE_IDS)
#: Clock steps and offsets: ints and floats, zeros of both signs.
steps = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
#: A finish offset from the clock; a negative one may close a span before
#: it opened, which both breakdowns reject.
offsets = st.one_of(steps, st.just(-1))
statuses = st.sampled_from([200, 200, 200.0, 503, 504, 0, "200"])
attr_pairs = st.lists(
    st.tuples(st.sampled_from(["status", "status", "batch_id"]), statuses),
    max_size=2,
)
#: Absolute times, so a span can end at -0.0 after starting at 0.0.
times = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 1.5])
handle = st.integers(min_value=0, max_value=63)

#: Durations whose float sums change with the order they are taken in:
#: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3).
uneven = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3, 1e-3 / 7])
#: A whole request on a fresh trace id: stage spans recorded in order,
#: each at its own offset, so they finish in another order; some stage
#: twice; the root ends after all of them plus a tail no stage covers.
whole_requests = st.tuples(
    st.just("request"),
    st.lists(st.tuples(names, uneven, uneven), max_size=6),
    uneven,
    st.none() | statuses,
)
ops = st.one_of(
    # begin(name, trace_id, at=now - back or None, **attrs)
    st.tuples(st.just("begin"), names, trace_ids, st.none() | steps, attr_pairs),
    # record(name, trace_id, now - back, now - back + duration, **attrs)
    st.tuples(st.just("record"), names, trace_ids, steps, steps, attr_pairs),
    # record(name, trace_id, start, end, **attrs) at absolute times
    st.tuples(st.just("record_at"), names, trace_ids, times, times, attr_pairs),
    # a stage of the last whole request, recorded after its root finished
    st.tuples(st.just("late"), names, steps),
    # handles[i].finish(at=now + offset or None, **attrs) / trace.finish(...)
    st.tuples(st.just("finish"), handle, st.none() | offsets, attr_pairs),
    st.tuples(st.just("trace_finish"), handle, st.none() | offsets, attr_pairs),
    st.tuples(st.just("finish_at"), handle, times, attr_pairs),
    st.tuples(st.just("set"), handle, attr_pairs),
    # with trace.span(...): the clock advances by a step inside the block
    st.tuples(st.just("span"), names, trace_ids, attr_pairs, steps),
    whole_requests,
    st.tuples(st.just("tick"), steps),
)
programs = st.lists(ops, max_size=50)


class Store:
    """One trace driven by a program, with the handles ``begin`` gave."""

    def __init__(self, keep_spans):
        self.now = 0
        self.trace = Trace(clock=lambda: self.now, keep_spans=keep_spans)
        self.handles = []
        self.requests = 0

    def step(self, op):
        kind = op[0]
        trace = self.trace
        if kind == "begin":
            _, name, trace_id, back, pairs = op
            at = None if back is None else self.now - back
            self.handles.append(trace.begin(name, trace_id, at=at, **dict(pairs)))
        elif kind == "record":
            _, name, trace_id, back, duration, pairs = op
            start = self.now - back
            trace.record(name, trace_id, start, start + duration, **dict(pairs))
        elif kind == "record_at":
            _, name, trace_id, start, end, pairs = op
            trace.record(name, trace_id, start, end, **dict(pairs))
        elif kind == "late":
            _, name, duration = op
            if self.requests:
                trace_id = REQUEST_IDS + self.requests - 1
                trace.record(name, trace_id, self.now, self.now + duration)
        elif kind in ("finish", "trace_finish", "finish_at", "set"):
            if not self.handles:
                return
            span = self.handles[op[1] % len(self.handles)]
            if kind == "set":
                span.set(**dict(op[2]))
                return
            _, _, offset, pairs = op
            if kind == "finish_at":
                span.finish(at=offset, **dict(pairs))
                return
            at = None if offset is None else self.now + offset
            if kind == "finish":
                span.finish(at=at, **dict(pairs))
            else:
                trace.finish(span, at=at, **dict(pairs))
        elif kind == "span":
            _, name, trace_id, pairs, step = op
            with trace.span(name, trace_id, **dict(pairs)) as span:
                self.handles.append(span)
                self.now += step
        elif kind == "request":
            _, stages, tail, status = op
            trace_id = REQUEST_IDS + self.requests
            self.requests += 1
            root = trace.begin("request", trace_id)
            self.handles.append(root)
            end = self.now
            for name, offset, duration in stages:
                start = self.now + offset
                trace.record(name, trace_id, start, start + duration)
                end += offset + duration
            if status is None:
                root.finish(at=end + tail)
            else:
                root.finish(at=end + tail, status=status)
        else:
            self.now += op[1]


def summary(exporter, trace):
    """The request count and the ``repr`` of every reported value."""
    try:
        report = exporter(trace)
    except ValueError:
        return "ValueError"
    if report is None:
        return None
    return report.requests, {
        stage: {key: repr(value) for key, value in stats.items()}
        for stage, stats in report.to_dict().items()
    }


def run_both(program):
    rows, log = Store(keep_spans=True), Store(keep_spans=False)
    for op in program:
        rows.step(op)
        log.step(op)
    return rows.trace, log.trace


@settings(max_examples=300, deadline=None)
@given(program=programs)
def test_log_breakdown_matches_the_row_walk(program):
    rows, log = run_both(program)
    expected = summary(reference_breakdown.stage_breakdown, rows)
    assert summary(stage_breakdown, rows) == expected
    assert summary(stage_breakdown, log) == expected
    assert len(log) == len(rows)
    assert log.trace_count == rows.trace_count
    # Bit for bit: an open end is a NaN, and a zero keeps its sign.
    for column in ("ordinals", "codes", "starts", "ends", "ok"):
        kept = getattr(rows.stage_log, column)
        assert getattr(log.stage_log, column).tobytes() == kept.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    program=st.lists(
        st.one_of(whole_requests, st.tuples(st.just("late"), names, uneven)),
        min_size=2,
        max_size=12,
    )
)
def test_sums_keep_the_row_walk_order(program):
    """Many requests with stages that finish out of order: a breakdown
    that sums in another order than the walk over rows shows in a last
    digit of ``other`` or of a mean."""
    rows, log = run_both(program)
    expected = summary(reference_breakdown.stage_breakdown, rows)
    assert summary(stage_breakdown, log) == expected
