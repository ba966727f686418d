"""Span recording: nesting, ordering, and virtual-clock timestamps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Span, SpanRowsNotKept, Trace
from repro.obs.export import trace_to_json
from repro.simulation import Simulator


class TestNesting:
    def test_first_span_becomes_root(self):
        trace = Trace()
        root = trace.begin("request", trace_id=7)
        assert trace.root(7) is root
        assert root.parent_id is None

    def test_children_auto_parent_to_root(self):
        trace = Trace()
        root = trace.begin("request", trace_id=7)
        queued = trace.begin("queued", trace_id=7)
        inference = trace.begin("inference", trace_id=7)
        assert queued.parent_id == root.span_id
        assert inference.parent_id == root.span_id
        assert [s.name for s in trace.children(root)] == ["queued", "inference"]

    def test_explicit_parent_overrides_root(self):
        trace = Trace()
        trace.begin("request", trace_id=7)
        outer = trace.begin("inference", trace_id=7)
        inner = trace.begin("kernel", trace_id=7, parent=outer)
        assert inner.parent_id == outer.span_id

    def test_traces_are_independent(self):
        trace = Trace()
        a = trace.begin("request", trace_id=1)
        b = trace.begin("request", trace_id=2)
        child = trace.begin("queued", trace_id=2)
        assert child.parent_id == b.span_id
        assert trace.root(1) is a
        assert len(trace.by_trace()) == 2


class TestVirtualClock:
    def test_timestamps_follow_simulator_clock(self):
        sim = Simulator()
        trace = Trace(clock=lambda: sim.now)
        spans = {}

        def process():
            spans["root"] = trace.begin("request", trace_id=0)
            spans["queued"] = trace.begin("queued", trace_id=0)
            yield 0.25
            trace.finish(spans["queued"])
            yield 0.5
            trace.finish(spans["root"])

        sim.spawn(process())
        sim.run()
        assert spans["queued"].start == pytest.approx(0.0)
        assert spans["queued"].end == pytest.approx(0.25)
        assert spans["queued"].duration_s == pytest.approx(0.25)
        assert spans["root"].end == pytest.approx(0.75)

    def test_span_finish_without_trace_uses_bound_clock(self):
        """Span.finish() called directly (no Trace.finish) still stamps
        the virtual clock it was created under."""
        sim = Simulator()
        trace = Trace(clock=lambda: sim.now)
        span = trace.begin("queued", trace_id=0)

        def process():
            yield 1.5
            span.finish()

        sim.spawn(process())
        sim.run()
        assert span.end == pytest.approx(1.5)

    def test_ordering_matches_event_order(self):
        """Spans recorded by interleaved processes appear in event order."""
        sim = Simulator()
        trace = Trace(clock=lambda: sim.now)

        def worker(trace_id, delay):
            yield delay
            with trace.span("inference", trace_id=trace_id):
                yield 0.01

        sim.spawn(worker(1, 0.3))
        sim.spawn(worker(2, 0.1))
        sim.spawn(worker(3, 0.2))
        sim.run()
        starts = [s.start for s in trace.find("inference")]
        assert starts == sorted(starts)
        assert [s.trace_id for s in trace.find("inference")] == [2, 3, 1]

    def test_backdating_with_at(self):
        sim = Simulator()
        trace = Trace(clock=lambda: sim.now)

        def process():
            yield 2.0
            # One combined event split into two adjacent spans after the fact.
            span = trace.begin("inference", trace_id=0, at=1.0)
            span.finish(at=1.5)
            yield 0.0

        sim.spawn(process())
        sim.run()
        (span,) = trace.find("inference")
        assert (span.start, span.end) == (1.0, 1.5)


class TestLifecycle:
    def test_finish_is_idempotent(self):
        trace = Trace()
        span = trace.begin("queued", trace_id=0)
        span.finish(at=1.0)
        span.finish(at=9.0)
        assert span.end == 1.0

    def test_finish_merges_attributes(self):
        trace = Trace()
        span = trace.begin("request", trace_id=0, session_id=4)
        span.finish(at=1.0, status=200, batch_size=3)
        assert span.attrs == {"session_id": 4, "status": 200, "batch_size": 3}

    def test_context_manager_closes_on_exit(self):
        trace = Trace()
        with trace.span("inference", trace_id=0, batch_id=2) as span:
            assert not span.finished
        assert span.finished
        assert span.attrs["batch_id"] == 2

    def test_open_span_has_no_duration(self):
        trace = Trace()
        span = trace.begin("queued", trace_id=0)
        assert span.duration_s is None
        assert not span.finished

    def test_to_dict_round_trip_fields(self):
        trace = Trace()
        span = trace.begin("inference", trace_id=3, batch_id=1)
        span.finish(at=0.5)
        payload = span.to_dict()
        assert payload["name"] == "inference"
        assert payload["trace_id"] == 3
        assert payload["attrs"] == {"batch_id": 1}
        assert payload["end"] == 0.5


#: One recording step: a closed span (``record`` against begin + finish)
#: or an open one, on one of a few traces, with attrs in drawn order.
_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_steps = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(["request", "sent", "inference", "cache_hit"]),
        st.integers(min_value=-2, max_value=3),
        _times,
        _times,
        st.lists(
            st.tuples(st.sampled_from(["tier", "batch_id", "batch_size", "x"]),
                      st.integers(0, 9)),
            max_size=4,
        ),
    ),
    max_size=30,
)


class TestRecord:
    """``record`` is ``begin(at=start).finish(at=end, **attrs)`` in one call."""

    @settings(max_examples=200, deadline=None)
    @given(steps=_steps)
    def test_matches_begin_then_finish(self, steps):
        recorded, reference = Trace(), Trace()
        for closed, name, trace_id, start, end, pairs in steps:
            attrs = dict(pairs)
            if closed:
                span = recorded.record(name, trace_id, start, end, **attrs)
                expected = reference.begin(name, trace_id, at=start).finish(
                    at=end, **attrs
                )
                assert span.duration_s == expected.duration_s
            else:
                recorded.begin(name, trace_id, at=start, **attrs)
                reference.begin(name, trace_id, at=start, **attrs)
        assert [s.to_dict() for s in recorded.spans] == [
            s.to_dict() for s in reference.spans
        ]
        assert [list(s.attrs) for s in recorded.spans] == [
            list(s.attrs) for s in reference.spans
        ]
        for trace_id in range(-2, 4):
            root, expected = recorded.root(trace_id), reference.root(trace_id)
            assert (root and root.span_id) == (expected and expected.span_id)

    def test_first_span_of_a_trace_is_its_root(self):
        trace = Trace()
        sent = trace.record("sent", -5, 1.0, 1.25, tier="local")
        merge = trace.record("shard_merge", -5, 1.25, 1.5)
        assert trace.root(-5) is sent and sent.parent_id is None
        assert merge.parent_id == sent.span_id
        assert (sent.finished, sent.duration_s) == (True, 0.25)
        assert trace.begin("later", -5).parent_id == sent.span_id


class TestWithoutRows:
    """``keep_spans=False`` keeps the stage log, the count and nothing else."""

    def record_request(self):
        trace = Trace(keep_spans=False)
        root = trace.begin("request", 7, at=0.0)
        assert trace.record("sent", 7, 0.0, 0.25, tier="local") is None
        assert trace.begin("cache_hit", 7, at=0.25) is trace.begin("kernel", -1)
        trace.finish(root.set(status=503), at=0.5, status=200)
        return trace

    def test_counts_every_span_and_logs_the_stages(self):
        trace = self.record_request()
        assert (len(trace), trace.trace_count, len(trace.stage_log)) == (4, 2, 2)
        log = trace.stage_log
        assert list(log.ends) == [0.5, 0.25] and list(log.ok) == [1]

    @pytest.mark.parametrize(
        "query",
        [
            lambda trace: trace.spans,
            lambda trace: trace.by_trace(),
            lambda trace: trace.rows_by_trace(),
            lambda trace: trace.find("sent"),
            lambda trace: trace.root(7),
            lambda trace: trace.names,
            lambda trace: trace.attrs,
            trace_to_json,
        ],
    )
    def test_row_queries_say_how_to_keep_rows(self, query):
        with pytest.raises(SpanRowsNotKept, match="keep_spans=True"):
            query(self.record_request())
