"""What one closed span costs the span store.

A traced run records about 24 spans per request, so the store's cost per
span decides whether a long traced run fits in memory and how much of it
cyclic GC walks. Each test records 10,000 closed spans without attributes
on one trace. Every span shares the same two time objects, so only the
store's own allocations count.

- With rows (``keep_spans=True``), a span appends to six lists, to the
  row-to-log column and, under a request root, to the stage log. A store
  that kept one object and one attrs dict per span measured 1.0
  GC-tracked object and about 200 bytes per span.
- Without rows (``keep_spans=False``), a span under a request root is one
  stage-log entry of 25 bytes in typed arrays; a span of a trace whose
  first span is not ``request`` is only counted.
"""

import gc
import tracemalloc

from repro.obs.trace import Trace

SPANS = 10_000
START, END = 1.0, 1.5


def record_closed_spans(trace):
    for _ in range(SPANS):
        trace.record("sent", 0, START, END)


def rooted_trace(keep_spans=True):
    trace = Trace(keep_spans=keep_spans)
    trace.begin("request", 0, at=START)
    return trace


def gc_tracked_growth(trace):
    """GC-tracked objects added per span by recording the spans."""
    gc.collect()
    before = len(gc.get_objects())
    record_closed_spans(trace)
    return (len(gc.get_objects()) - before) / SPANS


def bytes_per_span(trace):
    """Bytes the store grows by per span recorded."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record_closed_spans(trace)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / SPANS


def test_closed_spans_add_no_gc_tracked_objects():
    trace = rooted_trace()
    assert gc_tracked_growth(trace) < 0.01
    assert len(trace) == SPANS + 1


def test_closed_span_without_attrs_stays_under_100_bytes():
    trace = rooted_trace()
    assert bytes_per_span(trace) < 100
    assert len(trace) == SPANS + 1


def test_logged_spans_add_no_gc_tracked_objects():
    trace = rooted_trace(keep_spans=False)
    assert gc_tracked_growth(trace) == 0
    assert len(trace) == len(trace.stage_log) == SPANS + 1


def test_logged_span_stays_under_40_bytes():
    trace = rooted_trace(keep_spans=False)
    assert bytes_per_span(trace) < 40
    assert len(trace) == len(trace.stage_log) == SPANS + 1


def test_span_of_a_non_request_trace_stays_under_1_byte():
    trace = Trace(keep_spans=False)
    assert bytes_per_span(trace) < 1
    assert len(trace) == SPANS and len(trace.stage_log) == 0
