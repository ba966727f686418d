"""What one closed span costs the span store.

A traced run records about 24 spans per request, so the store's cost per
span decides whether a long traced run fits in memory and how much of it
cyclic GC walks. Each test records 10,000 closed spans without attributes
under one root. Every span shares the same two time objects, so only the
store's own allocations count. A store that keeps one object and one
attrs dict per span measures 1.0 GC-tracked object and about 200 bytes
per span; the columnar store appends to six lists (about 51 bytes).
"""

import gc
import tracemalloc

from repro.obs.trace import Trace

SPANS = 10_000
START, END = 1.0, 1.5


def record_closed_spans(trace):
    for _ in range(SPANS):
        trace.record("sent", 0, START, END)


def rooted_trace():
    trace = Trace()
    trace.begin("request", 0, at=START)
    return trace


def test_closed_spans_add_no_gc_tracked_objects():
    trace = rooted_trace()
    gc.collect()
    before = len(gc.get_objects())
    record_closed_spans(trace)
    grown = len(gc.get_objects()) - before
    assert len(trace) == SPANS + 1
    assert grown / SPANS < 0.01


def test_closed_span_without_attrs_stays_under_100_bytes():
    trace = rooted_trace()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record_closed_spans(trace)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == SPANS + 1
    assert grown / SPANS < 100
