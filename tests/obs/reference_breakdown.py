"""The stage breakdown as it was before the stage log: a walk over rows.

``stage_breakdown`` below is the columnar store's breakdown before it
read the trace's stage log, kept verbatim but for one line: it selected
the request traces with ``trace.rows_by_trace(root=ROOT_SPAN)``, a
parameter since removed, and now calls :func:`request_rows`, which
returns the same mapping. ``test_stage_log_differential.py`` checks the
log-based breakdown against it. It needs a trace built with
``keep_spans=True``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.percentile import LatencyDigest
from repro.obs.export import STAGE_LABELS, BreakdownReport
from repro.obs.trace import HTTP_OK, ROOT_SPAN, STAGE_ORDER, Trace
from tests.obs.reference_trace import _stats


def request_rows(trace: Trace) -> Dict[int, List[int]]:
    """Span ids grouped by trace, for the traces whose root span is
    named ``request``: traces in the order their roots were recorded,
    rows in recording order."""
    names = trace.names
    return {
        trace_id: rows
        for trace_id, rows in trace.rows_by_trace().items()
        if names[rows[0]] == ROOT_SPAN
    }


def stage_breakdown(trace: Trace) -> Optional[BreakdownReport]:
    """Attribute each successful request's latency to pipeline stages.

    Considers traces whose root span is named ``request``, finished, and
    carries ``status == 200``. Stage spans are matched by name; whatever
    part of the end-to-end time no stage span covers (in practice the
    response-direction network hop) is reported as ``other``. By
    construction the stage rows plus ``other`` sum to exactly the
    end-to-end total.
    """
    names, starts, ends, attrs = trace.names, trace.starts, trace.ends, trace.attrs
    durations: Dict[str, List[float]] = {name: [] for name in STAGE_ORDER}
    other: List[float] = []
    e2e: List[float] = []

    for rows in request_rows(trace).values():
        root = rows[0]
        if ends[root] is None:
            continue
        root_attrs = attrs[root]
        if root_attrs is not None and root_attrs.get("status", HTTP_OK) != HTTP_OK:
            continue
        total = (ends[root] - starts[root]) or 0.0
        e2e.append(total)
        covered = 0.0
        for row in rows[1:]:
            stage = durations.get(names[row])
            if stage is not None and ends[row] is not None:
                duration = (ends[row] - starts[row]) or 0.0
                stage.append(duration)
                covered += duration
        other.append(max(total - covered, 0.0))

    if not e2e:
        return None

    e2e_digest = LatencyDigest.from_values(e2e)
    total_e2e = e2e_digest.mean() * len(e2e_digest)
    stages = [
        _stats(
            name, STAGE_LABELS[name], LatencyDigest.from_values(durations[name]),
            total_e2e,
        )
        for name in STAGE_ORDER
        if durations[name]
    ]
    stages.append(
        _stats("other", "other (respond)", LatencyDigest.from_values(other), total_e2e)
    )
    end_to_end = _stats("end_to_end", "end-to-end", e2e_digest, total_e2e)
    return BreakdownReport(requests=len(e2e), stages=stages, end_to_end=end_to_end)
