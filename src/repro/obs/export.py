"""Exporters: JSON trace dumps, stage breakdown tables, ASCII timelines.

Three views over one run's telemetry:

- :func:`trace_to_json` — the raw span list, for offline analysis;
- :func:`stage_breakdown` / :func:`render_breakdown` — per-stage latency
  attribution (network send / queue / batch-linger / inference / http)
  over all successful requests, the table the paper-style deep dives
  need to pin a p90 regression on one stage;
- :func:`render_timeline` — gauge time series (queue depth, active
  workers, pending requests, replica count) as sparklines via
  :mod:`repro.core.ascii_plot`.

All durations are converted to **milliseconds** for display; the
underlying spans and series stay in virtual-time seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from math import isnan
from typing import Any, Dict, List, Optional

from repro.metrics.percentile import LatencyDigest
from repro.obs.sampler import Sampler
from repro.obs.trace import STAGE_ORDER, Trace

#: Display label of each stage span.
STAGE_LABELS = {
    "sent": "network (send)",
    "shard_fanout": "shard fan-out",
    "shard_merge": "shard merge",
    "queued": "queue",
    "batch_assembled": "batch-linger",
    "inference": "inference",
    "http_respond": "http",
}


def _jsonable(value: Any):
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return str(value)


def trace_to_json(trace: Trace, indent: Optional[int] = None) -> str:
    """Serialize every recorded span (open spans have ``end: null``).

    Needs the span rows: the trace must be built with ``keep_spans=True``.
    """
    rows = zip(
        trace.names, trace.trace_ids, trace.parent_ids,
        trace.starts, trace.ends, trace.attrs,
    )
    spans = [
        {
            "name": name,
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "start": start,
            "end": end,
            "attrs": {} if attrs is None else attrs,
        }
        for span_id, (name, trace_id, parent_id, start, end, attrs) in enumerate(rows)
    ]
    payload = {
        "span_count": len(trace),
        "trace_count": trace.trace_count,
        "spans": spans,
    }
    return json.dumps(payload, indent=indent, default=_jsonable)


@dataclass
class StageStats:
    """Aggregated timing of one pipeline stage across requests."""

    stage: str
    label: str
    count: int
    mean_ms: float
    p90_ms: float
    total_s: float
    #: Fraction of summed end-to-end time spent in this stage.
    share: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p90_ms": self.p90_ms,
            "share": self.share,
        }


@dataclass
class BreakdownReport:
    """Per-stage latency attribution over the successful requests."""

    requests: int
    stages: List[StageStats]
    end_to_end: StageStats

    def stage(self, name: str) -> Optional[StageStats]:
        for stats in self.stages:
            if stats.stage == name:
                return stats
        return None

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        report = {s.stage: s.to_dict() for s in self.stages}
        report["end_to_end"] = self.end_to_end.to_dict()
        return report


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

    Reads only the trace's stage log, so it works whether or not the
    trace keeps span rows. The log is grouped by trace, the traces in the
    order their roots were recorded and each trace's spans in recording
    order, so every sum is taken in that order.
    """
    log = trace.stage_log
    ordinals, codes, starts, ends = log.ordinals, log.codes, log.starts, log.ends
    durations: List[List[float]] = [[] for _ in STAGE_ORDER]
    other: List[float] = []
    e2e: List[float] = []

    # A stable sort: each trace's entries keep their log order, and a
    # trace's root comes first because it opened the trace.
    by_trace = sorted(range(len(codes)), key=ordinals.__getitem__)
    for ordinal, entries in groupby(by_trace, key=ordinals.__getitem__):
        root = next(entries)
        if isnan(ends[root]) or not log.ok[ordinal]:
            continue
        total = (ends[root] - starts[root]) or 0.0
        e2e.append(total)
        covered = 0.0
        for entry in entries:
            if not isnan(ends[entry]):
                duration = (ends[entry] - starts[entry]) or 0.0
                durations[codes[entry] - 1].append(duration)
                covered += duration
        other.append(max(total - covered, 0.0))

    if not e2e:
        return None

    e2e_digest = LatencyDigest.from_values(e2e)
    total_e2e = e2e_digest.mean() * len(e2e_digest)
    stages = [
        _stats(name, STAGE_LABELS[name], LatencyDigest.from_values(values), total_e2e)
        for name, values in zip(STAGE_ORDER, durations)
        if values
    ]
    stages.append(
        _stats("other", "other (respond)", LatencyDigest.from_values(other), total_e2e)
    )
    end_to_end = _stats("end_to_end", "end-to-end", e2e_digest, total_e2e)
    return BreakdownReport(requests=len(e2e), stages=stages, end_to_end=end_to_end)


def render_breakdown(report: Optional[BreakdownReport]) -> str:
    """The per-stage breakdown as an aligned text table."""
    if report is None:
        return "(no finished request traces)"
    lines = [
        f"per-stage latency breakdown ({report.requests} ok requests)",
        f"{'stage':<16} {'count':>8} {'mean ms':>9} {'p90 ms':>9} {'share':>7}",
    ]
    for stats in report.stages + [report.end_to_end]:
        lines.append(
            f"{stats.label:<16} {stats.count:>8} {stats.mean_ms:>9.3f} "
            f"{stats.p90_ms:>9.3f} {stats.share * 100.0:>6.1f}%"
        )
    return "\n".join(lines)


def _downsample(values: List[float], width: int) -> List[float]:
    if len(values) <= width:
        return values
    out = []
    for index in range(width):
        lo = index * len(values) // width
        hi = max((index + 1) * len(values) // width, lo + 1)
        chunk = values[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def render_timeline(sampler: Optional[Sampler], width: int = 64) -> str:
    """Every sampled gauge as a labelled sparkline over virtual time."""
    # Imported lazily: repro.core pulls in the experiment stack, which in
    # turn may reference telemetry types from this package.
    from repro.core.ascii_plot import sparkline

    if sampler is None or not sampler.series:
        return "(no sampled series)"
    times = sampler.timestamps()
    lines = [
        f"gauge timeline ({sampler.ticks} samples, "
        f"t={times[0]:.0f}..{times[-1]:.0f}s, every {sampler.interval_s:g}s)"
    ]
    label_width = min(max(len(k) for k in sampler.series), 40)
    for key in sorted(sampler.series):
        values = [v for _, v in sampler.series[key]]
        spark = sparkline(_downsample(values, width))
        lines.append(
            f"{key[:label_width]:<{label_width}} |{spark}| "
            f"min={min(values):g} max={max(values):g}"
        )
    return "\n".join(lines)
