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
from typing import Any, Dict, List, Optional

from repro.metrics.percentile import LatencyDigest
from repro.obs.sampler import Sampler
from repro.obs.trace import Trace

#: Stage spans in pipeline order, with display labels.
STAGE_ORDER = (
    "sent",
    "shard_fanout",
    "shard_merge",
    "queued",
    "batch_assembled",
    "inference",
    "http_respond",
)
STAGE_LABELS = {
    "sent": "network (send)",
    "shard_fanout": "shard fan-out",
    "shard_merge": "shard merge",
    "queued": "queue",
    "batch_assembled": "batch-linger",
    "inference": "inference",
    "http_respond": "http",
}
#: Root-span name marking one end-to-end request.
ROOT_SPAN = "request"
HTTP_OK = 200


def _jsonable(value: Any):
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return str(value)


def trace_to_json(trace: Trace, indent: Optional[int] = None) -> str:
    """Serialize every recorded span (open spans have ``end: null``)."""
    payload = {
        "span_count": len(trace.spans),
        "trace_count": len(trace.by_trace()),
        "spans": [span.to_dict() for span in trace.spans],
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
    """
    digests: Dict[str, LatencyDigest] = {name: LatencyDigest() for name in STAGE_ORDER}
    other = LatencyDigest()
    e2e = LatencyDigest()
    requests = 0

    for spans in trace.by_trace(root=ROOT_SPAN).values():
        root = spans[0]
        if not root.finished:
            continue
        if root.attrs.get("status", HTTP_OK) != HTTP_OK:
            continue
        requests += 1
        total = root.duration_s or 0.0
        e2e.record(total)
        covered = 0.0
        for span in spans[1:]:
            if span.name in digests and span.finished:
                duration = span.duration_s or 0.0
                digests[span.name].record(duration)
                covered += duration
        other.record(max(total - covered, 0.0))

    if requests == 0:
        return None

    total_e2e = e2e.mean() * len(e2e)
    stages = [
        _stats(name, STAGE_LABELS[name], digests[name], total_e2e)
        for name in STAGE_ORDER
        if len(digests[name])
    ]
    stages.append(_stats("other", "other (respond)", other, total_e2e))
    end_to_end = _stats("end_to_end", "end-to-end", e2e, total_e2e)
    return BreakdownReport(requests=requests, stages=stages, end_to_end=end_to_end)


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
