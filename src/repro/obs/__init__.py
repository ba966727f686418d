"""Run-wide observability: span tracing, metric registry, gauge sampling.

ETUDE's end-of-run aggregates say *that* a deployment missed its SLO;
this package says *why*. It provides (see ``docs/observability.md`` for
the operator's guide):

- :class:`~repro.obs.trace.Trace` / :class:`~repro.obs.trace.Span` — a
  lightweight span tracer over the simulator's virtual clock, following
  each request through ``sent → queued → batch_assembled → inference →
  http_respond`` with parent/child links and a shared ``batch_id``; it
  always keeps the compact stage log the breakdown reads, and the span
  rows only with ``keep_spans=True``;
- :class:`~repro.obs.registry.MetricRegistry` with Prometheus-style
  :class:`~repro.obs.registry.Counter`, :class:`~repro.obs.registry.Gauge`
  and :class:`~repro.obs.registry.Histogram` instruments;
- :class:`~repro.obs.sampler.Sampler` — periodic gauge snapshots (queue
  depth, active workers, in-flight requests, replica count) into time
  series, every virtual second;
- :class:`~repro.obs.telemetry.Telemetry` — the per-run bundle actors
  accept as an ``Optional`` handle (``None`` → zero overhead);
- exporters in :mod:`repro.obs.export` — JSON trace dump, per-stage
  latency breakdown table, ASCII gauge timeline.

Quick start::

    from repro.core import ExperimentRunner, ExperimentSpec
    from repro.obs import Telemetry
    from repro.obs.export import render_breakdown, stage_breakdown

    telemetry = Telemetry()
    result = ExperimentRunner().run(spec, telemetry=telemetry)
    print(render_breakdown(stage_breakdown(telemetry.trace)))
"""

from repro.obs.export import (
    BreakdownReport,
    StageStats,
    render_breakdown,
    render_timeline,
    stage_breakdown,
    trace_to_json,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricRegistry, metric_key
from repro.obs.sampler import Sampler
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Span, SpanRowsNotKept, Trace

__all__ = [
    "Span",
    "SpanRowsNotKept",
    "Trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "metric_key",
    "Sampler",
    "Telemetry",
    "BreakdownReport",
    "StageStats",
    "stage_breakdown",
    "render_breakdown",
    "render_timeline",
    "trace_to_json",
]
