"""Measurement plumbing: percentile estimation, collection, result types."""

from repro.metrics.percentile import LatencyDigest, exact_percentile
from repro.metrics.collector import MetricsCollector, SecondBucket
from repro.metrics.results import LatencySeries, RunResult

__all__ = [
    "LatencyDigest",
    "exact_percentile",
    "MetricsCollector",
    "SecondBucket",
    "LatencySeries",
    "RunResult",
]
