"""The metrics collector as it was before the columnar run record.

Kept verbatim as the reference that ``test_collector_differential.py``
checks the production collector against, bit for bit:
``MetricsCollector`` and ``SecondBucket``, which feed up to five digests
per OK response, and the ``LatencyDigest`` they feed, which bins with
``math.log10``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.serving.request import RecommendationResponse


class LatencyDigest:
    """Log-spaced latency histogram with percentile queries and merging."""

    MIN_LATENCY = 1e-5
    MAX_LATENCY = 1e3

    def __init__(self, bins_per_decade: int = 50):
        self.bins_per_decade = bins_per_decade
        decades = math.log10(self.MAX_LATENCY / self.MIN_LATENCY)
        self._num_bins = int(decades * bins_per_decade) + 2
        self._counts = np.zeros(self._num_bins, dtype=np.int64)
        self._total = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    # -- recording ------------------------------------------------------------

    def _bin_index(self, latency: float) -> int:
        clamped = min(max(latency, self.MIN_LATENCY), self.MAX_LATENCY)
        position = math.log10(clamped / self.MIN_LATENCY) * self.bins_per_decade
        return min(int(position) + 1, self._num_bins - 1)

    def record(self, latency_s: float) -> None:
        if not math.isfinite(latency_s) or latency_s < 0.0:
            raise ValueError(
                f"latency must be finite and non-negative, got {latency_s!r}"
            )
        self._counts[self._bin_index(latency_s)] += 1
        self._total += 1
        self._sum += latency_s
        self._min = min(self._min, latency_s)
        self._max = max(self._max, latency_s)

    def record_many(self, latencies: Iterable[float]) -> None:
        for latency in latencies:
            self.record(latency)

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._total

    @property
    def count(self) -> int:
        return self._total

    def mean(self) -> float:
        if self._total == 0:
            raise ValueError("empty digest")
        return self._sum / self._total

    def min(self) -> float:
        if self._total == 0:
            raise ValueError("empty digest")
        return self._min

    def max(self) -> float:
        return self._max

    def percentile(self, q: float) -> float:
        """Latency at percentile ``q``.

        Returns the upper edge of the matched histogram bin, clamped into
        the observed ``[min, max]`` envelope; ``q=0`` is the tracked exact
        minimum (symmetric to ``q=100`` clamping to the tracked maximum).
        """
        if self._total == 0:
            raise ValueError("empty digest")
        if not 0 <= q <= 100:
            raise ValueError("q must be within [0, 100]")
        if q == 0:
            return self._min
        target = q / 100.0 * self._total
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, max(target, 1), side="left"))
        # Upper bin edge back in seconds, clamped to the observed envelope.
        exponent = index / self.bins_per_decade
        edge = self.MIN_LATENCY * 10**exponent
        return min(max(edge, self._min), self._max)

    def merge(self, other: "LatencyDigest") -> "LatencyDigest":
        if other.bins_per_decade != self.bins_per_decade:
            raise ValueError("cannot merge digests with different resolutions")
        merged = LatencyDigest(self.bins_per_decade)
        merged._counts = self._counts + other._counts
        merged._total = self._total + other._total
        merged._sum = self._sum + other._sum
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged


@dataclass
class SecondBucket:
    """Aggregates for requests sent within one one-second tick."""

    second: int
    sent: int = 0
    ok: int = 0
    errors: int = 0
    digest: LatencyDigest = field(default_factory=LatencyDigest)
    batch_sizes: List[int] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        total = self.ok + self.errors
        return self.errors / total if total else 0.0

    def p90_ms(self) -> Optional[float]:
        if len(self.digest) == 0:
            return None
        return self.digest.percentile(90) * 1000.0


class MetricsCollector:
    """Accumulates responses during one benchmark run."""

    def __init__(self):
        self._buckets: Dict[int, SecondBucket] = {}
        self.overall = LatencyDigest()
        self.inference = LatencyDigest()
        self.ok = 0
        self.errors = 0
        #: Quality split of the OK responses: full-quality model answers vs
        #: degraded fallback answers (``response.degraded``). ``ok`` is the
        #: sum of both; without a fallback tier ``degraded`` stays 0 and
        #: ``full_overall`` mirrors ``overall``.
        self.degraded = 0
        self.full_overall = LatencyDigest()
        self.degraded_overall = LatencyDigest()
        #: Cache split of the OK responses (``response.cache_hit``):
        #: answers served from the result cache (tier hits + coalesced
        #: followers) vs answers that ran an inference. Without a cache
        #: ``cache_hits`` stays 0 and ``miss_overall`` mirrors ``overall``.
        self.cache_hits = 0
        self.hit_overall = LatencyDigest()
        self.miss_overall = LatencyDigest()
        self.first_sent_at: Optional[float] = None
        self.last_completed_at: float = 0.0
        self.last_ok_completed_at: float = 0.0

    def _bucket(self, second: int) -> SecondBucket:
        if second not in self._buckets:
            self._buckets[second] = SecondBucket(second=second)
        return self._buckets[second]

    def note_sent(self, sent_at: float) -> None:
        if self.first_sent_at is None:
            self.first_sent_at = sent_at
        self._bucket(int(sent_at)).sent += 1

    def record(self, sent_at: float, response: RecommendationResponse) -> None:
        bucket = self._bucket(int(sent_at))
        self.last_completed_at = max(self.last_completed_at, response.completed_at)
        if response.ok:
            bucket.ok += 1
            self.last_ok_completed_at = max(
                self.last_ok_completed_at, response.completed_at
            )
            bucket.digest.record(response.latency_s)
            bucket.batch_sizes.append(response.batch_size)
            self.ok += 1
            self.overall.record(response.latency_s)
            if response.degraded:
                self.degraded += 1
                self.degraded_overall.record(response.latency_s)
            else:
                self.full_overall.record(response.latency_s)
            if response.cache_hit:
                self.cache_hits += 1
                self.hit_overall.record(response.latency_s)
            else:
                self.miss_overall.record(response.latency_s)
            if response.inference_s > 0:
                self.inference.record(response.inference_s)
        else:
            bucket.errors += 1
            self.errors += 1

    # -- summaries -----------------------------------------------------------

    def buckets(self) -> List[SecondBucket]:
        return [self._buckets[key] for key in sorted(self._buckets)]

    @property
    def total(self) -> int:
        return self.ok + self.errors

    def percentile_ms(self, q: float) -> float:
        return self.overall.percentile(q) * 1000.0

    @property
    def degraded_fraction(self) -> float:
        """Share of OK responses answered by the degraded fallback tier."""
        return self.degraded / self.ok if self.ok else 0.0

    def percentile_full_ms(self, q: float) -> Optional[float]:
        """Latency percentile of full-quality 200s (None if there were none)."""
        if len(self.full_overall) == 0:
            return None
        return self.full_overall.percentile(q) * 1000.0

    def percentile_degraded_ms(self, q: float) -> Optional[float]:
        """Latency percentile of degraded 200s (None if there were none)."""
        if len(self.degraded_overall) == 0:
            return None
        return self.degraded_overall.percentile(q) * 1000.0

    @property
    def cache_hit_fraction(self) -> float:
        """Share of OK responses answered by the result cache."""
        return self.cache_hits / self.ok if self.ok else 0.0

    def percentile_hit_ms(self, q: float) -> Optional[float]:
        """Latency percentile of cache-served 200s (None if there were none)."""
        if len(self.hit_overall) == 0:
            return None
        return self.hit_overall.percentile(q) * 1000.0

    def percentile_miss_ms(self, q: float) -> Optional[float]:
        """Latency percentile of inference-served 200s (None if none)."""
        if len(self.miss_overall) == 0:
            return None
        return self.miss_overall.percentile(q) * 1000.0

    def achieved_throughput(self) -> float:
        """Successful responses per second over the *successful* window.

        The window ends at the last **ok** completion, not the last
        completion overall: a trailing burst of errors (e.g. timeouts
        firing after the last success) used to stretch the denominator and
        deflate the reported rate. Error-only runs report 0 — use
        :meth:`total_response_rate` for the rate including errors.
        """
        if self.first_sent_at is None or self.ok == 0:
            return 0.0
        window = max(self.last_ok_completed_at - self.first_sent_at, 1e-9)
        return self.ok / window

    def total_response_rate(self) -> float:
        """All responses (ok + errors) per second over the full window.

        Unlike :meth:`achieved_throughput` this stays meaningful on
        error-only runs, where it shows how fast the deployment was
        answering even though every answer was an error.
        """
        if self.first_sent_at is None or self.total == 0:
            return 0.0
        window = max(self.last_completed_at - self.first_sent_at, 1e-9)
        return self.total / window
