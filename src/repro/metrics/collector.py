"""Collecting per-response measurements during a load test.

The collector buckets responses by the (virtual) second in which their
request was *sent*, which is what the paper's ramp-up plots need: the x-axis
of Figure 2 / Figure 4 is the offered load at send time, the y-axis the
latency distribution of requests sent in that window.

Units (see ``docs/observability.md`` for the repo-wide conventions):
every timestamp (``sent_at``, ``completed_at``) and every stored duration
(``latency_s``, ``inference_s``, the :class:`LatencyDigest` contents) is in
**virtual-time seconds** read from the simulator clock — never wall time.
Milliseconds appear only at the reporting edge: methods with an ``_ms``
suffix (``percentile_ms``, ``p90_ms``) multiply by 1000 on the way out.
Throughput numbers are responses per virtual second.

Recording is append-only and columnar: one row per response (send
second, flags) plus latency, inference time and batch size for every OK
one, in typed :mod:`array` columns. Every summary (the overall digest,
the full/degraded and hit/miss splits, inference, the per-second
buckets) is derived from the columns when first asked for, binned in
bulk by :meth:`LatencyDigest.from_values` into exactly the digests that
recording each response one by one would have built.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.metrics.percentile import LatencyDigest
from repro.serving.request import RecommendationResponse

#: Row flags.
_OK = 1
_DEGRADED = 2
_CACHE_HIT = 4


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


def _summary(name: str, doc: str) -> property:
    return property(lambda collector: collector._digest(name), doc=doc)


class MetricsCollector:
    """Accumulates responses during one benchmark run.

    The digests (``overall``, ``inference``, the quality split
    ``full_overall``/``degraded_overall`` and the cache split
    ``hit_overall``/``miss_overall``) are read-only summaries. A split
    that mirrors ``overall`` (no degraded answers, no cache hits) is
    ``overall`` itself.
    """

    def __init__(self):
        # Send seconds and batch sizes stay far below 2**31: C ints.
        #: Per response, in record order.
        self._second = array("i")
        self._flags = array("B")
        #: Per OK response, in record order.
        self._latency = array("d")
        self._inference = array("d")
        self._batch = array("i")
        self._sent: Dict[int, int] = {}
        self._digests: Tuple[int, Dict[str, LatencyDigest]] = (-1, {})
        self.first_sent_at: Optional[float] = None
        self.last_completed_at: float = 0.0
        self.last_ok_completed_at: float = 0.0

    def note_sent(self, sent_at: float) -> None:
        if self.first_sent_at is None:
            self.first_sent_at = sent_at
        second = int(sent_at)
        self._sent[second] = self._sent.get(second, 0) + 1

    def record(self, sent_at: float, response: RecommendationResponse) -> None:
        second = int(sent_at)
        completed_at = response.completed_at
        if response.ok:
            latency = response.latency_s
            inference = response.inference_s
            # Validate before any state changes, so that a rejected
            # response leaves every count, bucket and timestamp as it was.
            if not 0.0 <= latency < math.inf:
                raise ValueError(
                    f"latency must be finite and non-negative, got {latency!r}"
                )
            if inference == math.inf:
                raise ValueError(f"inference_s must be finite, got {inference!r}")
            flags = _OK
            if response.degraded:
                flags |= _DEGRADED
            if response.cache_hit:
                flags |= _CACHE_HIT
            self._second.append(second)
            self._flags.append(flags)
            self._latency.append(latency)
            self._inference.append(inference)
            self._batch.append(response.batch_size)
            if completed_at > self.last_ok_completed_at:
                self.last_ok_completed_at = completed_at
        else:
            self._second.append(second)
            self._flags.append(0)
        if completed_at > self.last_completed_at:
            self.last_completed_at = completed_at

    # -- summaries -----------------------------------------------------------

    def _digest(self, name: str) -> LatencyDigest:
        """One of the summary digests, derived from the columns the first
        time one is asked for after new rows arrived."""
        rows, digests = self._digests
        if rows != len(self._flags):
            flags = np.frombuffer(self._flags, dtype=np.uint8)
            ok_flags = flags[(flags & _OK) != 0]
            latency = np.frombuffer(self._latency, dtype=np.float64)
            inference = np.frombuffer(self._inference, dtype=np.float64)
            overall = LatencyDigest.from_values(latency)
            digests = {
                "overall": overall,
                # Only answers that ran an inference report its time.
                "inference": LatencyDigest.from_values(inference[inference > 0.0]),
            }
            for flag, flagged, unflagged in (
                (_DEGRADED, "degraded", "full"),
                (_CACHE_HIT, "hit", "miss"),
            ):
                mask = (ok_flags & flag) != 0
                if mask.any():
                    digests[flagged] = LatencyDigest.from_values(latency[mask])
                    digests[unflagged] = LatencyDigest.from_values(latency[~mask])
                else:
                    digests[flagged] = LatencyDigest()
                    digests[unflagged] = overall
            self._digests = (len(self._flags), digests)
        return digests[name]

    overall = _summary("overall", "Latencies of the OK responses.")
    inference = _summary("inference", "Inference times the OK responses reported.")
    full_overall = _summary("full", "Latencies of full-quality model answers.")
    degraded_overall = _summary(
        "degraded", "Latencies of degraded fallback answers (``response.degraded``)."
    )
    hit_overall = _summary(
        "hit", "Latencies of cache-served answers (``response.cache_hit``)."
    )
    miss_overall = _summary("miss", "Latencies of answers that ran an inference.")

    @property
    def ok(self) -> int:
        return len(self._latency)

    @property
    def errors(self) -> int:
        return len(self._flags) - len(self._latency)

    @property
    def degraded(self) -> int:
        """OK responses answered by the degraded fallback tier."""
        return self.degraded_overall.count

    @property
    def cache_hits(self) -> int:
        """OK responses answered by the result cache."""
        return self.hit_overall.count

    def buckets(self) -> List[SecondBucket]:
        buckets = {
            second: SecondBucket(second=second, sent=sent)
            for second, sent in self._sent.items()
        }
        seconds = np.frombuffer(self._second, dtype=np.intc)
        ok = (np.frombuffer(self._flags, dtype=np.uint8) & _OK) != 0
        keys, counts = np.unique(seconds[~ok], return_counts=True)
        for second, errors in zip(keys.tolist(), counts.tolist()):
            buckets.setdefault(second, SecondBucket(second)).errors = errors
        # Group the OK rows by send second, keeping record order inside
        # each group.
        order = np.argsort(seconds[ok], kind="stable")
        latency = np.frombuffer(self._latency, dtype=np.float64)[order]
        batch = np.frombuffer(self._batch, dtype=np.intc)[order]
        keys, starts, counts = np.unique(
            seconds[ok][order], return_index=True, return_counts=True
        )
        for second, start, count in zip(keys.tolist(), starts, counts.tolist()):
            rows = slice(start, start + count)
            entry = buckets.setdefault(second, SecondBucket(second))
            entry.ok = count
            entry.digest = LatencyDigest.from_values(latency[rows])
            entry.batch_sizes = batch[rows].tolist()
        return [buckets[key] for key in sorted(buckets)]

    @property
    def total(self) -> int:
        return len(self._flags)

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
