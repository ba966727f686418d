"""Percentile estimation: exact (small runs) and log-histogram digest.

Long load tests record hundreds of thousands of latencies; keeping them all
is fine for one run but wasteful across a four-hundred-run study. The
:class:`LatencyDigest` buckets observations into log-spaced bins covering
10 microseconds to 1000 seconds, supporting constant-memory percentile
queries and merging across runs/replicas.

Resolution: a percentile query returns the *upper edge* of the matched bin
(clamped into the observed ``[min, max]`` envelope), so the answer sits at
most one bin width above the true order statistic. At the default 50 bins
per decade that is a factor of ``10 ** (1/50)``, i.e. ~4.7% relative error,
one-sided (never an underestimate).

Binning: bin ``k`` holds latencies whose ``log10(latency / MIN_LATENCY)
* bins_per_decade`` floors to ``k - 1`` (clamped into the covered range).
The digest evaluates that formula once per bin edge, not once per
sample: :func:`bin_edges` finds, float by float, the least latency of
every bin, and a sample's bin is where it falls among those edges. This
is exact, so bulk binning (:meth:`LatencyDigest.from_values`) and
one-by-one recording put every value in the same bin.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Iterable, Sequence, Tuple

import numpy as np


def exact_percentile(latencies: Sequence[float], q: float) -> float:
    """Exact percentile (q in [0, 100]) of a latency list."""
    if len(latencies) == 0:
        raise ValueError("no latencies recorded")
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q))


MIN_LATENCY = 1e-5
MAX_LATENCY = 1e3


def num_bins(bins_per_decade: int) -> int:
    """Bins of a digest at ``bins_per_decade`` (bin 0 is never used)."""
    decades = math.log10(MAX_LATENCY / MIN_LATENCY)
    return int(decades * bins_per_decade) + 2


def _log_bin(latency: float, bins_per_decade: int) -> int:
    """The bin of ``latency`` by definition, before the cap at the top
    bin ``num_bins - 1``."""
    clamped = min(max(latency, MIN_LATENCY), MAX_LATENCY)
    return int(math.log10(clamped / MIN_LATENCY) * bins_per_decade) + 1


@functools.lru_cache(maxsize=None)
def bin_edges(bins_per_decade: int) -> Tuple[float, ...]:
    """Exact lower edges of bins ``1 .. num_bins - 1`` (bin 0 stays empty).

    ``edges[k - 1]`` is the least latency that the definition puts in
    bin ``k`` or above, so a latency's bin is ``bisect_right(edges, x)``.
    Bin 1 starts at 0. Every other edge is found by stepping one float at
    a time from its nominal value ``MIN_LATENCY * 10 ** ((k - 1) /
    bins_per_decade)``, a few dozen floats off at most. The cap never
    decides a comparison with ``k <= num_bins - 1``.
    """
    edges = [0.0]
    for k in range(2, num_bins(bins_per_decade)):
        edge = min(MIN_LATENCY * 10 ** ((k - 1) / bins_per_decade), MAX_LATENCY)
        if _log_bin(edge, bins_per_decade) >= k:
            below = math.nextafter(edge, 0.0)
            while _log_bin(below, bins_per_decade) >= k:
                edge, below = below, math.nextafter(below, 0.0)
        else:
            while _log_bin(edge, bins_per_decade) < k:
                edge = math.nextafter(edge, math.inf)
        edges.append(edge)
    return tuple(edges)


class LatencyDigest:
    """Log-spaced latency histogram with percentile queries and merging."""

    MIN_LATENCY = MIN_LATENCY
    MAX_LATENCY = MAX_LATENCY

    def __init__(self, bins_per_decade: int = 50):
        self.bins_per_decade = bins_per_decade
        self._num_bins = num_bins(bins_per_decade)
        self._counts = np.zeros(self._num_bins, dtype=np.int64)
        self._total = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    @classmethod
    def from_values(
        cls, latencies: np.ndarray, bins_per_decade: int = 50
    ) -> "LatencyDigest":
        """The digest of ``latencies`` recorded one by one in order, built
        in bulk: same bins, same running sum, same min and max."""
        digest = cls(bins_per_decade)
        values = np.asarray(latencies, dtype=np.float64)
        if len(values) == 0:
            return digest
        bad = ~((values >= 0.0) & (values < math.inf))
        if bad.any():
            raise ValueError(
                "latency must be finite and non-negative, "
                f"got {float(values[bad.argmax()])!r}"
            )
        edges = np.asarray(bin_edges(bins_per_decade))
        digest._counts = np.bincount(
            np.searchsorted(edges, values, side="right"), minlength=digest._num_bins
        )
        digest._total = len(values)
        # record() adds in order; cumsum does too (np.sum is pairwise).
        # Adding to 0.0 turns an all -0.0 sum into record()'s +0.0.
        digest._sum = 0.0 + float(np.cumsum(values)[-1])
        # record() keeps the first of equal minima and starts max at 0.0:
        # the two differ from numpy only in the sign of a zero.
        low = float(values.min())
        digest._min = float(values[values == 0.0][0]) if low == 0.0 else low
        digest._max = max(0.0, float(values.max()))
        return digest

    # -- recording ------------------------------------------------------------

    def record(self, latency_s: float) -> None:
        if not math.isfinite(latency_s) or latency_s < 0.0:
            raise ValueError(
                f"latency must be finite and non-negative, got {latency_s!r}"
            )
        edges = bin_edges(self.bins_per_decade)
        self._counts[bisect.bisect_right(edges, latency_s)] += 1
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
