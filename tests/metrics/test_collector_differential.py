"""The columnar collector against its reference implementation.

``reference_collector.py`` is the collector before the columnar run
record: it fed up to five ``LatencyDigest``s per OK response, binning
each value with ``math.log10``. The production collector keeps columns
and bins them in bulk through the digest's exact edge table, so on any
response stream every summary must come out bit for bit the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import LatencyDigest, MetricsCollector
from repro.metrics.percentile import bin_edges, num_bins
from repro.serving.request import (
    HTTP_GATEWAY_TIMEOUT,
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationResponse,
)
from tests.metrics import reference_collector

QUANTILES = (0, 50, 90, 99, 100)
EDGES = bin_edges(50)


def near_edge(edge_and_step):
    """An edge of the digest's table, or the float just below or above."""
    edge, step = edge_and_step
    if step < 0:
        return math.nextafter(edge, 0.0)
    if step > 0:
        return math.nextafter(edge, math.inf)
    return edge


latencies = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=1e3, max_value=1e7, allow_nan=False),
    st.tuples(st.sampled_from(EDGES), st.sampled_from((-1, 0, 1))).map(near_edge),
)

responses = st.tuples(
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),  # sent_at
    st.sampled_from(
        (HTTP_OK, HTTP_OK, HTTP_OK, HTTP_SERVICE_UNAVAILABLE, HTTP_GATEWAY_TIMEOUT)
    ),
    latencies,
    st.one_of(st.just(0.0), latencies),  # inference_s
    st.booleans(),  # degraded
    st.booleans(),  # cache_hit
    st.integers(min_value=1, max_value=64),  # batch_size
    st.booleans(),  # note the send first
)


def replay(collector, stream):
    for sent_at, status, latency, inference, degraded, hit, batch, noted in stream:
        if noted:
            collector.note_sent(sent_at)
        collector.record(
            sent_at,
            RecommendationResponse(
                request_id=0,
                status=status,
                completed_at=sent_at + latency,
                latency_s=latency,
                inference_s=inference,
                batch_size=batch,
                degraded=degraded,
                cache_hit=hit,
            ),
        )
    return collector


def digest_state(digest):
    return (
        digest.count,
        tuple(digest._counts.tolist()),
        repr(digest._sum),
        repr(digest._min),
        repr(digest._max),
    )


def summary(collector):
    """Everything the collector reports, floats as ``repr``."""
    splits = (
        collector.percentile_full_ms,
        collector.percentile_degraded_ms,
        collector.percentile_hit_ms,
        collector.percentile_miss_ms,
    )
    report = {
        "counts": (
            collector.ok, collector.errors, collector.total,
            collector.degraded, collector.cache_hits,
        ),
        "percentiles": [
            repr(collector.percentile_ms(q)) if collector.ok else None
            for q in QUANTILES
        ],
        "splits": [repr(split(q)) for split in splits for q in QUANTILES],
        "inference_mean": (
            repr(collector.inference.mean()) if len(collector.inference) else None
        ),
        "fractions": (
            repr(collector.degraded_fraction), repr(collector.cache_hit_fraction)
        ),
        "rates": (
            repr(collector.achieved_throughput()),
            repr(collector.total_response_rate()),
        ),
        "digests": [
            digest_state(digest)
            for digest in (
                collector.overall, collector.inference,
                collector.full_overall, collector.degraded_overall,
                collector.hit_overall, collector.miss_overall,
            )
        ],
        "buckets": [
            (
                bucket.second, bucket.sent, bucket.ok, bucket.errors,
                repr(bucket.error_rate), repr(bucket.p90_ms()),
                bucket.batch_sizes, digest_state(bucket.digest),
            )
            for bucket in collector.buckets()
        ],
    }
    return report


def assert_same_as_reference(stream):
    new = replay(MetricsCollector(), stream)
    reference = replay(reference_collector.MetricsCollector(), stream)
    assert summary(new) == summary(reference)


class TestAgainstReference:
    @given(st.lists(responses, max_size=120))
    @settings(max_examples=250, deadline=None)
    def test_random_streams(self, stream):
        assert_same_as_reference(stream)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_long_stream(self, seed):
        """Thousands of values per digest: the running sums must add in
        record order (pairwise summation, as in ``np.sum``, would drift)."""
        rng = np.random.default_rng(seed)
        n = 6000
        stream = list(zip(
            np.sort(rng.uniform(0.0, 30.0, n)).tolist(),
            rng.choice([HTTP_OK] * 9 + [HTTP_SERVICE_UNAVAILABLE], n).tolist(),
            rng.lognormal(np.log(0.02), 1.0, n).tolist(),
            np.where(
                rng.random(n) < 0.2, 0.0, rng.lognormal(np.log(0.01), 0.5, n)
            ).tolist(),
            (rng.random(n) < 0.1).tolist(),
            (rng.random(n) < 0.3).tolist(),
            rng.integers(1, 100, n).tolist(),
            (rng.random(n) < 0.9).tolist(),
        ))
        assert_same_as_reference(stream)

    def test_mirrored_splits_alias_overall(self):
        collector = replay(
            MetricsCollector(),
            [(0.5, HTTP_OK, 0.01, 0.005, False, False, 1, True)],
        )
        assert collector.full_overall is collector.overall
        assert collector.miss_overall is collector.overall
        assert collector.degraded_overall.count == 0
        assert collector.hit_overall.count == 0


class TestEdgeTable:
    @pytest.mark.parametrize("bins_per_decade", [50, 10, 7])
    def test_every_edge_is_exact(self, bins_per_decade):
        """Exhaustive: the log10 formula puts the float below edge ``k``
        in a lower bin and the edge itself in bin ``k`` or above."""
        formula = reference_collector.LatencyDigest(bins_per_decade)._bin_index
        edges = bin_edges(bins_per_decade)
        assert len(edges) == num_bins(bins_per_decade) - 1
        assert edges[0] == 0.0 and formula(0.0) == 1
        for k, edge in enumerate(edges[1:], start=2):
            assert formula(math.nextafter(edge, 0.0)) < k <= formula(edge), k

    @given(st.lists(latencies, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_bulk_and_one_by_one_agree(self, values):
        reference = reference_collector.LatencyDigest()
        reference.record_many(values)
        one_by_one = LatencyDigest()
        one_by_one.record_many(values)
        bulk = LatencyDigest.from_values(np.array(values, dtype=np.float64))
        assert digest_state(bulk) == digest_state(reference)
        assert digest_state(one_by_one) == digest_state(reference)

    @pytest.mark.parametrize(
        "values", [[0.0, -0.0, 0.5], [-0.0, 0.0, 0.5, -0.0], [-0.0, -0.0]]
    )
    def test_signed_zeros_follow_record_order(self, values):
        reference = reference_collector.LatencyDigest()
        reference.record_many(values)
        assert digest_state(LatencyDigest.from_values(values)) == digest_state(
            reference
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    def test_bulk_rejects_what_record_rejects(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            LatencyDigest.from_values([0.001, bad])
