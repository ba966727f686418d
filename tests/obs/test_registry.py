"""Metric registry: instrument semantics and percentile agreement."""

import numpy as np
import pytest

from repro.metrics.percentile import LatencyDigest
from repro.obs import Counter, Gauge, Histogram, MetricRegistry, metric_key


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("queue_depth") == "queue_depth"

    def test_labels_sorted(self):
        key = metric_key("queue_depth", {"server": "a", "model": "gru"})
        assert key == 'queue_depth{model="gru",server="a"}'


class TestCounter:
    def test_monotonic(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("requests_total").inc(-1)

    def test_callback_backed_reads_the_tally(self):
        tally = {"sent": 0}
        counter = Counter("requests_total", fn=lambda: tally["sent"])
        tally["sent"] = 7
        assert counter.value == 7.0 and type(counter.value) is float

    def test_callback_backed_rejects_inc(self):
        counter = Counter("requests_total", fn=lambda: 1)
        with pytest.raises(ValueError, match="callback-backed"):
            counter.inc()


class TestGauge:
    def test_settable(self):
        gauge = Gauge("pending")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.read() == 2

    def test_callback_backed_reads_live_state(self):
        state = {"depth": 0}
        gauge = Gauge("queue_depth", fn=lambda: state["depth"])
        assert gauge.read() == 0
        state["depth"] = 7
        assert gauge.read() == 7

    def test_callback_backed_rejects_set(self):
        gauge = Gauge("queue_depth", fn=lambda: 1)
        with pytest.raises(ValueError):
            gauge.set(5)


class TestHistogram:
    def test_percentiles_agree_with_latency_digest(self):
        """The acceptance contract: a Histogram and a LatencyDigest fed the
        same samples answer percentile queries identically (same bins)."""
        histogram = Histogram("stage_latency")
        digest = LatencyDigest()
        samples = np.random.default_rng(3).lognormal(
            mean=np.log(0.01), sigma=0.8, size=20_000
        )
        for sample in samples:
            histogram.observe(float(sample))
            digest.record(float(sample))
        assert histogram.count == len(digest)
        assert histogram.mean() == pytest.approx(digest.mean())
        for q in (10, 50, 90, 99, 99.9):
            assert histogram.percentile(q) == digest.percentile(q), q


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricRegistry()
        first = registry.counter("sent_total", labels={"server": "a"})
        second = registry.counter("sent_total", labels={"server": "a"})
        assert first is second
        assert len(registry) == 1

    def test_same_name_different_labels_are_distinct(self):
        registry = MetricRegistry()
        a = registry.counter("sent_total", labels={"server": "a"})
        b = registry.counter("sent_total", labels={"server": "b"})
        assert a is not b
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("depth")
        with pytest.raises(ValueError):
            registry.gauge("depth")

    def test_counter_callbacks_under_one_key_sum(self):
        """Two actors of one name count as one, as a shared ``inc`` did."""
        registry = MetricRegistry()
        first, second = {"n": 342}, {"n": 1_000}
        labels = {"server": "pod-restarted"}
        counter = registry.counter(
            "completed_total", fn=lambda: first["n"], labels=labels
        )
        again = registry.counter(
            "completed_total", fn=lambda: second["n"], labels=labels
        )
        assert again is counter
        second["n"] = 1_029
        assert counter.value == 1_371
        assert registry.snapshot() == {counter.key: 1_371}

    def test_gauge_callback_under_one_key_reads_the_newest(self):
        registry = MetricRegistry()
        gauge = registry.gauge("queue_depth", fn=lambda: 5)
        assert registry.gauge("queue_depth", fn=lambda: 2) is gauge
        assert gauge.read() == 2

    @pytest.mark.parametrize("kind", ["counter", "gauge"])
    def test_manual_and_callback_under_one_key_raise(self, kind):
        registry = MetricRegistry()
        register = getattr(registry, kind)
        register("manual")
        register("backed", fn=lambda: 1)
        with pytest.raises(ValueError, match="either manual or callback-backed"):
            register("manual", fn=lambda: 1)
        with pytest.raises(ValueError, match="either manual or callback-backed"):
            register("backed")
        assert register("manual") is registry.get("manual")

    def test_lookup_by_name_and_labels(self):
        registry = MetricRegistry()
        gauge = registry.gauge("pending", labels={"pod": "p1"})
        assert registry.get("pending", {"pod": "p1"}) is gauge
        assert registry.get("pending") is None

    def test_snapshot_covers_counters_and_gauges_only(self):
        registry = MetricRegistry()
        registry.counter("sent_total").inc(3)
        registry.gauge("pending", fn=lambda: 2)
        registry.histogram("latency").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot == {"sent_total": 3, "pending": 2}

    def test_kind_listings(self):
        registry = MetricRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert [i.name for i in registry.counters()] == ["a"]
        assert [i.name for i in registry.gauges()] == ["b"]
        assert [i.name for i in registry.histograms()] == ["c"]
