"""Instrumented serving paths: spans from real runs, zero-overhead-off."""

import numpy as np
import pytest

from repro.core.infra_test import run_infra_test
from repro.hardware import CPU_E2, GPU_T4, LatencyModel
from repro.obs import Telemetry, stage_breakdown
from repro.serving import BatchingConfig, EtudeInferenceServer
from repro.serving.request import RecommendationRequest
from repro.simulation import Simulator
from repro.tensor.ops import CostRecord, CostTrace
from tests.golden.test_trace_digests import INFRA_TESTS


def make_profile(device, fixed_bytes=1e6, item_bytes=1e5):
    trace = CostTrace()
    trace.append(
        CostRecord(op="linear", param_bytes=fixed_bytes, write_bytes=item_bytes)
    )
    return LatencyModel(device).profile(trace)


def make_request(request_id, now=0.0):
    return RecommendationRequest(
        request_id=request_id,
        session_id=request_id,
        session_items=np.array([1, 2, 3], dtype=np.int64),
        sent_at=now,
    )


def submit_burst(sim, server, telemetry, count):
    responses = []

    def sender():
        for index in range(count):
            request = make_request(index, sim.now)
            telemetry.trace.begin("request", index)
            server.submit(request, responses.append)
        if False:
            yield  # pragma: no cover
        yield 0.0

    sim.spawn(sender())
    return responses


class TestGpuBatchSpans:
    def test_cobatched_requests_share_batch_id(self):
        """A burst flushed as one GPU batch: every request's inference span
        carries the same batch_id and the full batch_size."""
        sim = Simulator()
        telemetry = Telemetry.for_simulator(sim)
        server = EtudeInferenceServer(
            sim, GPU_T4.device, make_profile(GPU_T4.device),
            np.random.default_rng(0),
            batching=BatchingConfig(max_batch_size=8, max_delay_s=0.002),
            telemetry=telemetry,
        )
        responses = submit_burst(sim, server, telemetry, 4)
        sim.run()
        assert len(responses) == 4

        inference = telemetry.trace.find("inference")
        assert len(inference) == 4
        batch_ids = {span.attrs["batch_id"] for span in inference}
        assert len(batch_ids) == 1
        assert all(span.attrs["batch_size"] == 4 for span in inference)
        # All four executed as one interval on the device.
        assert len({(s.start, s.end) for s in inference}) == 1

    def test_linger_window_recorded_as_batch_assembled(self):
        sim = Simulator()
        telemetry = Telemetry.for_simulator(sim)
        linger = 0.002
        server = EtudeInferenceServer(
            sim, GPU_T4.device, make_profile(GPU_T4.device),
            np.random.default_rng(0),
            batching=BatchingConfig(max_batch_size=8, max_delay_s=linger),
            telemetry=telemetry,
        )
        submit_burst(sim, server, telemetry, 3)
        sim.run()
        assembled = telemetry.trace.find("batch_assembled")
        assert len(assembled) == 3
        for span in assembled:
            assert span.duration_s == pytest.approx(linger, abs=1e-6)

    def test_stage_spans_nest_under_request_root(self):
        sim = Simulator()
        telemetry = Telemetry.for_simulator(sim)
        server = EtudeInferenceServer(
            sim, GPU_T4.device, make_profile(GPU_T4.device),
            np.random.default_rng(0),
            batching=BatchingConfig(max_batch_size=8, max_delay_s=0.002),
            telemetry=telemetry,
        )
        submit_burst(sim, server, telemetry, 2)
        sim.run()
        for trace_id, spans in telemetry.trace.by_trace().items():
            root = telemetry.trace.root(trace_id)
            assert root.name == "request"
            names = {span.name for span in spans[1:]}
            assert names == {
                "sent", "queued", "batch_assembled", "inference", "http_respond"
            }
            assert all(s.parent_id == root.span_id for s in spans[1:])
            assert all(s.finished for s in spans[1:])


class TestCpuSpans:
    def test_cpu_path_records_per_request_stages(self):
        sim = Simulator()
        telemetry = Telemetry.for_simulator(sim)
        server = EtudeInferenceServer(
            sim, CPU_E2.device, make_profile(CPU_E2.device),
            np.random.default_rng(0),
            telemetry=telemetry,
        )
        responses = submit_burst(sim, server, telemetry, 3)
        sim.run()
        assert len(responses) == 3
        inference = telemetry.trace.find("inference")
        assert len(inference) == 3
        # CPU serving never batches: each span is its own batch of one.
        assert all(span.attrs["batch_size"] == 1 for span in inference)
        assert len({span.attrs["batch_id"] for span in inference}) == 3

    def test_stage_durations_fit_inside_response_latency(self):
        sim = Simulator()
        telemetry = Telemetry.for_simulator(sim)
        server = EtudeInferenceServer(
            sim, CPU_E2.device, make_profile(CPU_E2.device),
            np.random.default_rng(0),
            telemetry=telemetry,
        )
        responses = submit_burst(sim, server, telemetry, 5)
        sim.run()
        by_trace = telemetry.trace.by_trace()
        for response in responses:
            spans = by_trace[response.request_id]
            covered = sum(s.duration_s for s in spans if s.name != "request")
            assert covered <= response.latency_s + 1e-9


class TestEndToEnd:
    def test_infra_test_breakdown_sums_to_end_to_end(self):
        """Loadgen + server + telemetry: stage rows plus the ``other``
        remainder must sum to exactly the end-to-end total."""
        telemetry = Telemetry()
        result = run_infra_test(
            "actix", target_rps=50, duration_s=10.0, telemetry=telemetry
        )
        assert result.ok > 0
        report = stage_breakdown(telemetry.trace)
        assert report is not None
        assert report.requests == result.ok
        covered = sum(stats.total_s for stats in report.stages)
        assert covered == pytest.approx(report.end_to_end.total_s, rel=1e-9)
        assert sum(s.share for s in report.stages) == pytest.approx(1.0)

    def test_coalesced_followers_close_their_spans(self):
        """The golden overload run with a cache, traced: each follower
        that parked behind an identical in-flight request closes its
        ``coalesced`` span when the leader's outcome reaches it (a
        cached answer, a degraded one or a 503), so no span is left
        open."""
        telemetry = Telemetry()
        run_infra_test(
            **INFRA_TESTS["infra-actix-overload-cache-ivf"], telemetry=telemetry
        )
        trace = telemetry.trace
        coalesced = [row for row, name in enumerate(trace.names) if name == "coalesced"]
        assert len(coalesced) == 226
        assert [row for row, end in enumerate(trace.ends) if end is None] == []
        assert all(trace.ends[row] >= trace.starts[row] for row in coalesced)

    def test_sampler_saw_loadgen_gauges(self):
        telemetry = Telemetry()
        run_infra_test("actix", target_rps=50, duration_s=5.0, telemetry=telemetry)
        keys = set(telemetry.sampler.series)
        assert any(key.startswith("loadgen_pending") for key in keys)
        assert any(key.startswith("server_queue_depth") for key in keys)
        assert telemetry.sampler.ticks >= 5

    def test_tracing_does_not_change_measured_latencies(self):
        """Zero-overhead contract: identical seeds give identical latency
        series with and without telemetry (no extra random draws)."""
        plain = run_infra_test("actix", target_rps=40, duration_s=8.0, seed=7)
        traced = run_infra_test(
            "actix", target_rps=40, duration_s=8.0, seed=7, telemetry=Telemetry()
        )
        assert plain.total == traced.total
        assert plain.series.p90_ms == traced.series.p90_ms
        assert plain.p99_ms == traced.p99_ms

    def test_experiment_runner_embeds_stage_breakdown(self):
        """A traced deployed benchmark reports the per-stage table in its
        RunResult; an untraced one leaves the field None."""
        from repro.core import ExperimentRunner, ExperimentSpec
        from repro.core.spec import HardwareSpec

        spec = ExperimentSpec(
            model="gru4rec",
            catalog_size=10_000,
            target_rps=30,
            hardware=HardwareSpec("CPU", 1),
            duration_s=10.0,
            execution="eager",
        )
        telemetry = Telemetry()
        result = ExperimentRunner().run(spec, telemetry=telemetry)
        assert result.ok_requests > 0
        assert result.stage_breakdown is not None
        assert "end_to_end" in result.stage_breakdown
        assert result.stage_breakdown["inference"]["count"] == result.ok_requests
        assert ExperimentRunner().run(spec).stage_breakdown is None

    def test_counters_match_collector_totals(self):
        telemetry = Telemetry()
        result = run_infra_test(
            "actix", target_rps=50, duration_s=5.0, telemetry=telemetry
        )
        sent = telemetry.metrics.get("loadgen_sent_total")
        assert sent is not None
        assert sent.value == result.total
