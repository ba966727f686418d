"""EtudeInferenceServer (Actix-style) behaviour."""

import numpy as np
import pytest

from repro.hardware import CPU_E2, GPU_T4, LatencyModel
from repro.serving import BatchingConfig, EtudeInferenceServer
from repro.serving.request import HTTP_OK, HTTP_SERVICE_UNAVAILABLE, RecommendationRequest
from repro.serving.profiles import ActixProfile
from repro.simulation import Simulator
from repro.tensor.ops import CostRecord, CostTrace


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


def submit_n(sim, server, count, spacing=0.0):
    responses = []

    def sender():
        for index in range(count):
            server.submit(make_request(index, sim.now), responses.append)
            if spacing:
                yield spacing
        if False:
            yield  # pragma: no cover

    sim.spawn(sender())
    return responses


class TestCpuServing:
    def test_all_requests_answered_ok(self):
        sim = Simulator()
        server = EtudeInferenceServer(
            sim, CPU_E2.device, make_profile(CPU_E2.device),
            np.random.default_rng(0),
        )
        responses = submit_n(sim, server, 20, spacing=0.001)
        sim.run()
        assert len(responses) == 20
        assert all(r.status == HTTP_OK for r in responses)
        assert server.completed == 20

    def test_latency_includes_service_time(self):
        sim = Simulator()
        profile = make_profile(CPU_E2.device, fixed_bytes=45e6)  # ~10ms on CPU
        server = EtudeInferenceServer(
            sim, CPU_E2.device, profile, np.random.default_rng(0)
        )
        responses = submit_n(sim, server, 1)
        sim.run()
        assert responses[0].latency_s >= 0.009
        assert responses[0].inference_s >= 0.009

    def test_concurrency_limited_by_workers(self):
        """Burst of 3x workers: completions come in waves."""
        sim = Simulator()
        profile = make_profile(CPU_E2.device, fixed_bytes=45e6)
        server = EtudeInferenceServer(
            sim, CPU_E2.device, profile, np.random.default_rng(0)
        )
        workers = CPU_E2.device.concurrent_workers
        responses = submit_n(sim, server, workers * 3)
        sim.run()
        finish_times = sorted(r.completed_at for r in responses)
        # The last wave completes roughly 3 service times in.
        assert finish_times[-1] > 2.5 * finish_times[0]

    def test_queue_overflow_returns_503(self):
        sim = Simulator()
        profile = make_profile(CPU_E2.device, fixed_bytes=45e6)
        server = EtudeInferenceServer(
            sim, CPU_E2.device, profile, np.random.default_rng(0),
            profile=ActixProfile(max_queue_depth=5),
        )
        responses = submit_n(sim, server, 50)
        sim.run()
        rejected = [r for r in responses if r.status == HTTP_SERVICE_UNAVAILABLE]
        assert len(rejected) >= 40
        assert server.rejected == len(rejected)


class TestGpuBatching:
    def test_concurrent_requests_share_a_batch(self):
        sim = Simulator()
        profile = make_profile(GPU_T4.device, fixed_bytes=1.35e9)  # 10ms fixed
        server = EtudeInferenceServer(
            sim, GPU_T4.device, profile, np.random.default_rng(0),
            batching=BatchingConfig(max_batch_size=64, max_delay_s=0.002),
        )
        responses = submit_n(sim, server, 16)  # all at t=0
        sim.run()
        assert all(r.ok for r in responses)
        assert all(r.batch_size == 16 for r in responses)

    def test_batch_respects_max_size(self):
        sim = Simulator()
        profile = make_profile(GPU_T4.device)
        server = EtudeInferenceServer(
            sim, GPU_T4.device, profile, np.random.default_rng(0),
            batching=BatchingConfig(max_batch_size=4, max_delay_s=0.002),
        )
        responses = submit_n(sim, server, 10)
        sim.run()
        assert max(r.batch_size for r in responses) <= 4

    def test_linger_delays_single_request(self):
        sim = Simulator()
        profile = make_profile(GPU_T4.device, fixed_bytes=0.0, item_bytes=0.0)
        server = EtudeInferenceServer(
            sim, GPU_T4.device, profile, np.random.default_rng(0),
            batching=BatchingConfig(max_batch_size=64, max_delay_s=0.002),
        )
        responses = submit_n(sim, server, 1)
        sim.run()
        assert responses[0].latency_s >= 0.002  # waited out the buffer window

    def test_no_linger_when_disabled(self):
        sim = Simulator()
        profile = make_profile(GPU_T4.device, fixed_bytes=0.0, item_bytes=0.0)
        server = EtudeInferenceServer(
            sim, GPU_T4.device, profile, np.random.default_rng(0),
            batching=BatchingConfig(max_batch_size=1, max_delay_s=0.0),
        )
        responses = submit_n(sim, server, 1)
        sim.run()
        assert responses[0].latency_s < 0.002

    def test_batch_grows_under_backlog(self):
        """Closed-loop behaviour: arrivals during service join one batch."""
        sim = Simulator()
        profile = make_profile(GPU_T4.device, fixed_bytes=2.7e9)  # ~20ms/pass
        server = EtudeInferenceServer(
            sim, GPU_T4.device, profile, np.random.default_rng(0),
            batching=BatchingConfig(max_batch_size=1024, max_delay_s=0.002),
        )
        responses = submit_n(sim, server, 100, spacing=0.001)  # 1k rps feed
        sim.run()
        assert max(r.batch_size for r in responses) >= 15


class TestRealInferenceMode:
    def test_server_attaches_model_output(self):
        from repro.models import ModelConfig, create_model

        model = create_model("stamp", ModelConfig.for_catalog(500, top_k=5))
        sim = Simulator()
        server = EtudeInferenceServer(
            sim, CPU_E2.device, make_profile(CPU_E2.device),
            np.random.default_rng(0), model=model,
        )
        responses = submit_n(sim, server, 1)
        sim.run()
        items = responses[0].items
        assert items is not None and items.shape == (5,)
        np.testing.assert_array_equal(items, model.recommend([1, 2, 3]))


class TestBatchingConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BatchingConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingConfig(max_delay_s=-0.1)


class TestWorkerThreadConfiguration:
    def test_more_workers_more_concurrency(self):
        """The paper: the server lets users configure worker threads."""

        def completion_span(worker_threads):
            sim = Simulator()
            profile = make_profile(CPU_E2.device, fixed_bytes=45e6)  # ~10ms
            server = EtudeInferenceServer(
                sim, CPU_E2.device, profile, np.random.default_rng(0),
                worker_threads=worker_threads,
            )
            responses = submit_n(sim, server, 10)
            sim.run()
            return max(r.completed_at for r in responses)

        assert completion_span(10) < 0.6 * completion_span(1)

    def test_invalid_worker_threads(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            EtudeInferenceServer(
                sim, CPU_E2.device, make_profile(CPU_E2.device),
                np.random.default_rng(0), worker_threads=0,
            )


class TestProfileValidation:
    def test_negative_jitter_sigma_rejected_at_construction(self):
        """Rejected up front, not by the first jitter draw mid-run."""
        with pytest.raises(ValueError, match="jitter_sigma must be >= 0"):
            ActixProfile(jitter_sigma=-0.1)
        assert ActixProfile(jitter_sigma=0.0).jitter_sigma == 0.0
