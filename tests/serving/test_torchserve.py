"""TorchServe queueing model: overheads, saturation, 100 ms timeout."""

import numpy as np
import pytest

from repro.core.infra_test import INFRA_TEST_DEVICE
from repro.serving.profiles import TorchServeProfile
from repro.serving.request import HTTP_OK, HTTP_SERVICE_UNAVAILABLE, RecommendationRequest
from repro.serving.torchserve import TorchServeServer
from repro.simulation import Simulator


def make_request(request_id, now=0.0):
    return RecommendationRequest(
        request_id=request_id,
        session_id=request_id,
        session_items=np.array([1], dtype=np.int64),
        sent_at=now,
    )


def drive(server, sim, count, spacing):
    responses = []

    def sender():
        for index in range(count):
            server.submit(make_request(index, sim.now), responses.append)
            yield spacing

    sim.spawn(sender())
    sim.run()
    return responses


class TestLowLoad:
    def test_low_load_is_answered_but_slow(self):
        """Even an idle TorchServe costs several ms per empty request."""
        sim = Simulator()
        server = TorchServeServer(
            sim, INFRA_TEST_DEVICE, None, np.random.default_rng(0), vcpus=2.0
        )
        responses = drive(server, sim, 20, spacing=0.1)  # 10 rps
        assert all(r.status == HTTP_OK for r in responses)
        mean_latency = float(np.mean([r.latency_s for r in responses]))
        assert mean_latency > 0.003  # milliseconds, not microseconds


class TestOverload:
    def test_saturation_produces_timeouts(self):
        """At 1,000 req/s on 2 vCPUs most requests hit the 100 ms timeout."""
        sim = Simulator()
        server = TorchServeServer(
            sim, INFRA_TEST_DEVICE, None, np.random.default_rng(0), vcpus=2.0
        )
        responses = drive(server, sim, 2_000, spacing=0.001)  # 1k rps
        errors = [r for r in responses if r.status == HTTP_SERVICE_UNAVAILABLE]
        assert len(errors) > len(responses) * 0.3
        assert server.timed_out + server.rejected == len(errors)

    def test_successful_latencies_pile_near_timeout(self):
        sim = Simulator()
        server = TorchServeServer(
            sim, INFRA_TEST_DEVICE, None, np.random.default_rng(0), vcpus=2.0
        )
        responses = drive(server, sim, 3_000, spacing=0.001)
        successes = [r.latency_s for r in responses if r.ok]
        assert successes, "some requests must still succeed"
        p90 = float(np.percentile(successes, 90))
        # The paper observes p90 between 100 and 200 ms under overload.
        assert 0.05 < p90 < 0.3

    def test_queue_cap_rejects_outright(self):
        sim = Simulator()
        server = TorchServeServer(
            sim, INFRA_TEST_DEVICE, None, np.random.default_rng(0), vcpus=2.0,
            profile=TorchServeProfile(max_queue_depth=10),
        )
        drive(server, sim, 1_000, spacing=0.0001)
        assert server.rejected > 0


class TestWorkerScaling:
    def test_more_vcpus_raise_capacity(self):
        def errors_with(vcpus):
            sim = Simulator()
            server = TorchServeServer(
                sim, INFRA_TEST_DEVICE, None, np.random.default_rng(0), vcpus=vcpus
            )
            responses = drive(server, sim, 1_500, spacing=0.002)  # 500 rps
            return sum(1 for r in responses if not r.ok)

        assert errors_with(8.0) < errors_with(2.0)


class TestProfileValidation:
    def test_negative_jitter_sigma_rejected_at_construction(self):
        """Rejected up front, not by the first jitter draw mid-run."""
        with pytest.raises(ValueError, match="jitter_sigma must be >= 0"):
            TorchServeProfile(jitter_sigma=-0.1)
        assert TorchServeProfile(jitter_sigma=0.0).jitter_sigma == 0.0
