"""GPU batching-path fixes: linger wake on buffer-full, and access logs
that record the status each client saw (GPU batches and CPU workers)."""

import numpy as np

from repro.hardware import CPU_E2, GPU_T4, LatencyModel
from repro.serving import BatchingConfig, EtudeInferenceServer
from repro.serving.access_log import AccessLog
from repro.serving.profiles import ActixProfile
from repro.serving.request import HTTP_OK, RecommendationRequest
from repro.simulation import Simulator
from repro.tensor.ops import CostRecord, CostTrace


def service_profile(device):
    trace = CostTrace()
    trace.append(CostRecord(op="linear", param_bytes=1e6))
    return LatencyModel(device).profile(trace)


def make_server(sim, batching, log=None, profile=None, instance=GPU_T4):
    return EtudeInferenceServer(
        sim, instance.device, service_profile(instance.device),
        np.random.default_rng(0), profile=profile, batching=batching,
        access_log=log,
    )


def request(index, sim):
    return RecommendationRequest(
        request_id=index, session_id=index,
        session_items=np.array([1], dtype=np.int64), sent_at=sim.now,
    )


class TestLingerWake:
    def test_full_buffer_flushes_before_the_linger_deadline(self):
        """Filling the buffer mid-linger must flush immediately — not
        after sleeping out the rest of the 2 ms window."""
        sim = Simulator()
        log = AccessLog()
        server = make_server(
            sim, BatchingConfig(max_batch_size=4, max_delay_s=0.002), log
        )

        def client():
            server.submit(request(0, sim), lambda r: None)
            yield 0.0005
            for index in (1, 2, 3):
                server.submit(request(index, sim), lambda r: None)

        sim.spawn(client())
        sim.run()
        groups = log.by_batch()
        assert len(groups) == 1
        (members,) = groups.values()
        assert len(members) == 4
        # Flush happened when the 4th request arrived (~0.5 ms), far
        # before the 2 ms linger deadline the old code slept out.
        assert members[0].started_at < 0.0015

    def test_underfull_buffer_still_waits_out_the_linger(self):
        sim = Simulator()
        log = AccessLog()
        server = make_server(
            sim, BatchingConfig(max_batch_size=8, max_delay_s=0.002), log
        )

        def client():
            server.submit(request(0, sim), lambda r: None)
            yield 0.0005
            server.submit(request(1, sim), lambda r: None)

        sim.spawn(client())
        sim.run()
        groups = log.by_batch()
        assert len(groups) == 1
        (members,) = groups.values()
        assert len(members) == 2
        assert members[0].started_at >= 0.002

    def test_wake_leaves_no_stray_events(self):
        """The cancelled deadline timer must not linger in the clock."""
        sim = Simulator()
        server = make_server(
            sim, BatchingConfig(max_batch_size=2, max_delay_s=0.050)
        )
        done = []
        server.submit(request(0, sim), done.append)
        server.submit(request(1, sim), done.append)
        end = sim.run()
        assert len(done) == 2
        # Batch flushed on fill; nothing waited for the 50 ms deadline.
        assert end < 0.050


class TestDeliveredStatusLog:
    def assert_log_matches_what_each_client_saw(self, instance):
        """A crash between completion and response delivery turns
        responses into 503s; the access log must record those 503s, not
        the 200s nobody received."""
        sim = Simulator()
        log = AccessLog()
        # A long HTTP leg widens the completion→delivery window the
        # original code mis-logged.
        server = make_server(
            sim, BatchingConfig(max_batch_size=8, max_delay_s=0.001), log,
            profile=ActixProfile(request_overhead_s=0.050), instance=instance,
        )
        statuses = {}

        def client():
            for index in range(64):
                req = request(index, sim)
                server.submit(
                    req,
                    lambda r, i=index: statuses.__setitem__(i, r.status),
                )
                yield 0.002

        sim.spawn(client())
        sim.call_at(0.060, server.crash)
        sim.run()
        assert log, "expected logged exchanges"
        for record in log:
            assert record.status == statuses[record.request_id]
        # The crash actually caught responses in flight (the scenario
        # under test), and healthy traffic still logged 200s.
        logged = [record.status for record in log]
        assert any(status != HTTP_OK for status in logged)
        assert any(status == HTTP_OK for status in logged)
        return logged

    def test_log_matches_what_each_client_saw(self):
        self.assert_log_matches_what_each_client_saw(GPU_T4)

    def test_cpu_worker_logs_what_each_client_saw(self):
        """A CPU worker logs at delivery too: the crash at 60 ms catches
        five of the eight exchanges its workers ran in flight."""
        logged = self.assert_log_matches_what_each_client_saw(CPU_E2)
        assert len(logged) == 8
        assert sum(status != HTTP_OK for status in logged) == 5
