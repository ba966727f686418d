"""Shard legs route within per-shard pod groups: a pod added to a sharded
deployment joins its shard's rotation once ready, and readiness is read
per leg, so a pod that drops out between two legs of one fan-out misses
the later leg."""

import numpy as np

from repro.cluster import ClusterIPService, make_infra
from repro.hardware import CPU_E2, LatencyModel
from repro.serving.request import RecommendationRequest
from repro.sharding.config import ShardingConfig
from repro.tensor.ops import CostRecord, CostTrace


def small_profile(device):
    trace = CostTrace()
    trace.append(CostRecord(op="linear", param_bytes=1e6, write_bytes=1e4))
    return LatencyModel(device).profile(trace)


def ready_sharded(replicas, shards=2):
    """A sharded deployment after every pod came up, and its service."""
    infra = make_infra(seed=5)
    infra.bucket.upload("models/test.pt", b"x" * 1000)
    deployment = infra.cluster.deploy_model(
        name="test",
        instance_type=CPU_E2,
        replicas=replicas,
        artifact_path="models/test.pt",
        service_profile=small_profile(CPU_E2.device),
        resident_bytes=1e6,
        score_bytes_per_item=4e3,
        sharding=ShardingConfig(shards=shards),
    )
    infra.simulator.run()
    assert deployment.ready_signal.fired
    service = ClusterIPService(
        infra.simulator, deployment, np.random.default_rng(0), catalog_size=1000
    )
    return infra, deployment, service


def record_legs(deployment, legs):
    """Make every pod's server log ``(pod name, request id)`` per leg."""
    for pod in deployment.pods:
        if pod.server is not None:
            pod.server.submit = (
                lambda request, respond, name=pod.name:
                legs.append((name, request.request_id))
            )


def request(request_id, now=0.0):
    return RecommendationRequest(
        request_id=request_id,
        session_id=request_id,
        session_items=np.array([1, 2, 3], dtype=np.int64),
        sent_at=now,
    )


def ignore(_response):
    pass


class TestShardGroups:
    def test_added_pod_receives_legs_once_ready(self):
        infra, deployment, service = ready_sharded(replicas=1)
        submit_shard0 = service.aggregator.shard_submits[0]
        legs = []
        record_legs(deployment, legs)
        submit_shard0(request(1), ignore)  # groups exist before the scale-up
        old = deployment.pods[0]
        new = infra.cluster.add_pod(deployment)
        assert new.shard == 0 and not new.ready
        submit_shard0(request(2), ignore)  # not ready: the old pod answers
        infra.simulator.run()
        assert new.ready
        record_legs(deployment, legs)
        for request_id in range(3, 7):
            submit_shard0(request(request_id), ignore)
        assert [name for name, _ in legs[:2]] == [old.name, old.name]
        assert {name for name, _ in legs[2:]} == {old.name, new.name}
        # Legs of the other shard never reach shard 0's new replica.
        service.aggregator.shard_submits[1](request(7), ignore)
        assert legs[-1][0] == deployment.pods[1].name

    def test_pod_crashing_between_two_legs_is_skipped(self):
        infra, deployment, service = ready_sharded(replicas=2)
        shard1 = [pod for pod in deployment.pods if pod.shard == 1]
        legs = []
        record_legs(deployment, legs)
        aggregator = service.aggregator
        # Shard 0's leg lands 1 ms out, shard 1's 3 ms out; the pod shard 1's
        # cursor points at crashes in between.
        aggregator.network_delay = iter([0.001, 0.003]).__next__
        start = infra.simulator.now
        aggregator.scatter(request(1, now=start), ignore)
        infra.cluster.inject_pod_failure(
            deployment, deployment.pods.index(shard1[0]), start + 0.002,
            restart_after=None,
        )
        infra.simulator.run()
        assert not shard1[0].ready
        assert [name for name, _ in legs] == [deployment.pods[0].name, shard1[1].name]
