"""The ready lists a deployment keeps always equal a scan of its pods.

``ModelDeployment.ready_pods`` and ``ready_in_shard`` (what each shard's
route reads per leg) are kept until a readiness write
(``ModelDeployment.set_ready``) or a pod append. Here every read is
compared with the scan it replaced, over runs that drive each writer:
boot, crash, kubelet restart and the tenant rollout inside golden runs,
and scale-up (``Cluster.add_pod``) and scale-down (``Cluster.remove_pod``)
by hand.
"""

from dataclasses import replace

import pytest

from repro.cluster import make_infra
from repro.cluster.kubernetes import ModelDeployment
from repro.core.experiment import ExperimentRunner
from repro.core.registry import AssetRegistry
from repro.hardware import CPU_E2
from repro.sharding.config import ShardingConfig
from tests.cluster.test_failures_autoscaling import profile_with_latency
from tests.golden.test_trace_digests import RUNNER_SEED, RUNS, SCENARIOS

_ready_pods = ModelDeployment.ready_pods.fget
_ready_in_shard = ModelDeployment.ready_in_shard
_set_ready = ModelDeployment.set_ready


@pytest.fixture
def checked(monkeypatch):
    """Every read of the ready lists, checked against a scan of the pods,
    and every readiness write."""
    log = {"reads": 0, "shard_reads": 0, "stale": [], "writes": []}

    def ready_pods(deployment):
        got = _ready_pods(deployment)
        log["reads"] += 1
        if got != tuple(pod for pod in deployment.pods if pod.ready):
            log["stale"].append(("all", [pod.name for pod in got]))
        return got

    def ready_in_shard(deployment, shard):
        got = _ready_in_shard(deployment, shard)
        log["shard_reads"] += 1
        scan = tuple(
            pod for pod in deployment.pods if pod.ready and pod.shard == shard
        )
        if got != scan:
            log["stale"].append((shard, [pod.name for pod in got]))
        return got

    def set_ready(deployment, pod, ready):
        log["writes"].append(ready)
        _set_ready(deployment, pod, ready)

    monkeypatch.setattr(ModelDeployment, "ready_pods", property(ready_pods))
    monkeypatch.setattr(ModelDeployment, "ready_in_shard", ready_in_shard)
    monkeypatch.setattr(ModelDeployment, "set_ready", set_ready)
    return log


#: Golden runs that crash and restart pods (a sharded zone outage, the
#: CPU pool beside a GPU fleet, a tenant pod) and a sharded run whose legs
#: read each shard's list. In the golden tenant run a pod's rollout lasts
#: about 2 ms and no request reads it; at 1M items it lasts 0.3 s, and
#: requests arrive while each pod is out of the rotation.
WRITERS = {
    "sharded-zones-chaos": RUNS["sharded-zones-chaos"],
    "scheduler-restart": RUNS["scheduler-restart"],
    "tenants-restart": RUNS["tenants-restart"],
    "t4-sharded-cached": SCENARIOS["t4-sharded-cached"],
    "tenant-rollout": replace(RUNS["tenants"], catalog_size=1_000_000),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_runs_read_what_a_scan_reads(name, checked):
    spec = WRITERS[name]
    runner = ExperimentRunner(registry=AssetRegistry(), seed=RUNNER_SEED)
    assert runner.run(spec).ok_requests > 0
    assert checked["stale"] == []
    if spec.sharding is not None:
        assert checked["shard_reads"] > 0
    else:
        assert checked["reads"] > 0
    if spec.chaos is not None or spec.tenants is not None:
        # Pods left the rotation and came back.
        assert False in checked["writes"]
        assert checked["writes"][-1] is True


def test_scale_up_and_down_read_what_a_scan_reads(checked):
    infra = make_infra(seed=4)
    infra.bucket.upload("m", b"x" * 64)
    deployment = infra.cluster.deploy_model(
        name="scaled",
        instance_type=CPU_E2,
        replicas=1,
        artifact_path="m",
        service_profile=profile_with_latency(0.004),
        resident_bytes=1e6,
        score_bytes_per_item=4e3,
        sharding=ShardingConfig(shards=2),
    )
    infra.simulator.run()
    assert len(deployment.ready_pods) == 2
    assert [len(deployment.ready_in_shard(shard)) for shard in (0, 1)] == [1, 1]
    # Handed out as tuples: no caller can change what the next one reads.
    assert isinstance(deployment.ready_pods, tuple)
    assert isinstance(deployment.ready_in_shard(0), tuple)

    added = infra.cluster.add_pod(deployment)
    assert added not in deployment.ready_pods
    assert deployment.ready_in_shard(added.shard) != ()
    infra.simulator.run()
    assert added in deployment.ready_pods
    assert added in deployment.ready_in_shard(added.shard)

    victim = infra.cluster.remove_pod(deployment)
    assert victim is added
    assert victim not in deployment.ready_pods
    assert victim not in deployment.ready_in_shard(victim.shard)
    assert checked["stale"] == []
    assert checked["writes"] == [True, True, True, False]

