"""Every pod of a deployment runs one server spec: a pod added by scale-up
and a pod the kubelet restarted get the service profile, batching, server
profile and artifact version of a deploy-time pod of their shard, and a
restarted auxiliary CPU pod comes back on the CPU profile."""

from repro.cache.tier import CacheConfig
from repro.cluster import make_infra
from repro.cluster.kubernetes import AuxiliaryFleet
from repro.hardware import CPU_E2, GPU_T4, LatencyModel
from repro.serving.batching import BatchingConfig
from repro.serving.profiles import ActixProfile
from repro.sharding.config import ShardingConfig
from repro.tensor.ops import CostRecord, CostTrace


def small_profile(device):
    trace = CostTrace()
    trace.append(CostRecord(op="linear", param_bytes=1e6, write_bytes=1e4))
    return LatencyModel(device).profile(trace)


def deploy(infra, instance_type=CPU_E2, **kwargs):
    """A deployment with a non-default batching and a cache, so that each
    pod's artifact version is readable from its cache keyer."""
    infra.bucket.upload("models/test.pt", b"x" * 1000)
    return infra.cluster.deploy_model(
        name="test",
        instance_type=instance_type,
        replicas=1,
        artifact_path="models/test.pt",
        service_profile=small_profile(instance_type.device),
        resident_bytes=1e6,
        score_bytes_per_item=4e3,
        batching=BatchingConfig(max_batch_size=64, max_delay_s=0.005),
        server_profile=ActixProfile(cache=CacheConfig(capacity=8)),
        **kwargs,
    )


def server_spec(server):
    return (
        server.service_profile,
        server.batching,
        server.profile,
        server.cache.keyer.version,
    )


def restart(infra, deployment, pod_index):
    """Crash one pod and let the kubelet bring it back; returns the pod."""
    pod = deployment.pods[pod_index]
    crashed = pod.server
    infra.cluster.inject_pod_failure(
        deployment, pod_index, at_time=infra.simulator.now + 1.0,
        restart_after=1.0,
    )
    infra.simulator.run()
    assert pod.ready and pod.server is not crashed
    assert pod.server.name == f"{pod.name}-restarted"
    return pod


class TestPodsShareOneSpec:
    def test_scale_up_and_restart_match_deploy_time_pods(self):
        infra = make_infra(seed=5)
        deployment = deploy(infra, sharding=ShardingConfig(shards=2))
        infra.simulator.run()
        deploy_time = {
            pod.shard: server_spec(pod.server) for pod in deployment.pods
        }
        assert sorted(deploy_time) == [0, 1]
        added = infra.cluster.add_pod(deployment)
        infra.simulator.run()
        assert added.ready and added.shard == 0
        restarted = restart(infra, deployment, 1)
        assert restarted.shard == 1
        for pod in (added, restarted):
            assert server_spec(pod.server) == deploy_time[pod.shard]

    def test_restarted_auxiliary_pod_keeps_the_cpu_profile(self):
        infra = make_infra(seed=5)
        cpu_profile = small_profile(CPU_E2.device)
        deployment = deploy(
            infra,
            instance_type=GPU_T4,
            auxiliary=AuxiliaryFleet(
                instance_type=CPU_E2, replicas=1,
                service_profile=cpu_profile, resident_bytes=1e6,
            ),
        )
        infra.simulator.run()
        gpu_pod, cpu_pod = deployment.pods
        before = server_spec(cpu_pod.server)
        assert before[0] is cpu_profile
        assert server_spec(gpu_pod.server)[0] is not cpu_profile
        assert server_spec(restart(infra, deployment, 1).server) == before
