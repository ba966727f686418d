"""Failure domains: placement spread, home-zone restarts, zone chaos."""

import pytest

from repro.cluster import make_infra
from repro.cluster.chaos import ChaosSchedule, ZoneOutage
from repro.cluster.kubernetes import zone_name
from repro.hardware import CPU_E2, LatencyModel
from repro.sharding.config import ShardingConfig
from repro.tensor.ops import CostRecord, CostTrace


def small_profile(device):
    trace = CostTrace()
    trace.append(CostRecord(op="linear", param_bytes=1e6, write_bytes=1e4))
    return LatencyModel(device).profile(trace)


def deploy(infra, replicas=2, shards=1, zones=1):
    infra.bucket.upload("models/test.pt", b"x" * 1000)
    return infra.cluster.deploy_model(
        name="test",
        instance_type=CPU_E2,
        replicas=replicas,
        artifact_path="models/test.pt",
        service_profile=small_profile(CPU_E2.device),
        resident_bytes=1e6,
        score_bytes_per_item=4e3,
        sharding=ShardingConfig(shards=shards) if shards > 1 else None,
        zones=zones,
    )


class TestZonePlacement:
    def test_zone_names(self):
        assert zone_name(0) == "z0" and zone_name(3) == "z3"

    def test_default_single_domain_assigns_no_zone(self):
        infra = make_infra(seed=5)
        deployment = deploy(infra, replicas=3)
        assert all(pod.zone == "" for pod in deployment.pods)
        assert deployment.zones == 1
        assert deployment.zone_names == []

    def test_shard_replicas_never_colocate(self):
        """Anti-affinity: with replicas <= zones, each shard's replicas
        occupy pairwise-distinct zones."""
        infra = make_infra(seed=5)
        deployment = deploy(infra, replicas=2, shards=3, zones=2)
        assert deployment.zones == 2
        assert deployment.zone_names == ["z0", "z1"]
        by_shard = {}
        for pod in deployment.pods:
            by_shard.setdefault(pod.shard, []).append(pod.zone)
        assert set(by_shard) == {0, 1, 2}
        for shard, zones in by_shard.items():
            assert len(set(zones)) == len(zones), (shard, zones)

    def test_spread_is_even_across_zones(self):
        """More replicas than zones: per-zone counts differ by at most 1."""
        infra = make_infra(seed=5)
        deployment = deploy(infra, replicas=5, zones=3)
        counts = [len(deployment.pods_in_zone(z)) for z in deployment.zone_names]
        assert sum(counts) == 5
        assert max(counts) - min(counts) <= 1

    def test_zones_must_be_positive(self):
        infra = make_infra(seed=5)
        with pytest.raises(ValueError):
            deploy(infra, zones=0)

    def test_autoscaled_pod_lands_in_least_loaded_zone(self):
        """add_pod backfills the zone where its shard has fewest pods."""
        infra = make_infra(seed=5)
        deployment = deploy(infra, replicas=2, zones=3)
        infra.simulator.run()
        # replicas 0,1 sit in z0,z1 -> the new replica must take z2.
        new_pod = infra.cluster.add_pod(deployment)
        assert new_pod.zone == "z2"
        infra.simulator.run()
        counts = [len(deployment.pods_in_zone(z)) for z in deployment.zone_names]
        assert counts == [1, 1, 1]


class TestHomeZoneRestart:
    def test_restarted_pod_keeps_its_zone(self):
        infra = make_infra(seed=5)
        deployment = deploy(infra, replicas=2, zones=2)
        infra.simulator.run()
        victim = deployment.pods[1]
        assert victim.zone == "z1" and victim.ready
        crashed_at = infra.simulator.now
        infra.cluster.inject_pod_failure(
            deployment, 1, at_time=crashed_at, restart_after=5.0
        )
        infra.simulator.run()
        assert victim.ready
        assert victim.zone == "z1"
        assert victim.ready_at > crashed_at


class TestZoneOutageChaos:
    def _install(self, infra, deployment, spec):
        schedule = ChaosSchedule.parse(spec)
        return schedule.install(
            infra.simulator,
            cluster=infra.cluster,
            deployment=deployment,
            start_at=infra.simulator.now,
        )

    def test_outage_crashes_exactly_the_domain(self):
        infra = make_infra(seed=5)
        deployment = deploy(infra, replicas=2, shards=2, zones=2)
        infra.simulator.run()
        controller = self._install(infra, deployment, "zone@5:name=z0:restart=none")
        infra.simulator.run()
        for pod in deployment.pods:
            assert pod.ready == (pod.zone != "z0"), pod.name
        assert len(controller.zone_outages) == 1
        outage = controller.zone_outages[0]
        assert outage["zone"] == "z0"
        assert len(outage["pods"]) == 2
        assert outage["restart_after_s"] is None
        assert controller.fired[0]["kind"] == "zone"

    def test_outage_restarts_into_home_zone(self):
        infra = make_infra(seed=5)
        deployment = deploy(infra, replicas=2, zones=2)
        infra.simulator.run()
        controller = self._install(infra, deployment, "zone@5:name=z0:restart=4")
        infra.simulator.run()
        assert all(pod.ready for pod in deployment.pods)
        assert [pod.zone for pod in deployment.pods] == ["z0", "z1"]
        outage = controller.zone_outages[0]
        victim = deployment.pods[0]
        assert victim.ready_at > outage["at_s"]

    def test_empty_zone_is_a_noop(self):
        """zones=1 placement has no z0 pods: the event fires and logs an
        empty victim list instead of crashing anything."""
        infra = make_infra(seed=5)
        deployment = deploy(infra, replicas=2, zones=1)
        infra.simulator.run()
        controller = self._install(infra, deployment, "zone@5:name=z0")
        infra.simulator.run()
        assert all(pod.ready for pod in deployment.pods)
        assert controller.zone_outages[0]["pods"] == []

    def test_zone_chaos_requires_a_deployment(self):
        from repro.simulation import Simulator

        simulator = Simulator()
        schedule = ChaosSchedule(events=(ZoneOutage(at_s=1.0, zone="z0"),))
        controller = schedule.install(simulator, servers=[])
        with pytest.raises(ValueError):
            simulator.run()

    def test_needs_a_zone_name(self):
        with pytest.raises(ValueError):
            ZoneOutage(at_s=1.0, zone="")


class TestOutageZoneMustBePlaced:
    """A spec's zone outage names a zone its deployment places pods in."""

    @staticmethod
    def spec(zones, zone):
        from repro.core.spec import ExperimentSpec, HardwareSpec

        return ExperimentSpec(
            "gru4rec", 2_000, 100, HardwareSpec("GPU-T4", 2), duration_s=6.0,
            zones=zones, chaos=f"zone@1:name={zone}:restart=1",
        )

    def test_unplaced_zone_rejected(self):
        with pytest.raises(ValueError, match=r"'z9'.*z0, z1 \(zones=2\)"):
            self.spec(2, "z9")

    def test_single_zone_spec_rejects_every_zone_outage(self):
        with pytest.raises(ValueError, match=r"'z0'.*no zone \(zones=1\)"):
            self.spec(1, "z0")

    def test_placed_zone_builds(self):
        (event,) = self.spec(2, "z1").chaos.events
        assert event.zone == "z1"

    def test_cli_exits_with_the_message(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main([
                "run", "--model", "gru4rec", "--catalog", "2000", "--rps", "100",
                "--duration", "6", "--instance", "GPU-T4", "--replicas", "2",
                "--zones", "2", "--chaos", "zone@1:name=z9:restart=1",
            ])
        assert info.value.code == (
            "zone outage names zone 'z9', but the spec places pods in z0, z1 "
            "(zones=2)"
        )
