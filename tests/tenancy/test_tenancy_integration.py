"""The tenant fleet end to end: the disabled-path determinism contract,
co-location budgets, non-composition guards, canary/shadow accounting
in a full run, rolling version updates, and the observability surface."""

import pytest

from repro.cluster.kubernetes import DeploymentError
from repro.core import ExperimentRunner, ExperimentSpec, HardwareSpec


def spec(**overrides):
    base = dict(
        model="stamp", catalog_size=10_000, target_rps=40,
        hardware=HardwareSpec("CPU", 1), duration_s=15.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestDisabledDeterminism:
    """With ``--tenants`` unset no tenancy object exists anywhere and a
    run is bit-identical to the paper-faithful harness; a *single-tenant*
    fleet draws no extra RNG either, so even it must leave the latency
    fingerprint untouched on both device paths."""

    def _fingerprint(self, result):
        return (
            result.total_requests, result.ok_requests, result.error_requests,
            result.p50_ms, result.p90_ms, result.p99_ms,
            tuple(result.series.p90_ms), tuple(result.series.ok),
        )

    @pytest.mark.parametrize("instance", ["CPU", "GPU-T4"])
    def test_single_tenant_fleet_is_latency_identical(self, instance):
        baseline = ExperimentRunner(seed=33).run(
            spec(hardware=HardwareSpec(instance, 1))
        )
        solo = ExperimentRunner(seed=33).run(
            spec(hardware=HardwareSpec(instance, 1), tenants="solo=stamp:1")
        )
        assert self._fingerprint(solo) == self._fingerprint(baseline)
        assert baseline.tenancy is None
        assert solo.tenancy is not None  # the section reports, only


class TestFleetRun:
    @pytest.fixture(scope="class")
    def fleet(self):
        return ExperimentRunner(seed=33).run(
            spec(
                hardware=HardwareSpec("GPU-T4", 2),
                duration_s=20.0,
                target_rps=100,
                tenants=(
                    "home=stamp:3,slo=200;search=stamp:1,slo=400,"
                    "canary=0.1;mirror=stamp:0.2,shadow"
                ),
            )
        )

    def test_traffic_splits_by_weight(self, fleet):
        rows = fleet.tenancy["tenants"]
        assert rows["home"]["requests"] == pytest.approx(
            3 * rows["search"]["requests"], rel=0.01
        )
        assert rows["home"]["entitlement"] == pytest.approx(0.75)

    def test_canary_arm_served_at_its_fraction(self, fleet):
        row = fleet.tenancy["tenants"]["search"]
        assert row["canary_requests"] == pytest.approx(
            row["requests"] * 0.1, abs=2
        )

    def test_shadow_scored_never_returned(self, fleet):
        shadow = fleet.tenancy["shadow"]["mirror"]
        total_client = sum(
            row["requests"] for row in fleet.tenancy["tenants"].values()
        )
        assert shadow["mirrored"] == pytest.approx(total_client * 0.2, abs=2)
        # Every mirrored request completed server-side; client-visible
        # totals exclude all of them.
        assert shadow["completed"] == shadow["mirrored"] - shadow["shed"]
        assert fleet.total_requests == total_client

    def test_per_tenant_slos_are_checked(self, fleet):
        for row in fleet.tenancy["tenants"].values():
            assert row["slo_met"] is True
            assert row["errors"] == 0


class TestRollingUpdate:
    def test_rollout_bumps_every_pod_without_errors(self):
        result = ExperimentRunner(seed=33).run(
            spec(
                hardware=HardwareSpec("CPU", 2),
                duration_s=25.0,
                tenants="a=stamp:1,rollout=5;b=stamp:1",
            )
        )
        (rollout,) = result.tenancy["rollouts"]
        assert rollout["tenant"] == "a"
        assert rollout["completed"] is True
        assert rollout["pods_updated"] == 2
        versions = {event["version"] for event in rollout["events"]}
        assert len(versions) == 1
        assert next(iter(versions)).endswith("+r1")
        assert result.error_requests == 0

    def test_canary_rollout_promotes_the_canary_version(self):
        result = ExperimentRunner(seed=33).run(
            spec(
                hardware=HardwareSpec("CPU", 2),
                duration_s=25.0,
                tenants="a=stamp:1,canary=0.2,rollout=5;b=stamp:1",
            )
        )
        (rollout,) = result.tenancy["rollouts"]
        assert rollout["completed"] is True
        assert rollout["pods_updated"] == 2
        versions = {event["version"] for event in rollout["events"]}
        assert len(versions) == 1
        assert next(iter(versions)).endswith("+next")  # the canary artifact
        assert result.error_requests == 0


class TestColocationBudget:
    def test_oversized_fleet_reports_per_tenant_breakdown(self):
        # Eight gru4rec tenants at a 10M catalog cannot co-locate on a
        # 16 GB T4: the DeploymentError itemizes every tenant's bytes.
        fleet = ";".join(f"t{i}=gru4rec:1" for i in range(8))
        with pytest.raises(DeploymentError) as error:
            ExperimentRunner(seed=33).run(
                spec(
                    model="gru4rec",
                    catalog_size=10_000_000,
                    hardware=HardwareSpec("GPU-T4", 2),
                    tenants=fleet,
                )
            )
        message = str(error.value)
        assert "tenant fleet needs" in message
        assert "t0=" in message and "t7=" in message

    def test_canary_doubles_a_tenants_footprint(self):
        from repro.hardware import GPU_T4
        from repro.tenancy import check_colocation
        from tests.tenancy.test_cache_isolation import serving

        plain = serving("a")
        plain.resident_bytes = 8e9
        with_canary = serving("b", canary="v1")
        with_canary.resident_bytes = 8e9
        # 8 GB fits a 16 GB T4 (2 GB runtime reserve); 2 x 8 GB does not.
        assert check_colocation(GPU_T4, [plain]) == 8e9
        with pytest.raises(DeploymentError) as error:
            check_colocation(GPU_T4, [with_canary])
        assert "(+canary)" in str(error.value)


class TestNonComposition:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(sharding="2"), "sharding"),
            (dict(scheduler="cpu=1,target=20"), "scheduler"),
            (dict(retrieval="ivf:nlist=32,nprobe=8"), "retrieval"),
        ],
    )
    def test_tenants_reject_unsupported_dimensions(self, overrides, fragment):
        with pytest.raises(ValueError) as error:
            spec(tenants="a=stamp:1;b=stamp:1", **overrides)
        assert fragment in str(error.value)


class TestObservability:
    def test_route_spans_and_counters(self):
        from repro.obs import Telemetry

        telemetry = Telemetry(keep_spans=True)
        result = ExperimentRunner(seed=33).run(
            spec(duration_s=10.0, tenants="a=stamp:3;b=stamp:1"),
            telemetry=telemetry,
        )
        rows = result.tenancy["tenants"]
        spans = telemetry.trace.find("tenant_route")
        assert len(spans) == rows["a"]["requests"] + rows["b"]["requests"]
        counters = [
            m
            for m in telemetry.metrics.counters()
            if m.name == "tenant_requests_total"
        ]
        by_tenant = {m.labels["tenant"]: m.value for m in counters}
        assert by_tenant["a"] == rows["a"]["requests"]
        assert by_tenant["b"] == rows["b"]["requests"]
