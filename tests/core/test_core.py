"""Core ETUDE: specs, registry, experiment runner, microbench, infra test."""

import numpy as np
import pytest

from repro.core import (
    SCENARIOS,
    SLO,
    AssetRegistry,
    ExperimentRunner,
    ExperimentSpec,
    HardwareSpec,
    run_infra_test,
    scenario_by_name,
    serial_microbenchmark,
)
from repro.hardware import CPU_E2, GPU_T4


class TestSpecs:
    def test_table1_scenarios(self):
        assert len(SCENARIOS) == 5
        platform = scenario_by_name("Platform")
        assert platform.catalog_size == 20_000_000
        assert platform.target_rps == 1_000
        groceries = scenario_by_name("groceries (small)")
        assert groceries.catalog_size == 10_000

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            scenario_by_name("metaverse")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(model="stamp", catalog_size=0, target_rps=10)
        with pytest.raises(ValueError):
            ExperimentSpec(
                model="stamp", catalog_size=10, target_rps=10, execution="tensorrt"
            )
        with pytest.raises(ValueError):
            HardwareSpec(replicas=0)

    def test_with_hardware(self):
        spec = ExperimentSpec(model="stamp", catalog_size=100, target_rps=10)
        new = spec.with_hardware("GPU-T4", 3)
        assert new.hardware.replicas == 3
        assert spec.hardware.replicas == 1

    def test_default_workload_statistics(self):
        spec = ExperimentSpec(model="stamp", catalog_size=123, target_rps=10)
        assert spec.workload_statistics().catalog_size == 123


class TestAssetRegistry:
    def test_models_are_cached(self):
        registry = AssetRegistry()
        a = registry.model("stamp", 1000)
        b = registry.model("stamp", 1000)
        assert a is b

    def test_profiles_differ_per_device(self):
        registry = AssetRegistry()
        cpu = registry.profile("stamp", 100_000, CPU_E2.device, "jit")
        gpu = registry.profile("stamp", 100_000, GPU_T4.device, "jit")
        assert cpu.latency(1) > gpu.latency(1)

    def test_jit_reduces_or_keeps_profile_cost(self):
        registry = AssetRegistry()
        eager = registry.profile("sasrec", 10_000, CPU_E2.device, "eager")
        jit = registry.profile("sasrec", 10_000, CPU_E2.device, "jit")
        assert jit.latency(1) <= eager.latency(1)

    def test_lightsans_falls_back_to_eager(self):
        registry = AssetRegistry()
        assets = registry.assets("lightsans", 10_000, CPU_E2.device, "jit")
        assert assets.jit_failed
        assert assets.execution_effective == "eager"
        assert assets.jit_fell_back

    def test_unknown_model_raises(self):
        registry = AssetRegistry()
        with pytest.raises(KeyError):
            registry.model("bert4rec", 1000)


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(seed=99)

    def test_small_run_succeeds(self, runner):
        result = runner.run(
            ExperimentSpec(
                model="stamp", catalog_size=10_000, target_rps=100,
                hardware=HardwareSpec("CPU", 1), duration_s=30.0,
            )
        )
        assert result.ok_requests > 1_000
        assert result.error_requests == 0
        assert result.p90_at_target_ms is not None
        assert result.meets_slo(50.0)

    def test_results_persisted_to_bucket(self, runner):
        runner.run(
            ExperimentSpec(
                model="stamp", catalog_size=10_000, target_rps=50,
                hardware=HardwareSpec("CPU", 1), duration_s=20.0,
            )
        )
        assert runner.infra.bucket.list_blobs("results/")

    def test_artifact_uploaded_once(self, runner):
        spec = ExperimentSpec(
            model="narm", catalog_size=10_000, target_rps=50,
            hardware=HardwareSpec("CPU", 1), duration_s=15.0,
        )
        runner.run(spec)
        first = runner.infra.bucket.list_blobs("models/")
        runner.run(spec)
        assert runner.infra.bucket.list_blobs("models/") == first

    def test_deterministic_given_seed(self):
        def run_once():
            runner = ExperimentRunner(seed=7)
            return runner.run(
                ExperimentSpec(
                    model="stamp", catalog_size=10_000, target_rps=80,
                    hardware=HardwareSpec("CPU", 1), duration_s=20.0,
                )
            )

        a, b = run_once(), run_once()
        assert a.ok_requests == b.ok_requests
        assert a.p90_ms == pytest.approx(b.p90_ms)

    def test_run_repeated_returns_median(self, runner):
        spec = ExperimentSpec(
            model="stamp", catalog_size=10_000, target_rps=50,
            hardware=HardwareSpec("CPU", 1), duration_s=15.0,
        )
        result = runner.run_repeated(spec, repetitions=3)
        assert result.ok_requests > 0

    def test_overloaded_cpu_triggers_backpressure(self, runner):
        result = runner.run(
            ExperimentSpec(
                model="core", catalog_size=1_000_000, target_rps=500,
                hardware=HardwareSpec("CPU", 1), duration_s=40.0,
            )
        )
        assert result.backpressure_stalls > 0
        assert not result.meets_slo(50.0)


class TestMicrobench:
    def test_gpu_beats_cpu_at_one_million(self):
        cpu = serial_microbenchmark("gru4rec", 1_000_000, CPU_E2, num_requests=50)
        gpu = serial_microbenchmark("gru4rec", 1_000_000, GPU_T4, num_requests=50)
        assert cpu.p90_ms > 10 * gpu.p90_ms

    def test_latency_scales_with_catalog(self):
        small = serial_microbenchmark("stamp", 10_000, CPU_E2, num_requests=50)
        large = serial_microbenchmark("stamp", 1_000_000, CPU_E2, num_requests=50)
        assert large.p90_ms > 20 * small.p90_ms

    def test_lightsans_reports_jit_failure(self):
        result = serial_microbenchmark(
            "lightsans", 10_000, CPU_E2, "jit", num_requests=20
        )
        assert result.jit_failed
        assert result.execution_effective == "eager"


class TestInfraTest:
    def test_actix_handles_the_load(self):
        result = run_infra_test("actix", target_rps=500, duration_s=60)
        assert result.errors == 0
        assert result.p90_ms < 5.0

    def test_torchserve_fails_the_load(self):
        result = run_infra_test("torchserve", target_rps=1000, duration_s=60)
        assert result.error_rate > 0.05
        assert result.p90_ms > 50.0

    def test_unknown_server_kind(self):
        with pytest.raises(ValueError):
            run_infra_test("flask")

    def test_unknown_dimension_is_rejected_not_ignored(self):
        with pytest.raises(
            ValueError, match=r"^the infra test takes no \['retry_policy'\] dimension$"
        ):
            run_infra_test("actix", retry_policy="max=2")

    def test_dimensions_accept_text(self):
        from_text = run_infra_test(
            "actix", target_rps=50, duration_s=2.0, retry="max=2",
            cache="capacity=8", sharding="2",
        )
        assert from_text.sharding["config"] == "2"
        assert from_text.cache["config"] == "lru,capacity=8"
