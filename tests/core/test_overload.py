"""Overload protection end to end: the deadline check, the disabled-path
determinism contract, collapse-vs-degrade under sustained overload, and
the circuit breaker under crash-storm chaos."""

import pytest

from repro.cluster import RoutingPolicy
from repro.core import ExperimentRunner, ExperimentSpec, HardwareSpec
from repro.core.infra_test import run_infra_test
from repro.serving import AdmissionPolicy, FallbackConfig


def spec(**overrides):
    base = dict(
        model="stamp", catalog_size=10_000, target_rps=40,
        hardware=HardwareSpec("CPU", 1), duration_s=20.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecWiring:
    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError):
            spec(slo_deadline_s=0.0)


class TestDisabledOverloadDeterminism:
    """Configured-but-idle overload protection must not perturb a run —
    the bit-identical contract, on both the CPU and the GPU path."""

    def _fingerprint(self, result):
        return (
            result.total_requests, result.ok_requests, result.error_requests,
            result.p50_ms, result.p90_ms, result.p99_ms,
            tuple(result.series.p90_ms), tuple(result.series.ok),
        )

    @pytest.mark.parametrize("instance", ["CPU", "GPU-T4"])
    def test_idle_protection_is_bit_identical(self, instance):
        base = spec(hardware=HardwareSpec(instance, 1), duration_s=15.0)
        baseline = ExperimentRunner(seed=33).run(base)
        protected = ExperimentRunner(seed=33).run(
            spec(
                hardware=HardwareSpec(instance, 1), duration_s=15.0,
                # Far-away deadline: everything stays viable, nothing sheds,
                # no pod ever fails, so every mechanism stays idle.
                slo_deadline_s=30.0,
                admission=AdmissionPolicy(discipline="codel", slack_s=0.01),
                routing=RoutingPolicy(eject_after=5, endpoint_lag_s=3.0),
                fallback=FallbackConfig(),
            )
        )
        assert self._fingerprint(protected) == self._fingerprint(baseline)
        section = protected.overload
        assert section is not None
        assert section["shed_deadline"] == 0
        assert section["shed_codel"] == 0
        assert section["degraded_served"] == 0
        assert section["degraded_fraction"] == 0.0
        assert section["ejections"] == 0


class TestCollapseVersusDegrade:
    """The headline scenario: 3x-capacity overload on the Figure 2 server.

    Without protection the latency is unbounded (the queue just grows);
    with a deadline + fallback, >= 99% of requests get a 200 within the
    SLO and the rest of the truth shows up as the degraded fraction."""

    SLO_S = 0.05
    RPS = 8_000
    DURATION_S = 15.0

    @pytest.fixture(scope="class")
    def collapse(self):
        return run_infra_test(
            "actix", target_rps=self.RPS, duration_s=self.DURATION_S, seed=7
        )

    @pytest.fixture(scope="class")
    def degrade(self):
        return run_infra_test(
            "actix", target_rps=self.RPS, duration_s=self.DURATION_S, seed=7,
            slo_deadline_s=self.SLO_S,
            admission=AdmissionPolicy(slack_s=0.01),
            fallback=FallbackConfig(),
        )

    def test_unprotected_server_collapses(self, collapse):
        assert collapse.p90_ms > self.SLO_S * 1000.0 * 10  # way past the SLO
        assert collapse.overload is None

    def test_protection_keeps_the_slo(self, collapse, degrade):
        # >= 99% of requests answered 200 within the SLO: here it is 100%
        # of them — zero errors and p99 under the deadline.
        assert degrade.errors == 0
        assert degrade.ok == degrade.total
        assert degrade.p99_ms <= self.SLO_S * 1000.0
        assert degrade.p90_ms < collapse.p90_ms / 10

    def test_degraded_fraction_reported(self, degrade):
        section = degrade.overload
        assert section is not None
        assert section["shed_deadline"] > 0
        assert section["degraded_served"] == section["shed_deadline"] + section["shed_codel"]
        assert 0.0 < section["degraded_fraction"] < 1.0
        assert section["p90_full_ms"] is not None
        assert section["p90_degraded_ms"] is not None


class TestCircuitBreakerUnderChaos:
    """Crash-storm chaos with a laggy endpoint view: passive ejection must
    beat the no-ejection baseline, and probes must re-admit recovered pods."""

    def _spec(self, routing):
        return spec(
            target_rps=60,
            hardware=HardwareSpec("CPU", 3),
            duration_s=45.0,
            chaos="storm@10:count=2:stagger=0.5:restart=8",
            routing=routing,
        )

    @pytest.fixture(scope="class")
    def no_ejection(self):
        return ExperimentRunner(seed=11).run(self._spec("rr,lag=6"))

    @pytest.fixture(scope="class")
    def with_ejection(self):
        return ExperimentRunner(seed=11).run(
            self._spec("rr,eject=3,cooldown=2,lag=6")
        )

    def test_ejection_beats_the_baseline(self, no_ejection, with_ejection):
        assert no_ejection.error_requests > 0  # the lag window really hurt
        assert with_ejection.error_rate < no_ejection.error_rate
        assert with_ejection.overload["ejections"] >= 2  # both stormed pods

    def test_recovered_pods_re_enter_via_half_open_probes(self, with_ejection):
        assert with_ejection.overload["probe_recoveries"] >= 1
        # Re-entry actually restored capacity: the run ends healthy.
        tail_ok = with_ejection.series.ok[-5:]
        tail_err = with_ejection.series.errors[-5:]
        assert sum(tail_ok) > 0
        assert sum(tail_err) == 0

    def test_ejection_counters_and_spans_recorded(self):
        from repro.obs import Telemetry

        telemetry = Telemetry(keep_spans=True)
        result = ExperimentRunner(seed=11).run(
            self._spec("rr,eject=3,cooldown=2,lag=6"), telemetry=telemetry
        )
        counter = telemetry.metrics.get("pod_ejected_total")
        assert counter is not None
        assert counter.value == result.overload["ejections"]
        ejection_spans = telemetry.trace.find("pod_ejected")
        assert len(ejection_spans) == result.overload["ejections"]
        assert all(span.trace_id < 0 for span in ejection_spans)
        # Each ejection span covers its cooldown from the ejecting leg.
        assert all(span.end == span.start + 2.0 for span in ejection_spans)
        recovery_spans = telemetry.trace.find("pod_recovered")
        assert len(recovery_spans) == result.overload["probe_recoveries"]
        assert all(span.end == span.start for span in recovery_spans)
