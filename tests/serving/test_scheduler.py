"""Heterogeneous scheduler end to end: the compact grammar, dispatcher
routing invariants (a tight-deadline request never waits out a full GPU
linger), tuner convergence, the disabled-mode bit-identity contract on
both pod classes, deployment guards, and the planner's mixed-fleet
dimension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.kubernetes import AuxiliaryFleet, DeploymentError
from repro.core import DeploymentPlanner, ExperimentRunner, ExperimentSpec, HardwareSpec
from repro.core.spec import Scenario
from repro.hardware.instances import instance_by_name
from repro.scheduler import (
    EpochObservation,
    HillClimbTuner,
    QueryDispatcher,
    SchedulerConfig,
)
from repro.scheduler.dispatch import REASON_SHORT, REASON_TIGHT, ROUTE_CPU, ROUTE_GPU
from repro.scheduler.tuner import LINGER_FLOOR_S, SHORT_SESSION_CAP
from repro.serving.request import RecommendationRequest

CATALOG = 3_000
DURATION_S = 10.0


def spec(**overrides):
    base = dict(
        model="gru4rec", catalog_size=CATALOG, target_rps=40,
        hardware=HardwareSpec("CPU", 1), duration_s=DURATION_S,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def request(session_length=8, deadline_s=None, sent_at=0.0):
    return RecommendationRequest(
        request_id=1, session_id=1,
        session_items=np.arange(session_length, dtype=np.int64),
        sent_at=sent_at, deadline_s=deadline_s,
    )


class TestConfig:
    def test_parse_full_spec_round_trips(self):
        config = SchedulerConfig.parse("cpu=2,short=6,target=25,q=95")
        assert config.cpu_replicas == 2 and config.short_session == 6
        assert config.target_p_ms == 25.0 and config.quantile == 95.0
        assert config.enabled
        assert SchedulerConfig.parse(config.spec_string()) == config

    def test_off_and_none_disable(self):
        for text in ("off", "none"):
            config = SchedulerConfig.parse(text)
            assert not config.enabled
            assert config.spec_string() == "off"

    def test_empty_means_defaults(self):
        config = SchedulerConfig.parse("")
        assert config == SchedulerConfig()
        assert config.spec_string() == "cpu=1"
        assert config.initial_batching() == (1024, 0.002)

    def test_unknown_key_and_bad_values_rejected(self):
        with pytest.raises(ValueError, match="cpu"):
            SchedulerConfig.parse("pods=3")
        with pytest.raises(ValueError, match="on/off"):
            SchedulerConfig.parse("tune=maybe")
        with pytest.raises(ValueError, match="int"):
            SchedulerConfig.parse("cpu=two")
        with pytest.raises(ValueError, match="target"):
            SchedulerConfig.parse("target=-5")

    def test_tuner_only_form_is_enabled(self):
        config = SchedulerConfig.parse("cpu=0")
        assert config.enabled and config.cpu_replicas == 0


class TestDispatcherRouting:
    def dispatcher(self, **overrides):
        return QueryDispatcher(SchedulerConfig(**overrides))

    def test_tight_slack_never_waits_out_the_linger(self):
        """The routing invariant: remaining deadline budget below the
        current linger (+slack) must route to CPU, whatever the session."""
        dispatcher = self.dispatcher(linger_s=0.002)
        now = 10.0
        tight = request(session_length=30, deadline_s=now + 0.0015)
        assert dispatcher.route(tight, now, True, True) == ROUTE_CPU
        assert dispatcher.offloaded[REASON_TIGHT] == 1
        roomy = request(session_length=30, deadline_s=now + 0.050)
        assert dispatcher.route(roomy, now, True, True) == ROUTE_GPU

    def test_short_sessions_route_to_cpu(self):
        dispatcher = self.dispatcher(short_session=4)
        assert dispatcher.route(request(session_length=3), 0.0, True, True) == ROUTE_CPU
        assert dispatcher.route(request(session_length=4), 0.0, True, True) == ROUTE_CPU
        assert dispatcher.route(request(session_length=5), 0.0, True, True) == ROUTE_GPU
        assert dispatcher.offloaded[REASON_SHORT] == 2

    def test_single_class_fleet_takes_everything(self):
        dispatcher = self.dispatcher()
        tight = request(session_length=2, deadline_s=0.0001)
        assert dispatcher.route(tight, 0.0, False, True) == ROUTE_GPU
        assert dispatcher.route(tight, 0.0, True, False) == ROUTE_CPU
        # Degraded-fleet fallbacks are not counted as scheduler offloads.
        assert dispatcher.offloaded[REASON_TIGHT] == 0

    def test_live_knobs_shift_the_split(self):
        dispatcher = self.dispatcher(short_session=4)
        probe = request(session_length=6)
        assert dispatcher.route(probe, 0.0, True, True) == ROUTE_GPU
        dispatcher.short_session = 8  # what the tuner does between epochs
        assert dispatcher.route(probe, 0.0, True, True) == ROUTE_CPU


in_band_p = st.floats(min_value=42.6, max_value=57.4, allow_nan=False)


class TestTuner:
    def config(self, **overrides):
        base = dict(target_p_ms=50.0, tolerance=0.15)
        base.update(overrides)
        return SchedulerConfig(**base)

    @given(st.lists(in_band_p, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_in_band_tails_converge_without_moves(self, tails):
        """The convergence property: while the watched percentile stays
        inside the target band, no knob ever moves."""
        tuner = HillClimbTuner(self.config())
        for p in tails:
            assert tuner.step(EpochObservation(count=100, p_tail_ms=p)) is None
        assert tuner.moves == 0 and tuner.converged
        assert tuner.batching().max_batch_size == 1024
        assert tuner.batching().max_delay_s == 0.002

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=500.0, allow_nan=False),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_knobs_stay_in_bounds_under_any_tails(self, tails):
        config = self.config()
        tuner = HillClimbTuner(config, batch_cap=4096)
        for p in tails:
            tuner.step(EpochObservation(count=50, p_tail_ms=p, mean_batch=1024.0))
        assert LINGER_FLOOR_S <= tuner.linger_s <= config.linger_s
        assert config.max_batch <= tuner.max_batch <= 4096
        assert config.short_session <= tuner.short_session <= SHORT_SESSION_CAP

    def test_slow_tail_shrinks_linger_then_widens_offload(self):
        tuner = HillClimbTuner(self.config(target_p_ms=10.0))
        slow = EpochObservation(count=100, p_tail_ms=80.0, cpu_p_ms=20.0,
                                gpu_p_ms=80.0, mean_batch=4.0)
        moves = []
        for _ in range(12):
            moves.append(tuner.step(slow))
        assert moves[0] == "linger_s"
        assert "short_session" in moves  # only after linger hit its floor
        assert moves.index("short_session") > moves.index("linger_s")
        assert tuner.linger_s == LINGER_FLOOR_S

    def test_saturated_batches_grow_the_cap_first(self):
        tuner = HillClimbTuner(self.config(target_p_ms=10.0), batch_cap=4096)
        saturated = EpochObservation(count=100, p_tail_ms=80.0, mean_batch=1024.0)
        assert tuner.step(saturated) == "max_batch"
        assert tuner.max_batch == 2048

    def test_headroom_relaxes_linger_back(self):
        tuner = HillClimbTuner(self.config(target_p_ms=10.0))
        tuner.linger_s = 0.0005  # as if earlier epochs tightened it
        assert tuner.step(EpochObservation(count=100, p_tail_ms=2.0)) == "linger_s"
        assert tuner.linger_s == 0.001

    def test_drowning_cpu_pool_is_never_fed_more(self):
        tuner = HillClimbTuner(self.config(target_p_ms=10.0))
        tuner.linger_s = LINGER_FLOOR_S
        cpu_drowning = EpochObservation(count=100, p_tail_ms=80.0,
                                        cpu_p_ms=200.0, gpu_p_ms=80.0)
        assert tuner.step(cpu_drowning) is None
        assert tuner.short_session == SchedulerConfig().short_session

    def test_empty_epochs_are_ignored(self):
        tuner = HillClimbTuner(self.config())
        assert tuner.step(EpochObservation(count=0, p_tail_ms=None)) is None
        assert not tuner.converged and tuner.epochs == 1


class TestHeterogeneousRuns:
    def test_scheduler_section_contents(self):
        result = ExperimentRunner(seed=7).run(
            spec(
                hardware=HardwareSpec("GPU-T4", 1), target_rps=200,
                scheduler="cpu=1,target=20",
            )
        )
        section = result.scheduler
        assert section is not None
        assert section["cpu_replicas"] == 1
        assert section["routed_cpu"] + section["routed_gpu"] == result.ok_requests
        assert section["routed_cpu"] > 0 and section["routed_gpu"] > 0
        assert section["offload_short_session"] > 0
        assert section["tuner"]["epochs"] > 0
        assert result.error_requests == 0

    def test_tuner_only_run_on_gpu(self):
        """``cpu=0`` keeps the fleet homogeneous but tunes the batching."""
        result = ExperimentRunner(seed=7).run(
            spec(
                hardware=HardwareSpec("GPU-T4", 1), target_rps=200,
                scheduler="cpu=0,target=1,tol=0.1",
            )
        )
        section = result.scheduler
        assert section is not None and section["cpu_replicas"] == 0
        # An unreachable 1 ms target forces the tuner off 1024/2ms.
        assert section["tuner"]["moves"] > 0
        assert section["tuner"]["linger_s"] < 0.002

    def test_mixed_fleet_beats_the_homogeneous_tail(self):
        """Under load the short-session head skips the batching linger
        and the tuner climbs the linger down, so one CPU pod beside the
        GPU lowers the p90 and answers every request."""
        base = dict(
            catalog_size=2_000, target_rps=300,
            hardware=HardwareSpec("GPU-T4", 1), duration_s=15.0,
        )
        homogeneous = ExperimentRunner(seed=23).run(spec(**base))
        mixed = ExperimentRunner(seed=23).run(
            spec(scheduler="cpu=1,target=2,tol=0.2,epoch=3", **base)
        )
        assert homogeneous.error_requests == mixed.error_requests == 0
        assert mixed.ok_requests == homogeneous.ok_requests
        assert mixed.p90_ms < homogeneous.p90_ms
        assert mixed.scheduler["tuner"]["converged"]


class TestDeploymentGuards:
    def test_auxiliary_fleet_rejects_accelerators(self):
        gpu = instance_by_name("GPU-T4")
        with pytest.raises(ValueError, match="accelerator"):
            AuxiliaryFleet(
                instance_type=gpu, replicas=1,
                service_profile=None, resident_bytes=0,
            )

    def test_scheduler_requires_accelerator_primary(self):
        with pytest.raises(DeploymentError, match="accelerator"):
            ExperimentRunner(seed=7).run(spec(scheduler="cpu=1"))

    def test_scheduler_does_not_compose_with_sharding(self):
        with pytest.raises(ValueError, match="sharding"):
            spec(
                hardware=HardwareSpec("GPU-T4", 1),
                scheduler="cpu=1", sharding="2",
            )


class TestPlannerDimension:
    def test_empty_scheduler_options_rejected(self):
        with pytest.raises(ValueError):
            DeploymentPlanner(scheduler_options=())

    def test_mixed_fleet_option_costs_both_classes(self):
        config = SchedulerConfig.parse("cpu=1,target=20")
        # 15 s, not DURATION_S: the TIMEPROP ramp only offers the target
        # rate in its final ticks, and a 10 s run leaves a single at-target
        # window whose presence flips with provisioning jitter. 15 s gives
        # enough at-target windows for feasibility to be jitter-robust.
        planner = DeploymentPlanner(
            duration_s=15.0, scheduler_options=(None, config)
        )
        gpu = instance_by_name("GPU-T4")
        plan = planner.plan(
            Scenario("tiny", CATALOG, 30), ["gru4rec"], [gpu]
        )["gru4rec"]
        mixed = [option for option in plan.options if option.cpu_replicas > 0]
        assert len(mixed) == 1
        option = mixed[0]
        assert option.scheduler == config.spec_string()
        assert option.total_machines == option.replicas + 1
        cpu = instance_by_name("CPU")
        assert option.monthly_cost_usd == pytest.approx(
            gpu.cost_for(option.replicas) + cpu.cost_for(1)
        )
        # Homogeneous GPU serving is also feasible here and strictly
        # cheaper, so the mixed fleet must not win this scenario.
        assert plan.cheapest().cpu_replicas == 0

    def test_cpu_primary_is_marked_infeasible(self):
        config = SchedulerConfig.parse("cpu=1")
        planner = DeploymentPlanner(
            duration_s=DURATION_S, scheduler_options=(config,)
        )
        plan = planner.plan(
            Scenario("tiny", CATALOG, 30), ["gru4rec"],
            [instance_by_name("CPU")],
        )["gru4rec"]
        key = f"CPU {{{config.spec_string()}}}"
        assert key in plan.infeasible
        assert "accelerator" in plan.infeasible[key]
        assert not plan.options
