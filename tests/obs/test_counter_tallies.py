"""Counters that no golden run moves read what their actor tallies.

The golden ``metrics`` digests pin every counter a golden run moves.
Three families move in none of them: the load generator's hedges and
client timeouts, the autoscaler's scale events, and the tuner's moves by
knob. Each test here drives one such actor until every counter of the
family is nonzero, and checks that each counter equals the tally the
actor reports.
"""

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.cluster import AutoscalerConfig, HorizontalPodAutoscaler, make_infra
from repro.hardware import GPU_T4
from repro.loadgen.generator import LoadGenerator
from repro.loadgen.retry import RetryPolicy
from repro.obs import Telemetry
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.runtime import SchedulerRuntime
from repro.scheduler.tuner import HillClimbTuner
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationResponse,
)
from repro.simulation import Simulator
from tests.cluster.test_failures_autoscaling import deploy, drive


def value(telemetry, name, **labels):
    counter = telemetry.metrics.get(name, labels or None)
    assert counter is not None, name
    return counter.value


def test_loadgen_counters_read_its_tallies():
    """Every fourth first attempt fails (retried, and half of those fail
    again); odd ids answer after 30 ms (hedged after 10 ms), and every
    tenth after 300 ms (timed out at 250 ms)."""
    sim = Simulator()
    telemetry = Telemetry.for_simulator(sim)
    seen = set()

    def submit(request, respond):
        rid = request.request_id
        first = rid not in seen
        seen.add(rid)
        fails = (first or rid % 8 == 0) and rid % 4 == 0
        delay = 0.3 if rid % 10 == 9 else 0.03 if rid % 2 else 0.002

        def answer():
            respond(
                RecommendationResponse(
                    request_id=rid,
                    status=HTTP_SERVICE_UNAVAILABLE if fails else HTTP_OK,
                    completed_at=sim.now,
                    latency_s=sim.now - request.sent_at,
                )
            )

        sim.call_in(delay, answer)

    generator = LoadGenerator(
        sim, submit, itertools.repeat(np.array([1, 2, 3], dtype=np.int64)),
        target_rps=40, duration_s=5.0, request_timeout_s=0.25,
        telemetry=telemetry,
        retry_policy=RetryPolicy(
            max_retries=1, base_backoff_s=0.001, max_backoff_s=0.001,
            hedge_after_s=0.01,
        ),
        retry_rng=np.random.default_rng(0),
    )
    generator.start()
    sim.run()
    tallies = {
        "loadgen_sent_total": generator.sent,
        "loadgen_timeouts_total": generator.timeouts,
        "loadgen_retries_total": generator.retries,
        "loadgen_hedges_total": generator.hedges,
        "loadgen_retry_exhausted_total": generator.retry_exhausted,
    }
    assert all(tallies.values()), tallies
    assert {name: value(telemetry, name) for name in tallies} == tallies


def test_autoscaler_counters_read_its_events():
    """One slow pod under a ramp scales up; once the load is gone the
    controller scales back down."""
    infra = make_infra(seed=5)
    telemetry = Telemetry()
    deployment = deploy(infra, replicas=1, service_seconds=0.025)
    autoscaler = HorizontalPodAutoscaler(
        infra.cluster, deployment,
        AutoscalerConfig(
            min_replicas=1, max_replicas=3, target_queue_per_pod=3.0,
            interval_s=5.0, scale_down_intervals=2,
        ),
        telemetry=telemetry,
    )
    drive(infra, deployment, target_rps=300, duration_s=40)

    def start_hpa():
        yield deployment.ready_signal
        autoscaler.start()

    infra.simulator.spawn(start_hpa())
    infra.simulator.run(until=250.0)
    autoscaler.stop()
    ups = sum(1 for event in autoscaler.events if event.direction == "up")
    downs = sum(1 for event in autoscaler.events if event.direction == "down")
    assert ups and downs
    assert value(telemetry, "autoscaler_scale_ups_total") == ups
    assert value(telemetry, "autoscaler_scale_downs_total") == downs


@dataclass
class _Template:
    batching: object = None


class _ScriptedFleet:
    """The dispatcher and the one GPU server a tuning epoch reads: every
    epoch reports a tail over target, and one flush of the next scripted
    mean batch size."""

    def __init__(self, mean_batches):
        self.mean_batches = list(mean_batches)
        self.batch_flushes = 0
        self.batched_requests = 0

    def epoch_snapshot(self, quantile):
        self.batch_flushes += 1
        self.batched_requests += self.mean_batches.pop(0)
        return dict(count=100, p_tail_ms=80.0, cpu_p_ms=20.0, gpu_p_ms=80.0)


def test_tuner_counters_read_its_history():
    """A saturated first epoch grows the batch cap; then the linger
    halves down to its floor, and then the offload threshold widens."""
    sim = Simulator()
    telemetry = Telemetry.for_simulator(sim)
    config = SchedulerConfig(target_p_ms=10.0, epoch_s=1.0)
    tuner = HillClimbTuner(config, batch_cap=4096)
    fleet = _ScriptedFleet([1024] + [1] * 7)
    deployment = SimpleNamespace(
        pods=[SimpleNamespace(server=fleet, instance_type=GPU_T4)],
        template=_Template(),
    )
    runtime = SchedulerRuntime(
        sim, config, deployment, fleet, tuner, telemetry=telemetry
    )
    sim.spawn(runtime.epoch_process(until=8.0))
    sim.run()
    moves = {}
    for entry in tuner.history:
        if entry["moved"] is not None:
            moves[entry["moved"]] = moves.get(entry["moved"], 0) + 1
    assert moves == {"max_batch": 1, "linger_s": 5, "short_session": 2}
    assert value(telemetry, "scheduler_tune_epochs_total") == tuner.epochs == 8
    for knob, count in moves.items():
        assert value(telemetry, "scheduler_tune_moves_total", knob=knob) == count
