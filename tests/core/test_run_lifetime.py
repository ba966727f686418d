"""What a finished run leaves behind.

Once :meth:`ExperimentRunner.run` returns, normally or by raising, the
infrastructure holds no part of the run: its simulator, cluster, servers,
spans and workload item pool live only as long as the caller's result
and telemetry reach them.
"""

import gc
import weakref
from dataclasses import replace

import pytest

import repro.core.experiment as experiment
from repro.cache.tier import CacheConfig
from repro.cluster.kubernetes import DeploymentError
from repro.core.experiment import ExperimentRunner
from repro.core.registry import AssetRegistry
from repro.core.spec import ExperimentSpec, HardwareSpec
from repro.obs import Telemetry
from repro.workload.synthetic import SyntheticWorkloadGenerator

#: Sharded and cached, so servers, aggregator and cache tiers all exist.
SPEC = ExperimentSpec(
    "gru4rec", 20_000, 300, HardwareSpec("GPU-T4", 2),
    duration_s=4.0, seed=3, sharding=2, cache=CacheConfig(),
)

#: GC-tracked objects a finished run may leave behind. A traced run of
#: SPEC that stayed reachable would leave thousands.
SLACK = 100


@pytest.fixture
def runner():
    return ExperimentRunner(registry=AssetRegistry(), seed=11)


@pytest.fixture
def watched(monkeypatch):
    """Weak references to each run's simulator and workload item pool,
    and a Telemetry class that takes the simulator's reference on bind."""
    refs = {"simulator": [], "pool": []}

    class WatchedWorkload(SyntheticWorkloadGenerator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs["pool"].append(weakref.ref(self._item_cdf._item_pool))

    class WatchedTelemetry(Telemetry):
        def bind(self, simulator, start_sampler=True):
            refs["simulator"].append(weakref.ref(simulator))
            return super().bind(simulator, start_sampler)

    monkeypatch.setattr(experiment, "SyntheticWorkloadGenerator", WatchedWorkload)
    return refs, WatchedTelemetry


def test_run_lives_as_long_as_the_callers_telemetry(runner, watched):
    refs, telemetry_class = watched
    telemetry = telemetry_class()
    result = runner.run(SPEC, telemetry=telemetry)
    assert result.ok_requests > 0
    gc.collect()
    assert refs["simulator"][0]() is not None  # the trace clock reads it
    del telemetry
    gc.collect()
    assert refs["simulator"][0]() is None
    assert refs["pool"][0]() is None
    assert runner.infra.simulator.now == 0.0


def test_a_run_that_raises_is_released_too(runner, watched):
    refs, telemetry_class = watched
    telemetry = telemetry_class()
    with pytest.raises(DeploymentError, match="shard"):
        runner.run(replace(SPEC, model="vmisknn"), telemetry=telemetry)
    del telemetry
    gc.collect()
    assert refs["simulator"] and refs["simulator"][0]() is None
    assert runner.infra.simulator.now == 0.0


def test_tracked_objects_do_not_pile_up(runner):
    runner.run(replace(SPEC, duration_s=1.0))  # assets, artifact, memos
    gc.collect()
    base = len(gc.get_objects())
    counts = []
    for _ in range(2):
        runner.run(SPEC, telemetry=Telemetry())
        gc.collect()
        counts.append(len(gc.get_objects()))
    assert counts[0] - base < SLACK
    assert abs(counts[1] - counts[0]) < SLACK
