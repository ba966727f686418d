"""What a finished run leaves behind.

Once :meth:`ExperimentRunner.run` returns, normally or by raising, the
infrastructure holds no part of the run: its simulator, cluster, servers,
spans and workload item pool live only as long as the caller's result
and telemetry reach them. An untraced run's objects, sharded or not, are
freed by reference counting: the run leaves nothing for the cyclic
collector.
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
from tests.golden.test_trace_digests import RESPONSES, RUNNER_SEED, RUNS, SCENARIOS

#: Sharded and cached, so servers, aggregator and cache tiers all exist.
SPEC = ExperimentSpec(
    "gru4rec", 20_000, 300, HardwareSpec("GPU-T4", 2),
    duration_s=4.0, seed=3, sharding=2, cache=CacheConfig(),
)

#: GC-tracked objects a finished run may leave behind. A traced run of
#: SPEC that stayed reachable would leave thousands.
SLACK = 100


def watched_workload(pools):
    """A workload class that appends a weak reference to each item pool
    it builds to ``pools``."""

    class WatchedWorkload(SyntheticWorkloadGenerator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(weakref.ref(self._item_cdf._item_pool))

    return WatchedWorkload


@pytest.fixture
def runner():
    return ExperimentRunner(registry=AssetRegistry(), seed=11)


@pytest.fixture
def watched(monkeypatch):
    """Weak references to each run's simulator and workload item pool,
    and a Telemetry class that takes the simulator's reference on bind."""
    refs = {"simulator": [], "pool": []}

    class WatchedTelemetry(Telemetry):
        def bind(self, simulator, start_sampler=True):
            refs["simulator"].append(weakref.ref(simulator))
            return super().bind(simulator, start_sampler)

    monkeypatch.setattr(
        experiment, "SyntheticWorkloadGenerator", watched_workload(refs["pool"])
    )
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


#: Every run spec of the golden gate, once each.
GOLDEN_SPECS = {}
for _name, _spec in {**SCENARIOS, **RUNS, **RESPONSES}.items():
    if _spec not in GOLDEN_SPECS.values():
        GOLDEN_SPECS[_name] = _spec


@pytest.fixture(scope="module")
def freed():
    """``name -> (pool alive when run returned, objects gc.collect()
    found)`` for an untraced run of each golden spec, measured with the
    collector off, on a registry whose assets are already built."""
    registry = AssetRegistry()
    pools = []
    measured = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            experiment, "SyntheticWorkloadGenerator", watched_workload(pools)
        )
        for spec in GOLDEN_SPECS.values():  # builds assets and memos
            ExperimentRunner(registry=registry, seed=RUNNER_SEED).run(
                replace(spec, duration_s=1.0)
            )
        for name, spec in GOLDEN_SPECS.items():
            gc.collect()
            gc.disable()
            try:
                ExperimentRunner(registry=registry, seed=RUNNER_SEED).run(spec)
                alive = pools[-1]() is not None
                measured[name] = (alive, gc.collect())
            finally:
                gc.enable()
    return measured


#: Golden specs that deploy a scatter-gather front.
SHARDED = [n for n, spec in GOLDEN_SPECS.items() if spec.sharding is not None]


@pytest.mark.parametrize("name", [n for n in GOLDEN_SPECS if n not in SHARDED])
def test_an_unsharded_run_leaves_no_cycle(name, freed):
    """Requests, processes and servers are freed by reference counting."""
    assert freed[name][1] == 0


@pytest.mark.parametrize("name", SHARDED)
def test_a_sharded_run_leaves_no_cycle(name, freed):
    """The service's aggregator holds nothing that refers back to the
    service, so a sharded run is freed by reference counting too."""
    assert freed[name][1] == 0


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_the_item_pool_is_freed_when_run_returns(name, freed):
    assert freed[name][0] is False
