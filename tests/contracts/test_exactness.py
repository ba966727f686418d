"""Exactness contract: a dimension that claims not to change answers
does not change one.

The result cache, catalog sharding, the scheduler's CPU pool and
co-located tenants trade latency, capacity and cost; none of them may
change a recommendation (docs/caching.md, sharding.md, scheduling.md,
tenancy.md). Each case serves one click stream through a reference
set-up and through a candidate with the dimension on, and asserts that
every request gets a 200 and the same top-k items from both. Each case
also asserts that its dimension engaged, so none can pass vacuously.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.core.registry import AssetRegistry
from repro.hardware import CPU_E2, GPU_T4, LatencyModel
from repro.models import ModelConfig, create_model
from repro.scheduler import QueryDispatcher, SchedulerConfig
from repro.serving import EtudeInferenceServer
from repro.serving.profiles import ActixProfile
from repro.serving.request import HTTP_OK, RecommendationRequest
from repro.sharding import ScatterGatherAggregator, ShardingConfig
from repro.sharding.merge import build_shard_scorers
from repro.simulation import Simulator
from repro.tenancy import TenancyConfig, TenantServing, TrafficSplitter
from repro.tensor.ops import CostRecord, CostTrace
from repro.workload.statistics import WorkloadStatistics
from repro.workload.synthetic import SyntheticWorkloadGenerator

CATALOG = 2_000
TOP_K = 5
NUM_REQUESTS = 300
SPACING_S = 0.002
SEED = 29


@functools.lru_cache(maxsize=None)
def click_stream():
    """One request per click, carrying the session prefix, as the load
    generator issues them."""
    workload = SyntheticWorkloadGenerator(
        WorkloadStatistics(CATALOG, alpha_length=1.85, alpha_clicks=1.85),
        seed=SEED,
    )
    prefixes = []
    for session in workload.iter_sessions():
        for end in range(1, len(session) + 1):
            prefixes.append(np.asarray(session[:end], dtype=np.int64))
            if len(prefixes) == NUM_REQUESTS:
                return tuple(prefixes)


def replay(simulator, submit):
    """Send the click stream to ``submit``, 2 ms apart, on a fresh
    ``simulator``; return every response by request id."""
    responses = {}

    def driver():
        for request_id, prefix in enumerate(click_stream()):
            request = RecommendationRequest(
                request_id=request_id, session_id=request_id,
                session_items=prefix, sent_at=simulator.now,
            )
            submit(request, functools.partial(responses.__setitem__, request_id))
            yield SPACING_S

    simulator.spawn(driver())
    simulator.run()
    return responses


def one_op_profile():
    """A CPU cost profile of one op: answers never depend on it."""
    trace = CostTrace()
    trace.append(CostRecord(op="linear", param_bytes=1e6, write_bytes=1e5))
    return LatencyModel(CPU_E2.device).profile(trace)


def server(simulator, model, instance=CPU_E2, service_profile=None, **kwargs):
    return EtudeInferenceServer(
        simulator, instance.device, service_profile or one_op_profile(),
        np.random.default_rng(SEED), model=model, **kwargs,
    )


def model(kind):
    return create_model(kind, ModelConfig.for_catalog(CATALOG, top_k=TOP_K))


def serve_alone(model):
    """The stream served by one CPU server of ``model``."""
    simulator = Simulator()
    return replay(simulator, server(simulator, model).submit)


@pytest.fixture(scope="module")
def stamp():
    """The stamp model and what it answers served alone."""
    stamp = model("stamp")
    return SimpleNamespace(model=stamp, responses=serve_alone(stamp))


def cached(stamp):
    # window=80 covers max_session_length, so a key is the whole session
    # and a hit is lossless; a shorter window trades answers for hits
    # (docs/caching.md, "Choosing the window").
    config = CacheConfig(capacity=1024, window=80, ttl_s=0.0)
    simulator = Simulator()
    pod = server(simulator, stamp.model, profile=ActixProfile(cache=config))
    candidate = replay(simulator, pod.submit)
    assert pod.cache.hit_rate() > 0
    return stamp.responses, candidate


def sharded(stamp):
    simulator = Simulator()
    shards = [
        server(simulator, scorer, name=f"shard{index}")
        for index, scorer in enumerate(build_shard_scorers(stamp.model, 4))
    ]
    aggregator = ScatterGatherAggregator(
        simulator, ShardingConfig(shards=4), [pod.submit for pod in shards],
        network_delay=lambda: 0.0005, top_k=TOP_K,
    )
    candidate = replay(simulator, aggregator.scatter)
    assert aggregator.mean_coverage() == 1.0
    return stamp.responses, candidate


def scheduled(_stamp):
    registry = AssetRegistry()
    gru4rec = registry.model("gru4rec", CATALOG)

    def pod(simulator, instance):
        profile = registry.profile("gru4rec", CATALOG, instance.device, "jit")
        return server(simulator, gru4rec, instance, profile)

    simulator = Simulator()
    reference = replay(simulator, pod(simulator, GPU_T4).submit)
    simulator = Simulator()
    pods = {"gpu": pod(simulator, GPU_T4), "cpu": pod(simulator, CPU_E2)}
    dispatcher = QueryDispatcher(SchedulerConfig())

    def dispatch(request, respond):
        route = dispatcher.route(request, simulator.now, has_cpu=True, has_gpu=True)
        pods[route].submit(request, respond)

    candidate = replay(simulator, dispatch)
    assert dispatcher.routed["cpu"] > 0 and dispatcher.routed["gpu"] > 0
    return reference, candidate


def colocated(stamp):
    fleet = TenancyConfig.parse("a=stamp:3;b=narm:1")
    narm = model("narm")
    models = {"stamp": stamp.model, "narm": narm}
    answers = {"stamp": stamp.responses, "narm": serve_alone(narm)}
    alone = {tenant.name: answers[tenant.model] for tenant in fleet.tenants}
    simulator = Simulator()
    host = server(simulator, None, tenants={
        tenant.name: TenantServing(
            config=tenant, model=models[tenant.model],
            service_profile=one_op_profile(), artifact_version=f"v0-{tenant.name}",
        )
        for tenant in fleet.tenants
    })
    splitter = TrafficSplitter(fleet, host.submit, simulator)
    reference = {}

    def split(request, respond):
        splitter.submit(request, respond)
        reference[request.request_id] = alone[request.tenant][request.request_id]

    candidate = replay(simulator, split)
    assert all(tally.ok for tally in splitter.tallies.values())
    return reference, candidate


@pytest.mark.parametrize(
    "case", [cached, sharded, scheduled, colocated],
    ids=["cache", "shard", "scheduler", "tenant"],
)
def test_dimension_never_changes_an_answer(case, stamp):
    reference, candidate = case(stamp)
    assert len(reference) == len(candidate) == NUM_REQUESTS
    statuses = [
        (reference[rid].status, candidate[rid].status) for rid in range(NUM_REQUESTS)
    ]
    assert statuses == [(HTTP_OK, HTTP_OK)] * NUM_REQUESTS
    differ = [
        rid
        for rid in range(NUM_REQUESTS)
        if not np.array_equal(candidate[rid].items, reference[rid].items)
    ]
    assert differ == []
