"""Golden digests of short runs: every recorded span, the stage breakdown,
the run result, every recorded response and the infra-test result, byte
for byte.

Four groups of runs, each a few virtual seconds past provisioning:

- ``SCENARIOS`` (a sharded, cached T4 fleet; one T4; one CPU) cover every
  span site of the default, sharding and cache paths. Each stores the
  sha256 of ``trace_to_json(telemetry.trace)``, of the JSON of
  ``stage_breakdown(...).to_dict()`` and of the run's metrics (below).
  The two default runs also report no feature section at all.
- ``RUNS`` holds one run per family of opt-in dimensions: overload
  protection, sharding across zones with a zone outage, retries and a
  two-tier cache, ANN retrieval, the heterogeneous scheduler, and a
  tenant fleet; plus one saturated CPU run with no admission and no
  fallback, whose load generator stalls thousands of times on
  backpressure; plus a scheduler fleet and a tenant fleet whose pods
  crash and come back through the kubelet restart path, each restarted
  pod answering a pinned number of requests. Each stores the sha256 of
  an untraced run's ``RunResult.to_json()`` and of a traced run's trace
  and metrics. The traced run's result, without its
  ``stage_breakdown``, hashes the same as the untraced one, and so does
  each result when the ``mp:workers=2`` execution backend runs the
  spec.
- ``RESPONSES`` pins every response the load generator records, in
  record order, for the saturated CPU run, the ``t4``, ``cpu`` and
  ``t4-sharded-cached`` scenarios, a two-pod run whose client retries a
  crashed pod's errors and hedges slow requests, and a sharded CPU run
  (S=4, two CPU replicas per shard): the sha256 over each response's
  request id, status and the ``repr`` of its latency, inference time and
  batch size, captured by wrapping ``MetricsCollector.record`` during an
  untraced run.
- ``INFRA_TESTS`` holds four ``run_infra_test`` runs. Each stores the
  sha256 of ``json.dumps(dataclasses.asdict(result))``.

The ``metrics`` digest of a traced run hashes the JSON, with sorted keys,
of every ``MetricRegistry.snapshot()`` entry that is not 0 at the end of
the run, together with every gauge timeline of ``telemetry.sampler``. An
instrument that is registered but never moves leaves no mark, so
registering one earlier changes nothing; one that moves, vanishes or
appears nonzero changes the digest.

A change that means to move no simulated number must leave every digest
in ``trace_digests.json`` unchanged. After an intended change to what a
run records, rewrite the file from the repository root with::

    PYTHONPATH=src python -m tests.golden.test_trace_digests

which prints each entry it added, removed or changed. The tests only
compare; nothing they read can make them rewrite the file.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple
from unittest import mock

import pytest

from repro.ann.config import RetrievalConfig
from repro.cache.tier import CacheConfig
from repro.core.experiment import ExperimentRunner
from repro.core.infra_test import run_infra_test
from repro.core.registry import AssetRegistry
from repro.core.spec import ExperimentSpec, HardwareSpec
from repro.exec.backend import ExecTask, make_backend
from repro.loadgen.retry import RetryPolicy
from repro.metrics.collector import MetricsCollector
from repro.obs import Telemetry
from repro.obs.export import stage_breakdown, trace_to_json
from repro.serving.admission import AdmissionPolicy
from repro.serving.fallback import FallbackConfig
from repro.sharding.config import ShardingConfig
from repro.tenancy.config import TenancyConfig

DIGESTS = Path(__file__).with_name("trace_digests.json")
RUNNER_SEED = 11

#: Traced runs whose spans and stage breakdown are pinned.
SCENARIOS: Dict[str, ExperimentSpec] = {
    "t4-sharded-cached": ExperimentSpec(
        "gru4rec", 20_000, 300, HardwareSpec("GPU-T4", 2),
        duration_s=4.0, seed=3, sharding=4,
        cache=CacheConfig(remote_capacity=2048),
    ),
    "t4": ExperimentSpec(
        "gru4rec", 20_000, 600, HardwareSpec("GPU-T4", 1), duration_s=4.0, seed=3
    ),
    "cpu": ExperimentSpec(
        "gru4rec", 20_000, 60, HardwareSpec("CPU", 1), duration_s=4.0, seed=3
    ),
}

#: One run per dimension family; its result and its trace are pinned.
RUNS: Dict[str, ExperimentSpec] = {
    # 8k rps on one CPU pod: the deadline sheds to the fallback tier.
    "overload": ExperimentSpec(
        "gru4rec", 100_000, 8_000, HardwareSpec("CPU", 1),
        duration_s=4.0, seed=3, slo_deadline_s=0.05,
        admission="fifo,slack=0.01", fallback="", routing="lor,eject=3",
    ),
    # Zone z0 holds shard 0's only replica: from 2 s on, fan-outs fail
    # and the client retries them.
    "sharded-zones-chaos": ExperimentSpec(
        "gru4rec", 20_000, 300, HardwareSpec("GPU-T4", 1),
        duration_s=4.0, seed=3, sharding="2,partial=off", zones=2,
        chaos="zone@2:name=z0:restart=2", retry="max=2,base=0.05",
        cache="capacity=1024,remote=2048",
    ),
    "ivf": ExperimentSpec(
        "gru4rec", 20_000, 300, HardwareSpec("GPU-T4", 1),
        duration_s=4.0, seed=3, retrieval="ivf:nlist=32,nprobe=8",
    ),
    "scheduler": ExperimentSpec(
        "gru4rec", 20_000, 300, HardwareSpec("GPU-T4", 1),
        duration_s=4.0, seed=3, scheduler="cpu=1,epoch=1,target=20",
    ),
    "tenants": ExperimentSpec(
        "stamp", 20_000, 100, HardwareSpec("CPU", 2), duration_s=4.0, seed=3,
        tenants="home=stamp:3,slo=200,rollout=1;"
        "search=stamp:1,canary=0.25;mirror=stamp:0.2,shadow",
    ),
    # One CPU pod at 1M items cannot keep up with the ramp: the load
    # generator waits out thousands of 1 ms backpressure polls.
    "backpressure": ExperimentSpec(
        "gru4rec", 1_000_000, 1_000, HardwareSpec("CPU", 1),
        duration_s=8.0, seed=3,
    ),
    # The tuner moves the GPU linger, then the GPU pod and the auxiliary
    # CPU pod crash and the kubelet restarts both from the deployment's
    # pod spec, the GPU pod with the tuned batching.
    "scheduler-restart": ExperimentSpec(
        "gru4rec", 20_000, 300, HardwareSpec("GPU-T4", 1),
        duration_s=18.0, seed=3, scheduler="cpu=1,epoch=1,target=1,tol=0.1",
        chaos="crash@4:pod=0:restart=0,crash@4.5:pod=1:restart=0",
    ),
}
# A tenant pod restarts with fresh clones of the fleet's serving states.
RUNS["tenants-restart"] = dataclasses.replace(
    RUNS["tenants"], duration_s=16.0, chaos="crash@2:pod=0:restart=0"
)

#: Requests each restarted pod of a restart run answers, in pod order.
RESTARTED_COMPLETIONS: Dict[str, List[int]] = {
    "scheduler-restart": [480, 319],
    "tenants-restart": [157],
}

#: Untraced runs whose every recorded response is pinned.
RESPONSES: Dict[str, ExperimentSpec] = {
    "backpressure-responses": RUNS["backpressure"],
    "t4-responses": SCENARIOS["t4"],
    "cpu-responses": SCENARIOS["cpu"],
    # Pod 0 crashes at 1 s and is back 2 s later: the client retries the
    # errors round-robin routing sends it meanwhile, and hedges every
    # request that is slower than 3.5 ms, so both settle paths run.
    "retry-hedge-responses": ExperimentSpec(
        "gru4rec", 20_000, 300, HardwareSpec("GPU-T4", 2),
        duration_s=4.0, seed=3, retry="max=2,base=0.02,hedge=0.0035",
        chaos="crash@1:pod=0:restart=2", routing="rr,lag=0.5",
    ),
    "t4-sharded-cached-responses": SCENARIOS["t4-sharded-cached"],
    # A CPU x S candidate of the planner's sweep: two CPU replicas per
    # shard, and all 451 fan-outs merge four full, latency-only legs.
    "cpu-sharded-responses": ExperimentSpec(
        "gru4rec", 20_000, 300, HardwareSpec("CPU", 2),
        duration_s=4.0, seed=3, sharding=4,
    ),
}

#: Keyword arguments of ``run_infra_test`` besides the registry.
INFRA_TESTS: Dict[str, Dict] = {
    "infra-actix-overload-cache-ivf": dict(
        server_kind="actix", target_rps=8_000, duration_s=3.0, seed=7,
        slo_deadline_s=0.05, admission=AdmissionPolicy(slack_s=0.01),
        fallback=FallbackConfig(), cache=CacheConfig(capacity=256),
        retrieval=RetrievalConfig(kind="ivf", nlist=32, nprobe=8),
    ),
    "infra-actix-sharded": dict(
        server_kind="actix", target_rps=150, duration_s=3.0, seed=5,
        sharding=ShardingConfig(shards=4),
    ),
    "infra-actix-tenants": dict(
        server_kind="actix", target_rps=300, duration_s=3.0, seed=7,
        tenants=TenancyConfig.parse(
            "a=noop:3,slo=50;b=noop:1,canary=0.25;m=noop:0.2,shadow"
        ),
    ),
    "infra-torchserve-retry": dict(
        server_kind="torchserve", target_rps=1_000, duration_s=3.0, seed=7,
        retry=RetryPolicy(max_retries=2),
    ),
}

#: RunResult sections that only an opt-in dimension fills.
FEATURE_SECTIONS = (
    "resilience", "overload", "cache", "sharding", "retrieval", "scheduler",
    "availability", "tenancy",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(spec: ExperimentSpec, registry: AssetRegistry, telemetry=None):
    return ExperimentRunner(registry=registry, seed=RUNNER_SEED).run(
        spec, telemetry=telemetry
    )


def metrics_digest(telemetry: Telemetry) -> str:
    """The digest of a finished run's nonzero instrument values and of
    its gauge timelines."""
    values = {
        key: value
        for key, value in telemetry.metrics.snapshot().items()
        if value != 0
    }
    return _sha256(
        json.dumps(
            {"values": values, "series": telemetry.sampler.series},
            sort_keys=True,
        )
    )


def trace_digests(spec: ExperimentSpec, registry: AssetRegistry) -> Dict[str, str]:
    """The trace, breakdown and metrics digests of one traced run."""
    telemetry = Telemetry(keep_spans=True)
    _run(spec, registry, telemetry)
    return {
        "trace": _sha256(trace_to_json(telemetry.trace)),
        "stage_breakdown": _sha256(
            json.dumps(stage_breakdown(telemetry.trace).to_dict())
        ),
        "metrics": metrics_digest(telemetry),
    }


def run_digests(spec: ExperimentSpec, registry: AssetRegistry) -> Dict[str, str]:
    """The untraced result's digest, and the traced run's trace and
    metrics digests.

    Raises AssertionError when the traced result, without its stage
    breakdown, differs from the untraced one.
    """
    result = _run(spec, registry).to_json()
    telemetry = Telemetry(keep_spans=True)
    traced = _run(spec, registry, telemetry)
    assert traced.stage_breakdown is not None
    untraced_view = dataclasses.replace(traced, stage_breakdown=None).to_json()
    assert _sha256(untraced_view) == _sha256(result)
    return {
        "result": _sha256(result),
        "trace": _sha256(trace_to_json(telemetry.trace)),
        "metrics": metrics_digest(telemetry),
    }


def response_digests(spec: ExperimentSpec, registry: AssetRegistry) -> Dict[str, str]:
    """The digest of every response an untraced run records, in order."""
    lines = []
    record = MetricsCollector.record

    def recording(collector, sent_at, response):
        lines.append(
            f"{response.request_id} {response.status} {response.latency_s!r} "
            f"{response.inference_s!r} {response.batch_size}"
        )
        record(collector, sent_at, response)

    with mock.patch.object(MetricsCollector, "record", recording):
        _run(spec, registry)
    assert lines, "the run recorded no response"
    return {"responses": _sha256("\n".join(lines))}


def infra_test_digests(kwargs: Dict, registry: AssetRegistry) -> Dict[str, str]:
    result = run_infra_test(registry=registry, **kwargs)
    return {"result": _sha256(json.dumps(dataclasses.asdict(result)))}


#: Every stored entry: its digest function and that function's input.
GROUPS: Dict[str, Tuple[Callable, Any]] = {
    **{name: (trace_digests, spec) for name, spec in SCENARIOS.items()},
    **{name: (run_digests, spec) for name, spec in RUNS.items()},
    **{name: (response_digests, spec) for name, spec in RESPONSES.items()},
    **{name: (infra_test_digests, kw) for name, kw in INFRA_TESTS.items()},
}


def digests() -> Dict[str, Dict[str, str]]:
    """Fresh digests of every run (what the stored file should hold)."""
    registry = AssetRegistry()
    return {name: digest(arg, registry) for name, (digest, arg) in GROUPS.items()}


@pytest.fixture(scope="module")
def registry():
    return AssetRegistry()


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_and_breakdown_digests(name, registry, stored):
    assert trace_digests(SCENARIOS[name], registry) == stored[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_digests(name, registry, stored):
    assert run_digests(RUNS[name], registry) == stored[name]


def test_mp_results_equal_the_serial_digests(stored):
    """Serial equals mp: every ``RUNS`` spec run on two worker processes
    hashes like the stored result of its serial run."""
    tasks = [
        ExecTask((name,), "experiment_run", {"spec": spec, "seed": RUNNER_SEED})
        for name, spec in RUNS.items()
    ]
    outcomes = make_backend("mp:workers=2").run_tasks(tasks)
    assert {
        outcome.key[0]: _sha256(outcome.value.to_json()) for outcome in outcomes
    } == {name: stored[name]["result"] for name in RUNS}


@pytest.mark.parametrize("name", sorted(RESPONSES))
def test_response_digests(name, registry, stored):
    assert response_digests(RESPONSES[name], registry) == stored[name]


def test_backpressure_run_stalls(registry):
    """The saturated run keeps the stall path under the gate."""
    result = _run(RUNS["backpressure"], registry)
    assert result.backpressure_stalls >= 1_000
    assert result.overload is None and result.error_requests == 0


@pytest.mark.parametrize("name", sorted(RESTARTED_COMPLETIONS))
def test_restarted_pods_serve(name, registry, deployments):
    """The restart runs keep the kubelet restart path under the gate."""
    _run(RUNS[name], registry)
    (deployment,) = deployments
    assert [
        pod.server.completed
        for pod in deployment.pods
        if pod.server.name.endswith("-restarted")
    ] == RESTARTED_COMPLETIONS[name]


def test_restarted_tenant_pod_serves_the_rolled_out_version(registry, deployments):
    """Pod 0 restarts after the rollout of ``home``: like every other
    pod, it serves the version the rollout reports."""
    result = _run(RUNS["tenants-restart"], registry)
    (rollout,) = result.tenancy["rollouts"]
    (version,) = {event["version"] for event in rollout["events"]}
    (deployment,) = deployments
    assert {
        pod.server.name: pod.server.tenants["home"].artifact_version
        for pod in deployment.pods
    } == {pod.server.name: version for pod in deployment.pods}


def test_crashed_servers_tallies_count(registry):
    """The zone outage crashes shard 0's pod; what its first server
    filled stays in the result, so every remote entry was a fill."""
    cache = _run(RUNS["sharded-zones-chaos"], registry).cache
    assert cache["remote_entries"] <= cache["fills"]
    assert cache["fills"] == 479


@pytest.mark.parametrize("name", sorted(INFRA_TESTS))
def test_infra_test_digests(name, registry, stored):
    assert infra_test_digests(INFRA_TESTS[name], registry) == stored[name]


@pytest.mark.parametrize("name", ["t4", "cpu"])
def test_default_runs_report_no_feature_section(name, registry):
    result = _run(SCENARIOS[name], registry)
    assert [getattr(result, s) for s in FEATURE_SECTIONS] == [None] * len(
        FEATURE_SECTIONS
    )


def test_every_scenario_is_stored(stored):
    assert sorted(stored) == sorted(GROUPS)


def main() -> None:
    """Rewrite ``trace_digests.json`` and print every entry that moved."""
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    fresh = digests()
    # Stored entries keep their place; new ones go last.
    new = {name: fresh[name] for name in old if name in fresh}
    new.update(fresh)
    DIGESTS.write_text(json.dumps(new, indent=2) + "\n")
    moved = sorted(name for name in {**old, **new} if old.get(name) != new.get(name))
    for name in moved:
        if name not in new:
            print(f"removed {name}")
        elif name not in old:
            print(f"added   {name}")
        else:
            keys = sorted(
                key for key in {**old[name], **new[name]}
                if old[name].get(key) != new[name].get(key)
            )
            print(f"changed {name}: {', '.join(keys)}")
    print(f"{DIGESTS.name}: {len(new)} entries, {len(moved)} added, removed or changed")


if __name__ == "__main__":
    main()
