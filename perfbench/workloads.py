"""The reference workloads, their output fingerprints and the seed rule.

Every workload goes through the public API only: ``ExperimentRunner.run``
for the three load tests and ``DeploymentPlanner.plan`` for the sweep.
The benchmark turns its ``--seed`` into an input seed; the program only
ever sees the spec built from that input seed.

Importing this module imports nothing from ``repro``: set-up is timed
from before the first ``repro`` import, so every ``repro`` import lives
inside the functions.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: ``--seed n`` selects input seed ``n % SEED_FOLD``; golden fingerprints
#: are stored for every input seed in ``range(SEED_FOLD)``.
SEED_FOLD = 16
#: A further input seed, never reachable through ``--seed``, with its own
#: golden fingerprints (``--held-out``): a later claim can be re-checked
#: on inputs nobody tuned against.
HELD_OUT_SEED = 20240704


#: Every ``repro`` module :class:`Session` imports.
PROGRAM_MODULES = (
    "repro.cache.tier",
    "repro.cluster",
    "repro.core",
    "repro.core.experiment",
    "repro.core.registry",
    "repro.core.spec",
    "repro.exec.backend",
    "repro.hardware.instances",
    "repro.obs",
)


def import_program() -> None:
    """Import what a session needs, so imports can be timed on their own."""
    for name in PROGRAM_MODULES:
        importlib.import_module(name)


def input_seed(seed: int, held_out: bool = False) -> int:
    """The input seed a run uses for benchmark seed ``seed``."""
    return HELD_OUT_SEED if held_out else seed % SEED_FOLD


@dataclass(frozen=True)
class Deploy:
    """One load-test deployment: what ``repro run`` would be given."""

    model: str
    catalog: int
    rps: int
    instance: str
    replicas: int
    duration_s: float
    shards: Optional[int] = None
    cache: bool = False
    telemetry: bool = False


@dataclass(frozen=True)
class Sweep:
    """One cold serial planner sweep: what ``repro plan`` would be given."""

    models: Tuple[str, ...]
    instances: Tuple[str, ...]
    shard_counts: Tuple[int, ...]
    catalog: int
    rps: int
    duration_s: float
    max_replicas: int = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job: Any  # Deploy or Sweep
    #: Listed in BENCHMARK.json; the others exist for the self-tests.
    reference: bool = True

    @property
    def deploys(self) -> List[Tuple[str, int, str]]:
        """Every (model, catalog, instance) the workload deploys."""
        job = self.job
        if isinstance(job, Deploy):
            return [(job.model, job.catalog, job.instance)]
        return [
            (model, job.catalog, instance)
            for model in job.models
            for instance in job.instances
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ramp-t4",
            "Paper default run (gru4rec, 100k items, 1xT4, ramp to 500 rps): "
            "the pure request hot path of event core, GPU batcher and "
            "collector digests.",
            Deploy("gru4rec", 100_000, 500, "GPU-T4", 1, 120.0),
        ),
        Workload(
            "overload-cpu",
            "Same layers under saturation (1M items, 1xCPU, ramp to 500 rps): "
            "backpressure stalls, 1 ms loadgen polls and a deep CPU queue "
            "instead of batching.",
            Deploy("gru4rec", 1_000_000, 500, "CPU", 1, 60.0),
        ),
        Workload(
            "platform-sharded-traced",
            "Only workload that runs sharding, cache, obs and the 20M-item "
            "sampler (20M items, S=4 x 2xT4, default cache, telemetry on); "
            "where memory matters.",
            Deploy(
                "gru4rec", 20_000_000, 1_000, "GPU-T4", 2, 15.0,
                shards=4, cache=True, telemetry=True,
            ),
        ),
        Workload(
            "plan-sweep",
            "Only workload that runs the planner, registry memo, exec "
            "backend and repeated asset builds: 16-candidate cold serial "
            "sweep, C=20k, 60 rps.",
            Sweep(
                ("gru4rec", "narm"), ("CPU", "GPU-T4"), (1, 2, 4, 8),
                20_000, 60, 45.0,
            ),
        ),
        Workload(
            "smoke",
            "Tiny CPU run for the benchmark's own self-tests.",
            Deploy("gru4rec", 10_000, 50, "CPU", 1, 10.0),
            reference=False,
        ),
    )
}


def canonical(value: Any) -> Optional[str]:
    """Exact, order-independent text of a result section (floats as repr)."""
    if value is None:
        return None
    return json.dumps(value, sort_keys=True)


def run_fields(result) -> Dict[str, Any]:
    """Golden fingerprint fields of one load-test ``RunResult``."""
    return {
        "total": result.total_requests,
        "ok": result.ok_requests,
        "errors": result.error_requests,
        "p50_ms": repr(result.p50_ms),
        "p90_ms": repr(result.p90_ms),
        "p99_ms": repr(result.p99_ms),
        "achieved_rps": repr(result.achieved_rps),
        "mean_inference_ms": repr(result.mean_inference_ms),
        "stalls": result.backpressure_stalls,
        "cache": canonical(result.cache),
        "sharding": canonical(result.sharding),
    }


def plan_fields(plans) -> Dict[str, Any]:
    """Golden fingerprint fields of one sweep: the plan fingerprint that
    ``benchmarks/bench_parallel.py`` builds, plus request tallies."""
    fingerprint = json.dumps(
        {
            model: {
                "options": [
                    (
                        option.instance_type,
                        option.replicas,
                        option.shards,
                        option.monthly_cost_usd,
                        option.result.p90_at_target_ms,
                        option.result.total_requests,
                        option.result.ok_requests,
                    )
                    for option in plan.options
                ],
                "infeasible": list(plan.infeasible.items()),
            }
            for model, plan in plans.items()
        },
        sort_keys=True,
    )
    results = [o.result for plan in plans.values() for o in plan.options]
    return {
        "plan_sha256": hashlib.sha256(fingerprint.encode()).hexdigest(),
        "options": len(results),
        "total": sum(r.total_requests for r in results),
        "ok": sum(r.ok_requests for r in results),
        "errors": sum(r.error_requests for r in results),
    }


@dataclass
class Outcome:
    """What one iteration produced, before it is checked."""

    fields: Dict[str, Any]
    results: List[Any]
    spans: int = 0
    candidate_walls: List[float] = field(default_factory=list)
    #: Filled in by the worker that ran the iteration.
    host_s: float = 0.0
    probe: Optional[Dict[str, float]] = None


class Session:
    """Set-up state of one workload in one process.

    ``__init__`` is the set-up a ``repro run`` / ``repro plan`` invocation
    pays before load starts: infrastructure and a cold registry's assets
    for every deployment. :meth:`iterate` runs the workload once.
    """

    def __init__(self, workload: Workload, seed: int):
        from repro.cluster import make_infra
        from repro.core.registry import AssetRegistry
        from repro.hardware.instances import instance_by_name

        self.workload = workload
        self.seed = seed
        self.infra = make_infra(seed)
        self.registry = AssetRegistry()
        for model, catalog, instance in workload.deploys:
            self.registry.assets(model, catalog, instance_by_name(instance).device, "jit")

    def iterate(self) -> Outcome:
        job = self.workload.job
        if isinstance(job, Deploy):
            return self._run(job)
        return self._sweep(job)

    def _run(self, job: Deploy) -> Outcome:
        from repro.cache.tier import CacheConfig
        from repro.core.experiment import ExperimentRunner
        from repro.core.spec import ExperimentSpec, HardwareSpec
        from repro.obs import Telemetry

        spec = ExperimentSpec(
            job.model,
            job.catalog,
            job.rps,
            HardwareSpec(job.instance, job.replicas),
            duration_s=job.duration_s,
            seed=self.seed,
            sharding=job.shards,
            cache=CacheConfig() if job.cache else None,
        )
        runner = ExperimentRunner(
            infra=self.infra, registry=self.registry, seed=self.seed
        )
        telemetry = Telemetry() if job.telemetry else None
        result = runner.run(spec, telemetry=telemetry)
        return Outcome(
            fields=run_fields(result),
            results=[result],
            spans=len(telemetry.trace) if telemetry is not None else 0,
        )

    def _sweep(self, job: Sweep) -> Outcome:
        from repro.core import DeploymentPlanner
        from repro.core.experiment import ExperimentRunner
        from repro.core.registry import AssetRegistry
        from repro.core.spec import Scenario
        from repro.exec.backend import SerialBackend
        from repro.hardware.instances import instance_by_name

        class TimedSerial(SerialBackend):
            """The serial backend, keeping each candidate's host time."""

            def __init__(self):
                super().__init__()
                self.walls: List[float] = []

            def run_tasks(self, *args, **kwargs):
                outcomes = super().run_tasks(*args, **kwargs)
                self.walls.extend(o.wall_s for o in outcomes)
                return outcomes

        backend = TimedSerial()
        planner = DeploymentPlanner(
            runner=ExperimentRunner(registry=AssetRegistry(), seed=self.seed),
            duration_s=job.duration_s,
            max_replicas=job.max_replicas,
            repetitions=1,
            shard_counts=job.shard_counts,
            backend=backend,
        )
        plans = planner.plan(
            Scenario("perfbench-sweep", job.catalog, job.rps),
            list(job.models),
            instances=[instance_by_name(name) for name in job.instances],
        )
        return Outcome(
            fields=plan_fields(plans),
            results=[o.result for plan in plans.values() for o in plan.options],
            candidate_walls=list(backend.walls),
        )


def mismatched(fields: Dict[str, Any], golden: Optional[Dict[str, Any]]) -> List[str]:
    """Names of the fingerprint fields that differ from the golden ones.

    A missing golden entry is a mismatch of every field: an unchecked
    output never counts as correct.
    """
    if golden is None:
        return sorted(fields) or ["<no golden>"]
    names = set(fields) | set(golden)
    return sorted(n for n in names if fields.get(n) != golden.get(n))
