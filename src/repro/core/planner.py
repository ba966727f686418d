"""Cost-efficient deployment planning — the logic behind Table I.

For each (scenario, model, instance type) the planner searches for the
smallest replica count whose measured p90 at the target throughput stays
under the SLO, then compares monthly costs across instance types: "There
may be cases where it is more beneficial to linearly scale out the
recommender system with cheaper hardware than to use a high-end device."

The search seeds itself with an analytic capacity estimate from the
service-time profile (so it does not waste simulated runs far from the
boundary), then verifies candidates with real load-test simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ann.config import RetrievalConfig
from repro.cache.planning import estimate_hit_rate
from repro.cache.tier import CacheConfig
from repro.cluster.kubernetes import DeploymentError
from repro.core.experiment import ExperimentRunner
from repro.core.spec import (
    FEATURE_BY_FIELD,
    SLO,
    ExperimentSpec,
    HardwareSpec,
    Scenario,
    first_conflict,
)
from repro.exec.backend import ExecTask, make_backend
from repro.hardware.instances import INSTANCE_TYPES, InstanceType, instance_by_name
from repro.metrics.results import RunResult
from repro.scheduler.config import SchedulerConfig
from repro.sharding.config import ShardingConfig
from repro.sharding.plan import shard_resident_bytes, shard_service_profile
from repro.workload.statistics import WorkloadStatistics


@dataclass
class DeploymentOption:
    """One feasible deployment: instance type, count, cost, evidence.

    ``replicas`` is *per shard*; a sharded option runs
    ``replicas * shards`` machines and its cost reflects that.
    """

    instance_type: str
    replicas: int
    monthly_cost_usd: float
    result: RunResult
    shards: int = 1
    #: ANN retrieval spec string (None = the exact catalog scan).
    retrieval: Optional[str] = None
    #: Measured recall@k of the ANN option (None on exact options).
    recall: Optional[float] = None
    #: Heterogeneous-scheduler spec string (None = single-class serving).
    scheduler: Optional[str] = None
    #: Auxiliary CPU pods deployed beside the primary fleet (0 on
    #: homogeneous options); counted in ``total_machines`` and the cost.
    cpu_replicas: int = 0
    #: Zone outages this option was *verified* to survive (a failure
    #: drill passed with this many zones down: 200s kept flowing, full
    #: coverage, p90 under the SLO, finite time-to-recovery). None on
    #: options planned without ``survive_zones``.
    survives_zones: Optional[int] = None
    #: Tenant-fleet spec string when this option co-locates a multi-tenant
    #: fleet (None = the paper's single-model deployment). Produced by
    #: :class:`~repro.tenancy.placement.FleetPlanner`.
    tenants: Optional[str] = None

    @property
    def total_machines(self) -> int:
        return self.replicas * self.shards + self.cpu_replicas


def option_sort_key(option: DeploymentOption) -> Tuple:
    """Deterministic option ordering shared by every planner.

    Cost, then fewest total machines, then fewest shards, then
    instance-type name, then exact retrieval before ANN, homogeneous
    before scheduler mixes, single-tenant before co-located fleets
    ("" sorts first in each case).
    """
    return (
        option.monthly_cost_usd,
        option.total_machines,
        option.shards,
        option.instance_type,
        option.retrieval or "",
        option.scheduler or "",
        option.tenants or "",
    )


def search_replicas(
    start: int,
    floor: int,
    ceiling: int,
    measure: Callable[[int], Optional[RunResult]],
    feasible: Callable[[int, RunResult], bool],
) -> Optional[Tuple[int, RunResult]]:
    """Both planners' search: ``(replicas, result)`` of the smallest
    feasible count, or None.

    Climbs from the analytic seed ``start`` to the first feasible count up
    to ``ceiling``; when that is ``start`` itself, the seed may have
    overshot, so it shrinks while the count below is feasible, down to
    ``floor``. ``measure`` returns None for a count that cannot deploy,
    which ends the climb and stops the shrink.
    """
    for replicas in range(start, ceiling + 1):
        result = measure(replicas)
        if result is None:
            return None
        if feasible(replicas, result):
            break
    else:
        return None
    if replicas > start:
        # The climb measured replicas - 1 and found it infeasible; runs
        # are hermetic, so measuring it again cannot change that.
        return replicas, result
    while replicas > floor:
        candidate = measure(replicas - 1)
        if candidate is None or not feasible(replicas - 1, candidate):
            break
        replicas, result = replicas - 1, candidate
    return replicas, result


@dataclass
class ScenarioPlan:
    """All evaluated options for one (scenario, model) pair."""

    scenario: Scenario
    model: str
    options: List[DeploymentOption] = field(default_factory=list)
    infeasible: Dict[str, str] = field(default_factory=dict)

    def cheapest(self) -> Optional[DeploymentOption]:
        """The cheapest option, with a deterministic tie-break.

        Cost ties are real (e.g. two instance types priced identically at
        different replica counts); resolving them by list insertion order
        made the planner's answer depend on instance-catalog ordering.
        Ties break by fewest total machines, then fewest shards (less
        fan-out), then instance-type name, then exact retrieval before any
        ANN variant ("" sorts first) — approximation must *win* on cost,
        never tie its way in — then homogeneous before any heterogeneous
        scheduler mix, then single-tenant before any co-located tenant
        layout, for the same reasons. With every option at S=1, exact
        retrieval, no scheduler and no tenants this is the pre-sharding
        ordering. The key is a pure function of each option, so the
        winner is independent of list insertion order.
        """
        if not self.options:
            return None
        return min(self.options, key=option_sort_key)


@dataclass
class CandidateOutcome:
    """What one candidate evaluation contributed to the plan.

    Exactly one of ``option`` / ``infeasible`` / ``skipped`` is
    meaningful. Picklable, so the execution backend can ship outcomes
    back from worker processes verbatim.
    """

    key: str
    option: Optional[DeploymentOption] = None
    infeasible: Optional[str] = None
    skipped: bool = False


class DeploymentPlanner:
    """Searches deployment options meeting the SLO at minimum cost."""

    def __init__(
        self,
        runner: Optional[ExperimentRunner] = None,
        slo: SLO = SLO(),
        duration_s: float = 90.0,
        max_replicas: int = 8,
        repetitions: int = 1,
        cache: Optional[CacheConfig] = None,
        shard_counts: Sequence[int] = (1,),
        retrieval_options: Sequence[Optional[RetrievalConfig]] = (None,),
        min_recall: float = 0.95,
        scheduler_options: Sequence[Optional[SchedulerConfig]] = (None,),
        survive_zones: int = 0,
        backend=None,
        telemetry=None,
    ):
        self.runner = runner or ExperimentRunner()
        self.slo = slo
        self.duration_s = duration_s
        self.max_replicas = max_replicas
        self.repetitions = repetitions
        #: Optional result cache deployed with every candidate (None =
        #: plan the paper's cache-less serving stack; an off config is
        #: stored as None).
        self.cache = FEATURE_BY_FIELD["cache"].coerce(cache)
        #: Catalog-shard counts to evaluate per instance type ((1,) =
        #: the paper's unsharded serving). Each S > 1 candidate runs
        #: ``replicas`` pods per shard and pays for all of them.
        self.shard_counts = tuple(shard_counts)
        if not self.shard_counts or any(s < 1 for s in self.shard_counts):
            raise ValueError("shard_counts must be positive integers")
        #: Retrieval modes to evaluate per (instance, shards) candidate.
        #: None (or a disabled config, normalized to None) is the exact
        #: scan; enabled IVF configs are admitted only when their measured
        #: recall@k clears ``min_recall`` — the planner answers "cheapest
        #: deployment with recall >= R and p90 <= SLO", never trading
        #: unbounded quality for cost.
        self.retrieval_options = tuple(
            FEATURE_BY_FIELD["retrieval"].coerce(option)
            for option in retrieval_options
        )
        if not self.retrieval_options:
            raise ValueError("retrieval_options must not be empty")
        self.min_recall = min_recall
        #: Heterogeneous-scheduler configs to evaluate per candidate.
        #: None (or a disabled config, normalized to None) is the paper's
        #: single-class serving; enabled configs add ``cpu_replicas``
        #: auxiliary CPU pods beside accelerator primaries and pay for
        #: them, letting the plan discover when a mixed fleet undercuts a
        #: homogeneous one.
        self.scheduler_options = tuple(
            FEATURE_BY_FIELD["scheduler"].coerce(option)
            for option in scheduler_options
        )
        if not self.scheduler_options:
            raise ValueError("scheduler_options must not be empty")
        #: Availability requirement: every admitted option must pass a
        #: failure drill with this many zones down (0 = the paper's
        #: single-domain planning; see docs/availability.md). Candidates
        #: deploy across ``survive_zones + 1`` failure domains and the
        #: per-shard replica search starts at ``survive_zones + 1`` so a
        #: shard keeps at least one replica through the outage.
        if survive_zones < 0:
            raise ValueError("survive_zones must be >= 0")
        self.survive_zones = survive_zones
        #: Execution backend for the candidate fan-out. None defers to
        #: the ``ETUDE_BACKEND`` env var, then serial. A backend object,
        #: a BackendConfig, or a spec string ("mp:workers=4") all work.
        self.backend = make_backend(backend)
        #: Optional observability bundle: the backend emits an
        #: ``exec_task`` span per candidate plus per-backend counters.
        self.telemetry = telemetry
        self._hit_rate_memo: Dict[Tuple[int, int], float] = {}

    @property
    def zones(self) -> int:
        """Failure domains each candidate is placed over."""
        return self.survive_zones + 1

    def expected_hit_rate(self, scenario: Scenario) -> float:
        """Replay-estimated cache hit rate for one scenario's workload.

        0.0 without a cache. Memoized per (catalog, rps): the estimate is
        workload- and cache-shaped, not instance-shaped, so one replay
        serves every instance type and replica count.
        """
        if self.cache is None:
            return 0.0
        memo_key = (scenario.catalog_size, scenario.target_rps)
        if memo_key not in self._hit_rate_memo:
            statistics = WorkloadStatistics.bol_like(scenario.catalog_size)
            self._hit_rate_memo[memo_key] = estimate_hit_rate(
                statistics,
                self.cache,
                target_rps=float(scenario.target_rps),
            )
        return self._hit_rate_memo[memo_key]

    # -- capacity estimate ----------------------------------------------------

    def _candidate_profile(
        self,
        model: str,
        scenario: Scenario,
        instance: InstanceType,
        shards: int,
        retrieval: Optional[RetrievalConfig] = None,
    ):
        """Service-time profile a candidate replica would run with.

        At S=1 this is the registry profile; sharded candidates fold the
        full-catalog trace into the largest shard's slice exactly the way
        the experiment driver does, so the analytic seed and the measured
        run agree on what one pod costs. An IVF ``retrieval`` swaps in the
        ANN model's trace for both paths.
        """
        if shards <= 1:
            return self.runner.registry.profile(
                model, scenario.catalog_size, instance.device, "jit",
                retrieval=retrieval,
            )
        trace, _effective, _jit_failed = self.runner.registry.trace(
            model, scenario.catalog_size, "jit", retrieval=retrieval
        )
        asset_model = self.runner.registry.model(
            model, scenario.catalog_size, retrieval=retrieval
        )
        resident = shard_resident_bytes(
            asset_model.resident_bytes(),
            scenario.catalog_size,
            asset_model.embedding_dim,
            shards,
        )
        return shard_service_profile(
            trace, instance.device, scenario.catalog_size, shards, resident
        )

    def estimate_replicas(
        self,
        model: str,
        scenario: Scenario,
        instance: InstanceType,
        shards: int = 1,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> int:
        """Analytic lower bound on the (per-shard) replica count.

        Per-replica capacity: for batching devices the stability limit is
        ``1 / per_item_s`` (the batch absorbs the fixed cost); for CPUs it
        is the worker pool and shared-bandwidth ceiling. Headroom of 25%
        keeps the p90 plausible at the estimate.

        With a result cache configured, only the expected miss fraction of
        the offered load reaches the model — hits answer within the HTTP
        overhead — so the load the capacity must absorb shrinks by the
        replay-estimated hit rate. (Misses still pay the full single-
        inference latency, so the latency feasibility guards are
        unchanged.)
        """
        profile = self._candidate_profile(model, scenario, instance, shards, retrieval)
        device = instance.device
        if device.is_accelerator:
            capacity = 1.0 / max(profile.per_item_s, 1e-9)
            # A request cannot wait less than one full fixed pass; if even
            # an empty system exceeds the SLO, no replica count helps.
            if 2.0 * profile.fixed_s * 1000.0 > self.slo.p90_latency_ms:
                return self.max_replicas + 1
        else:
            single = profile.latency(1)
            worker_cap = device.concurrent_workers / max(single, 1e-9)
            bandwidth_cap = float("inf")
            if device.shared_bandwidth and profile.bytes_per_item > 0:
                bandwidth_cap = device.shared_bandwidth / profile.bytes_per_item
            capacity = min(worker_cap, bandwidth_cap)
            if single * 1000.0 > self.slo.p90_latency_ms:
                return self.max_replicas + 1
        usable = capacity * 0.75
        miss_rps = scenario.target_rps * (1.0 - self.expected_hit_rate(scenario))
        return max(1, int(math.ceil(miss_rps / max(usable, 1e-9))))

    # -- search -------------------------------------------------------------------

    def _option_cost(
        self,
        instance: InstanceType,
        replicas: int,
        shards: int,
        scheduler: Optional[SchedulerConfig],
    ) -> float:
        """Monthly cost of a candidate: primary fleet plus any CPU pods."""
        cost = instance.cost_for(replicas * shards)
        if scheduler is not None and scheduler.cpu_replicas > 0:
            aux = instance_by_name(scheduler.cpu_instance)
            cost += aux.cost_for(scheduler.cpu_replicas)
        return cost

    def min_feasible_replicas(
        self,
        model: str,
        scenario: Scenario,
        instance: InstanceType,
        shards: int = 1,
        retrieval: Optional[RetrievalConfig] = None,
        scheduler: Optional[SchedulerConfig] = None,
    ) -> Optional[DeploymentOption]:
        """Smallest verified per-shard replica count, or None if infeasible.

        With ``survive_zones`` set, feasibility additionally requires the
        candidate to pass a failure drill with that many zones down, and
        the search floor rises to ``survive_zones + 1`` replicas per
        shard — fewer could not keep every shard covered through the
        outage no matter how the scheduler spreads them.
        """
        floor = max(1, self.survive_zones + 1 if self.survive_zones else 1)
        start = max(
            self.estimate_replicas(model, scenario, instance, shards, retrieval),
            floor,
        )

        def measure(replicas: int) -> Optional[RunResult]:
            return self._measure(
                model, scenario, instance, replicas, shards, retrieval, scheduler
            )

        def feasible(replicas: int, result: RunResult) -> bool:
            if not result.meets_slo(
                self.slo.p90_latency_ms, self.slo.max_error_rate
            ):
                return False
            if not self.survive_zones:
                return True
            return self._survives_outage(
                model, scenario, instance, replicas, shards, retrieval,
                scheduler,
            )

        found = search_replicas(start, floor, self.max_replicas, measure, feasible)
        if found is None:
            return None  # infeasible, or cannot even deploy (memory)
        replicas, result = found
        return DeploymentOption(
            instance_type=instance.name,
            replicas=replicas,
            monthly_cost_usd=self._option_cost(
                instance, replicas, shards, scheduler
            ),
            result=result,
            shards=shards,
            retrieval=retrieval.spec_string() if retrieval is not None else None,
            scheduler=scheduler.spec_string() if scheduler is not None else None,
            cpu_replicas=scheduler.cpu_replicas if scheduler is not None else 0,
            survives_zones=self.survive_zones or None,
        )

    def _measure(
        self,
        model: str,
        scenario: Scenario,
        instance: InstanceType,
        replicas: int,
        shards: int = 1,
        retrieval: Optional[RetrievalConfig] = None,
        scheduler: Optional[SchedulerConfig] = None,
    ) -> Optional[RunResult]:
        spec = ExperimentSpec(
            model=model,
            catalog_size=scenario.catalog_size,
            target_rps=scenario.target_rps,
            hardware=HardwareSpec(instance_type=instance.name, replicas=replicas),
            duration_s=self.duration_s,
            cache=self.cache,
            sharding=ShardingConfig(shards=shards) if shards > 1 else None,
            retrieval=retrieval,
            scheduler=scheduler,
            zones=self.zones,
        )
        try:
            return self.runner.run_repeated(spec, repetitions=self.repetitions)
        except DeploymentError:
            return None

    def _survives_outage(
        self,
        model: str,
        scenario: Scenario,
        instance: InstanceType,
        replicas: int,
        shards: int,
        retrieval: Optional[RetrievalConfig],
        scheduler: Optional[SchedulerConfig],
    ) -> bool:
        """Failure-drill verification of one candidate (survive_zones > 0):
        with N zones going *permanently* dark a third of the way in, 200s
        keep flowing at full catalog coverage and p90 stays under the SLO
        for the rest of the run. No-restart is the harsher, cleaner
        capacity statement — the surviving zones alone must carry the
        load; recovery speed is a drill-report metric, not a capacity
        property."""
        from repro.core.drill import run_failure_drill

        spec = ExperimentSpec(
            model=model,
            catalog_size=scenario.catalog_size,
            target_rps=scenario.target_rps,
            hardware=HardwareSpec(instance_type=instance.name, replicas=replicas),
            duration_s=self.duration_s,
            cache=self.cache,
            sharding=ShardingConfig(shards=shards) if shards > 1 else None,
            retrieval=retrieval,
            scheduler=scheduler,
            zones=self.zones,
        )
        try:
            drill = run_failure_drill(
                spec,
                self.slo,
                zones_down=self.survive_zones,
                restart_after_s=None,
                runner=self.runner,
            )
        except DeploymentError:
            return False
        return (
            drill.survived
            and drill.during.p90_ms is not None
            and drill.during.p90_ms <= self.slo.p90_latency_ms
            and drill.result.error_rate <= self.slo.max_error_rate
        )

    # -- the Table I product -----------------------------------------------------------

    def evaluate_candidate(
        self,
        model: str,
        scenario: Scenario,
        instance: InstanceType,
        shards: int = 1,
        retrieval: Optional[RetrievalConfig] = None,
        scheduler: Optional[SchedulerConfig] = None,
    ) -> CandidateOutcome:
        """Evaluate one (instance, shards, retrieval, scheduler) candidate.

        Self-contained and side-effect-free apart from registry
        memoization, so the execution backend can run candidates in any
        process in any order — each produces the same CandidateOutcome
        the old in-line loop body would have folded into the plan.
        """
        # S=1 exact keeps the pre-sharding infeasible key so existing
        # reports/tests read unchanged.
        key = instance.name if shards == 1 else f"{instance.name} (S={shards})"
        recall: Optional[float] = None
        if retrieval is not None:
            key = f"{key} [{retrieval.spec_string()}]"
            recall = self.runner.registry.measured_recall(
                model, scenario.catalog_size, retrieval
            )
            if recall < self.min_recall:
                return CandidateOutcome(
                    key=key,
                    infeasible=(
                        f"recall {recall:.3f} below the "
                        f"{self.min_recall:.2f} floor"
                    ),
                )
        if scheduler is not None:
            key = f"{key} {{{scheduler.spec_string()}}}"
        dimensions = {
            "sharding": shards if shards > 1 else None,
            "retrieval": retrieval,
            "scheduler": scheduler,
        }
        if first_conflict(dimensions) is not None:
            # A declared conflict, not a scenario property — skip quietly.
            return CandidateOutcome(key=key, skipped=True)
        if scheduler is not None and not instance.device.is_accelerator:
            return CandidateOutcome(
                key=key,
                infeasible=(
                    "heterogeneous scheduler needs an accelerator primary fleet"
                ),
            )
        option = self.min_feasible_replicas(
            model, scenario, instance, shards, retrieval, scheduler
        )
        if option is None:
            reason = f"no feasible deployment within {self.max_replicas} replicas"
            if self.survive_zones:
                reason += f" that survives {self.survive_zones} zone outage(s)"
            return CandidateOutcome(key=key, infeasible=reason)
        option.recall = recall
        return CandidateOutcome(key=key, option=option)

    def _task_params(self) -> Dict:
        """Everything a worker needs to rebuild an equivalent planner."""
        return {
            "runner_seed": self.runner.seed,
            "slo": self.slo,
            "duration_s": self.duration_s,
            "max_replicas": self.max_replicas,
            "repetitions": self.repetitions,
            "cache": self.cache,
            "min_recall": self.min_recall,
            "survive_zones": self.survive_zones,
        }

    def _evaluate_candidates(
        self, model: str, scenario: Scenario, candidates: List[Tuple]
    ) -> List[CandidateOutcome]:
        """Fan candidates out to the execution backend, in grid order.

        The backend returns outcomes in submission order whatever its
        worker count, and worker memo deltas (recalls, traces, profiles)
        are folded back into the parent registry so repeated candidates
        are never re-measured.
        """
        params = self._task_params()
        tasks = [
            ExecTask(
                key=(
                    "plan_candidate",
                    model,
                    scenario.name,
                    instance.name,
                    shards,
                    retrieval.spec_string() if retrieval is not None else None,
                    scheduler.spec_string() if scheduler is not None else None,
                ),
                kind="plan_candidate",
                payload={
                    "params": params,
                    "model": model,
                    "scenario": scenario,
                    "instance": instance.name,
                    "shards": shards,
                    "retrieval": retrieval,
                    "scheduler": scheduler,
                },
            )
            for instance, shards, retrieval, scheduler in candidates
        ]
        results = self.backend.run_tasks(
            tasks, context=self, telemetry=self.telemetry
        )
        outcomes: List[CandidateOutcome] = []
        for task_outcome in results:
            if task_outcome.memos:
                self.runner.registry.absorb_memos(task_outcome.memos)
            outcomes.append(task_outcome.value)
        return outcomes

    def plan(
        self,
        scenario: Scenario,
        models: Sequence[str],
        instances: Optional[Sequence[InstanceType]] = None,
    ) -> Dict[str, ScenarioPlan]:
        """Evaluate every model on every instance type for one scenario.

        Candidates are independent, so they run on the configured
        execution backend; the merge is canonical — infeasible entries in
        grid order, options sorted by :func:`option_sort_key` — making
        the plan byte-identical across backends and worker counts.
        """
        instances = list(instances or INSTANCE_TYPES)
        plans: Dict[str, ScenarioPlan] = {}
        for model in models:
            plan = ScenarioPlan(scenario=scenario, model=model)
            candidates = [
                (instance, shards, retrieval, scheduler)
                for instance in instances
                for shards in self.shard_counts
                for retrieval in self.retrieval_options
                for scheduler in self.scheduler_options
            ]
            for outcome in self._evaluate_candidates(model, scenario, candidates):
                if outcome.skipped:
                    continue
                if outcome.infeasible is not None:
                    plan.infeasible[outcome.key] = outcome.infeasible
                else:
                    plan.options.append(outcome.option)
            plan.options.sort(key=option_sort_key)
            plans[model] = plan
        return plans
