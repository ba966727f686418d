"""The end-to-end experiment driver — ``make run_deployed_benchmark``.

One run, as the paper describes it: upload the model artifact to the
bucket, deploy it on Kubernetes, wait for the readiness probes, expose a
ClusterIP service, start the load generator on another machine, ramp the
load to the target throughput over the duration, measure, and persist the
results.

:meth:`ExperimentRunner.run_repeated` implements the paper's repetition
protocol: "We execute each configuration three times and ignore the runs
with the lowest and highest latencies."
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from typing import TYPE_CHECKING, List, Optional

from repro.cluster.kubernetes import AuxiliaryFleet, Cluster, DeploymentError
from repro.cluster.provisioning import Infrastructure, make_infra
from repro.cluster.service import ClusterIPService
from repro.core.registry import GLOBAL_REGISTRY, AssetRegistry, ServingAssets
from repro.core.spec import ExperimentSpec
from repro.hardware.instances import instance_by_name
from repro.loadgen.generator import LoadGenerator
from repro.metrics.collector import MetricsCollector
from repro.metrics.results import LatencySeries, RunResult
from repro.scheduler import HillClimbTuner, QueryDispatcher, SchedulerRuntime
from repro.serving.batching import BatchingConfig
from repro.serving.profiles import ActixProfile
from repro.sharding.config import largest_shard_fraction
from repro.sharding.plan import (
    shard_resident_bytes,
    shard_score_bytes_per_item,
    shard_service_profile,
)
from repro.simulation import Simulator
from repro.tenancy.fleet import TenantServing
from repro.tenancy.rollout import TenantRollout
from repro.tenancy.split import TrafficSplitter
from repro.tensor.serialization import save_module_state
from repro.workload.synthetic import SyntheticWorkloadGenerator

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry


class ExperimentRunner:
    """Runs declaratively specified benchmarks on the simulated cluster."""

    #: JIT warm-up on pod start (tracing + optimizing on first requests).
    JIT_WARMUP_S = 3.0

    def __init__(
        self,
        infra: Optional[Infrastructure] = None,
        registry: Optional[AssetRegistry] = None,
        seed: int = 1234,
    ):
        self.infra = infra or make_infra(seed)
        self.registry = registry or GLOBAL_REGISTRY
        self.seed = seed

    # -- artifacts ------------------------------------------------------------

    def _artifact_path(self, assets: ServingAssets) -> str:
        # The ANN suffix makes the artifact version — and therefore every
        # cache key derived from it — change when index parameters change,
        # so a redeploy with a different nlist/nprobe never serves stale
        # cached recommendations.
        index = getattr(assets.model, "index", None)
        nlist = getattr(index, "logical_nlist", None)
        suffix = f"-ivf{nlist}x{index.nprobe}" if nlist is not None else ""
        return (
            f"models/{assets.model_name}"
            f"-c{assets.catalog_size}-{assets.execution_effective}{suffix}.pt"
        )

    def _ensure_artifact(self, assets: ServingAssets) -> str:
        path = self._artifact_path(assets)
        if not self.infra.bucket.exists(path):
            payload = save_module_state(
                assets.model, metadata=assets.model.artifact_metadata()
            )
            self.infra.bucket.upload(path, payload)
        return path

    # -- running -----------------------------------------------------------------

    def run(
        self, spec: ExperimentSpec, telemetry: Optional["Telemetry"] = None
    ) -> RunResult:
        """Deploy + load-test one configuration; returns the measurements.

        Pass a :class:`~repro.obs.telemetry.Telemetry` to record per-request
        spans and cluster metrics for this run (see ``docs/observability.md``);
        with the default ``None`` the run carries zero instrumentation.

        The run's simulator and cluster are its own, never stored on the
        infrastructure: once this returns, normally or by raising, the
        servers, spans and workload item pool live only as long as the
        result and the caller's ``telemetry`` reach them. The simulator
        is closed when it stops, so no suspended process keeps them
        either: an untraced run is freed by reference counting when this
        returns, without a pass of the cyclic collector.
        """
        instance = instance_by_name(spec.hardware.instance_type)
        # ANN retrieval swaps the scoring head behind the same assets
        # pipeline; None (the spec stores "exact" as None) leaves every
        # asset exactly the config-less one — the bit-identity contract.
        retrieval = spec.retrieval
        assets = self.registry.assets(
            spec.model,
            spec.catalog_size,
            instance.device,
            spec.execution,
            top_k=spec.top_k,
            retrieval=retrieval,
        )
        artifact = self._ensure_artifact(assets)

        # Every stream this run consumes — workload, network, retries, and
        # the cluster's provisioning/server-noise draws — derives from
        # (infra seed, spec seed) alone, never from how many runs this
        # runner executed before. Hermetic runs are what make the parallel
        # execution backend's child-process evaluations bit-identical to a
        # serial sweep (docs/parallelism.md).
        streams = self.infra.streams.fork(spec.seed)
        simulator = Simulator()
        cluster = Cluster(simulator, self.infra.bucket, streams.stream("cluster"))
        if telemetry is not None:
            telemetry.bind(simulator)

        # Overload protection, the result cache and the ANN descriptor
        # ride on the server profile; with all of them None it is the
        # profile a server uses when given none.
        server_profile = ActixProfile(
            admission=spec.admission,
            fallback=spec.fallback,
            cache=spec.cache,
            # Resolve the auto nlist so server telemetry reports the index
            # actually built, not the unexpanded spec.
            retrieval=(
                None
                if retrieval is None
                else replace(retrieval, nlist=assets.model.index.logical_nlist)
            ),
        )

        # Catalog sharding: each pod hosts one catalog slice, so the
        # deployed profile / footprint / score traffic shrink to the
        # largest shard's share. Disabled (None; the spec stores S=1 as
        # None) leaves every value exactly the full-catalog one — the
        # bit-identity contract.
        sharding = spec.sharding
        service_profile = assets.profile
        resident_bytes = assets.resident_bytes
        score_bytes = assets.score_bytes_per_item
        if sharding is not None:
            if not assets.model.supports_quantized_head:
                raise DeploymentError(
                    f"model {spec.model!r} fuses its scoring head into "
                    "forward(); catalog sharding needs a separable "
                    "encode/score split"
                )
            resident_bytes = shard_resident_bytes(
                assets.resident_bytes,
                spec.catalog_size,
                assets.model.embedding_dim,
                sharding.shards,
            )
            score_bytes = shard_score_bytes_per_item(
                assets.score_bytes_per_item, spec.catalog_size, sharding.shards
            )
            service_profile = shard_service_profile(
                assets.trace,
                instance.device,
                spec.catalog_size,
                sharding.shards,
                resident_bytes=resident_bytes,
            )

        # Index construction happens on every pod between model load and
        # readiness (the artifact ships embeddings, not the trained index);
        # under sharding each pod clusters only its catalog slice.
        index_build_s = 0.0
        if retrieval is not None:
            build_catalog = spec.catalog_size
            if sharding is not None:
                build_catalog = int(
                    spec.catalog_size
                    * largest_shard_fraction(spec.catalog_size, sharding.shards)
                )
            index_build_s = retrieval.index_build_seconds(
                build_catalog, assets.model.embedding_dim, instance.device
            )

        # Heterogeneous scheduler: a CPU pod pool beside the (GPU) primary
        # fleet plus self-tuning batching. Disabled (None; the spec stores
        # "off" as None) leaves the deployment call byte-for-byte the
        # single-class one.
        scheduler = spec.scheduler
        auxiliary = None
        batching = BatchingConfig()
        if scheduler is not None:
            batching = BatchingConfig(
                max_batch_size=scheduler.max_batch,
                max_delay_s=scheduler.linger_s,
            )
            if scheduler.cpu_replicas > 0:
                cpu_instance = instance_by_name(scheduler.cpu_instance)
                # Same model object, CPU-calibrated service times: both
                # classes produce identical recommendations, only the
                # latency profile differs.
                cpu_profile = self.registry.profile(
                    spec.model,
                    spec.catalog_size,
                    cpu_instance.device,
                    spec.execution,
                    top_k=spec.top_k,
                    retrieval=retrieval,
                )
                auxiliary = AuxiliaryFleet(
                    instance_type=cpu_instance,
                    replicas=scheduler.cpu_replicas,
                    service_profile=cpu_profile,
                    resident_bytes=assets.resident_bytes,
                )

        # Co-located tenant fleet: every pod hosts every tenant's artifact
        # under the instance's memory budget. Disabled (None) leaves the
        # deployment call byte-for-byte the single-model one.
        tenancy = spec.tenants
        tenant_servings: Optional[List[TenantServing]] = None
        if tenancy is not None:
            # Lazy import: placement reaches back into the planner (which
            # imports this module) for the standalone baseline.
            from repro.tenancy.placement import check_colocation

            tenant_assets = {}
            tenant_servings = []
            for tenant in tenancy.tenants:
                t_assets = tenant_assets.get(tenant.model)
                if t_assets is None:
                    t_assets = self.registry.assets(
                        tenant.model,
                        spec.catalog_size,
                        instance.device,
                        spec.execution,
                        top_k=spec.top_k,
                    )
                    tenant_assets[tenant.model] = t_assets
                    self._ensure_artifact(t_assets)
                version = self._artifact_path(t_assets)
                tenant_servings.append(
                    TenantServing(
                        config=tenant,
                        model=t_assets.model,
                        service_profile=t_assets.profile,
                        artifact_version=version,
                        canary_version=(
                            f"{version}+next"
                            if tenant.canary_fraction > 0
                            else None
                        ),
                        resident_bytes=t_assets.resident_bytes,
                        score_bytes_per_item=t_assets.score_bytes_per_item,
                    )
                )
            # Budget check with a per-tenant breakdown; the cluster's
            # generic fit checks re-verify the summed footprint below.
            resident_bytes = check_colocation(instance, tenant_servings)
            score_bytes = max(
                s.score_bytes_per_item for s in tenant_servings
            )

        deployment = cluster.deploy_model(
            name=f"{spec.model}-bench",
            instance_type=instance,
            replicas=spec.hardware.replicas,
            artifact_path=artifact,
            service_profile=service_profile,
            server_profile=server_profile,
            resident_bytes=resident_bytes,
            score_bytes_per_item=score_bytes,
            batching=batching,
            jit_warmup_s=(
                self.JIT_WARMUP_S if assets.execution_effective == "jit" else 0.0
            ),
            load_bytes=resident_bytes,
            telemetry=telemetry,
            sharding=sharding,
            index_build_s=index_build_s,
            auxiliary=auxiliary,
            zones=spec.zones,
            tenants=tenant_servings,
            tenant_fair_depth=(
                tenancy.fair_depth if tenancy is not None else 64
            ),
        )

        workload = SyntheticWorkloadGenerator(
            spec.workload_statistics(),
            seed=int(streams.stream("workload").integers(2**31)),
        )
        collector = MetricsCollector()
        state = {}
        if retrieval is not None:
            index = assets.model.index
            state["retrieval"] = {
                "config": retrieval.spec_string(),
                "kind": retrieval.kind,
                "nlist": index.logical_nlist,
                "nprobe": index.nprobe,
                "probed_fraction": index.probed_fraction(),
                "index_build_s": index_build_s,
                # Measured on the materialized embedding rows (the
                # i.i.d.-rows proxy of docs/retrieval.md), memoized per
                # (model, catalog, index parameters).
                "recall_at_k": self.registry.measured_recall(
                    spec.model, spec.catalog_size, retrieval, top_k=spec.top_k
                ),
            }

        def coordinator():
            yield deployment.ready_signal
            dispatcher = None
            if scheduler is not None:
                dispatcher = QueryDispatcher(scheduler, telemetry=telemetry)
            service = ClusterIPService(
                simulator, deployment, streams.stream("network"),
                telemetry=telemetry,
                routing=spec.routing,
                top_k=spec.top_k,
                catalog_size=spec.catalog_size,
                dispatcher=dispatcher,
            )
            submit = service.submit
            if tenancy is not None:
                # The splitter *is* the generator's submit function: the
                # client stream is attributed to tenants without touching
                # the generator or the collector.
                splitter = TrafficSplitter(
                    tenancy, service.submit, simulator, telemetry=telemetry
                )
                submit = splitter.submit
                state["splitter"] = splitter
            generator = LoadGenerator(
                simulator=simulator,
                submit=submit,
                session_source=workload.iter_sessions(),
                target_rps=spec.target_rps,
                duration_s=spec.duration_s,
                collector=collector,
                telemetry=telemetry,
                retry_policy=spec.retry,
                retry_rng=(
                    streams.stream("retry") if spec.retry is not None else None
                ),
                slo_deadline_s=spec.slo_deadline_s,
            )
            generator.start()
            if tenancy is not None:
                # Rollouts anchor at load start, like chaos events.
                rollouts = []
                for tenant in tenancy.tenants:
                    if tenant.rollout_at_s is None:
                        continue
                    rollout = TenantRollout(
                        simulator,
                        deployment,
                        tenant,
                        start_at_s=simulator.now + tenant.rollout_at_s,
                        telemetry=telemetry,
                    )
                    rollout.schedule()
                    rollouts.append(rollout)
                state["rollouts"] = rollouts
            if scheduler is not None:
                tuner = None
                if scheduler.tune:
                    fitted = cluster.fit_batching(
                        instance, resident_bytes, score_bytes,
                        BatchingConfig(
                            max_batch_size=2**20,
                            max_delay_s=scheduler.linger_s,
                        ),
                    )
                    tuner = HillClimbTuner(
                        scheduler, batch_cap=fitted.max_batch_size
                    )
                runtime = SchedulerRuntime(
                    simulator, scheduler, deployment, dispatcher, tuner,
                    telemetry=telemetry,
                )
                simulator.spawn(
                    runtime.epoch_process(simulator.now + spec.duration_s)
                )
                state["scheduler"] = runtime
            if spec.chaos is not None:
                # Installed at load start so event times are relative to
                # the ramp, not to however long provisioning took.
                state["chaos"] = spec.chaos.install(
                    simulator,
                    cluster=cluster,
                    deployment=deployment,
                    service=service,
                    telemetry=telemetry,
                )
            state["generator"] = generator
            state["service"] = service
            state["deployment"] = deployment
            state["started_at"] = simulator.now

        simulator.spawn(coordinator())
        try:
            simulator.run()
        finally:
            simulator.close()

        return self._build_result(spec, assets, collector, state, telemetry)

    def _build_result(
        self,
        spec: ExperimentSpec,
        assets: ServingAssets,
        collector: MetricsCollector,
        state: dict,
        telemetry: Optional["Telemetry"] = None,
    ) -> RunResult:
        generator = state["generator"]
        service = state["service"]
        # Every server each pod ran: a restarted pod starts fresh
        # counters, and what its crashed server tallied still counts.
        servers = [
            server for pod in state["deployment"].pods for server in pod.servers
        ]
        series = LatencySeries.from_collector(collector)
        execution = assets.execution_effective
        if assets.jit_fell_back:
            execution = "jit-fallback-eager"
        result = RunResult(
            model=spec.model,
            instance_type=spec.hardware.instance_type,
            replicas=spec.hardware.replicas,
            catalog_size=spec.catalog_size,
            target_rps=spec.target_rps,
            duration_s=spec.duration_s,
            execution_mode=execution,
            total_requests=collector.total,
            ok_requests=collector.ok,
            error_requests=collector.errors,
            achieved_rps=collector.achieved_throughput(),
            p50_ms=collector.percentile_ms(50) if collector.ok else None,
            p90_ms=collector.percentile_ms(90) if collector.ok else None,
            p99_ms=collector.percentile_ms(99) if collector.ok else None,
            p90_at_target_ms=series.p90_at_load(spec.target_rps),
            mean_inference_ms=(
                collector.inference.mean() * 1000.0
                if len(collector.inference)
                else None
            ),
            series=series if spec.collect_series else None,
            backpressure_stalls=generator.backpressure_stalls,
        )
        if spec.retry is not None or spec.chaos is not None:
            chaos = state.get("chaos")
            result.resilience = {
                "retry_policy": (
                    spec.retry.spec_string() if spec.retry is not None else None
                ),
                "retries": generator.retries,
                "hedges": generator.hedges,
                "retry_successes": generator.retry_successes,
                "retry_exhausted": generator.retry_exhausted,
                "chaos_schedule": (
                    spec.chaos.spec_string() if spec.chaos is not None else None
                ),
                "chaos_events": chaos.fired if chaos is not None else [],
            }
        overload_on = (
            spec.slo_deadline_s is not None
            or spec.admission is not None
            or spec.routing is not None
            or spec.fallback is not None
        )
        if overload_on:
            result.overload = {
                "slo_deadline_s": spec.slo_deadline_s,
                "admission": (
                    spec.admission.spec_string()
                    if spec.admission is not None
                    else None
                ),
                "routing": (
                    spec.routing.spec_string()
                    if spec.routing is not None
                    else None
                ),
                "fallback": (
                    spec.fallback.spec_string()
                    if spec.fallback is not None
                    else None
                ),
                "shed_deadline": sum(s.shed_deadline for s in servers),
                "shed_codel": sum(s.shed_codel for s in servers),
                "shed_queue_full": sum(s.shed_queue_full for s in servers),
                "degraded_served": sum(s.degraded_served for s in servers),
                "degraded_fraction": collector.degraded_fraction,
                "ejections": service.ejections,
                "probe_recoveries": service.probe_recoveries,
                "p90_full_ms": collector.percentile_full_ms(90),
                "p90_degraded_ms": collector.percentile_degraded_ms(90),
            }
        if spec.cache is not None:
            tallies = {
                "hits_local": 0, "hits_remote": 0, "misses": 0,
                "fills": 0, "coalesced": 0, "evictions": 0, "expirations": 0,
            }
            remote_entries = None
            for server in servers:
                if server.cache is None:
                    continue
                for key, value in server.cache.stats().items():
                    tallies[key] += value
                if server.cache.remote is not None:
                    remote_entries = len(server.cache.remote)
            lookups = tallies["hits_local"] + tallies["hits_remote"] + tallies["misses"]
            result.cache = {
                "config": spec.cache.spec_string(),
                **tallies,
                "hit_rate": (
                    (tallies["hits_local"] + tallies["hits_remote"]) / lookups
                    if lookups
                    else 0.0
                ),
                "hit_fraction": collector.cache_hit_fraction,
                "remote_entries": remote_entries,
                "p90_hit_ms": collector.percentile_hit_ms(90),
                "p90_miss_ms": collector.percentile_miss_ms(90),
            }
        if spec.sharding is not None:
            result.sharding = {
                "config": spec.sharding.spec_string(),
                "replicas_per_shard": spec.hardware.replicas,
                **service.aggregator.stats(),
            }
        if spec.scheduler is not None:
            result.scheduler = state["scheduler"].summary()
        if spec.retrieval is not None:
            info = dict(state.get("retrieval") or {})
            info["ann_queries"] = sum(s.ann_queries for s in servers)
            info["ann_probed_lists"] = sum(s.ann_probed_lists for s in servers)
            result.retrieval = info
        if spec.zones > 1:
            result.availability = self._availability_section(spec, state)
        if spec.tenants is not None:
            shed_by_tenant: dict = {}
            for server in servers:
                for name, count in server.shed_by_tenant.items():
                    shed_by_tenant[name] = shed_by_tenant.get(name, 0) + count
            rollouts = [r.summary() for r in state["rollouts"]]
            result.tenancy = state["splitter"].summary(
                duration_s=spec.duration_s,
                shed_by_tenant=shed_by_tenant,
                rollouts=rollouts or None,
            )
        if telemetry is not None:
            from repro.obs.export import stage_breakdown

            report = stage_breakdown(telemetry.trace)
            if report is not None:
                result.stage_breakdown = report.to_dict()
        self._persist_result(spec, result)
        return result

    @staticmethod
    def _availability_section(spec: ExperimentSpec, state: dict) -> dict:
        """The failure-domain report for a ``zones > 1`` run.

        Time-to-recovery per injected zone outage: the interval from the
        correlated crash until the *last* victim pod's readiness probe
        flipped back. ``None`` (infinite) when any victim was still dark
        at run end — e.g. ``restart=none`` chaos.
        """
        service = state["service"]
        chaos = state.get("chaos")
        pods_per_zone: dict = {}
        by_name = {}
        for pod in state["deployment"].pods:
            pods_per_zone[pod.zone] = pods_per_zone.get(pod.zone, 0) + 1
            by_name[pod.name] = pod
        outages = []
        overall_ttr: Optional[float] = None
        for event in chaos.zone_outages if chaos is not None else []:
            recovered_at: Optional[float] = event["at_s"]
            for name in event["pods"]:
                pod = by_name.get(name)
                if pod is None or not pod.ready or pod.ready_at <= event["at_s"]:
                    recovered_at = None
                    break
                recovered_at = max(recovered_at, pod.ready_at)
            ttr = (
                recovered_at - event["at_s"]
                if recovered_at is not None and event["pods"]
                else None
            )
            if ttr is not None:
                overall_ttr = max(overall_ttr or 0.0, ttr)
            outages.append(
                {
                    "zone": event["zone"],
                    "at_s": event["at_s"],
                    "pods_lost": len(event["pods"]),
                    "restart_after_s": event["restart_after_s"],
                    "time_to_recovery_s": ttr,
                }
            )
        return {
            "zones": spec.zones,
            "pods_per_zone": pods_per_zone,
            "home_zone": service.home_zone,
            "cross_zone_legs": service.cross_zone_legs,
            "zone_outages": outages,
            "time_to_recovery_s": overall_ttr,
            "load_started_at_s": state["started_at"],
        }

    def _persist_result(self, spec: ExperimentSpec, result: RunResult) -> None:
        """Results go to the bucket on termination, as in the paper."""
        path = (
            f"results/{spec.model}-c{spec.catalog_size}"
            f"-{spec.hardware.instance_type}-x{spec.hardware.replicas}"
            f"-r{spec.target_rps}-{spec.execution}.json"
        )
        payload = dict(asdict(result))
        payload.pop("series", None)
        self.infra.bucket.upload(path, json.dumps(payload).encode("utf-8"))

    def run_repeated(self, spec: ExperimentSpec, repetitions: int = 3) -> RunResult:
        """Paper protocol: run ``repetitions`` times, drop best and worst
        (by p90), return the median run."""
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        results: List[RunResult] = []
        for repetition in range(repetitions):
            rep_spec = ExperimentSpec(
                **{**asdict_shallow(spec), "seed": spec.seed + repetition}
            )
            results.append(self.run(rep_spec))
        if len(results) < 3:
            return results[0]
        results.sort(key=lambda r: (r.p90_ms if r.p90_ms is not None else float("inf")))
        return results[len(results) // 2]


def asdict_shallow(spec: ExperimentSpec) -> dict:
    """Dataclass fields without deep-copying nested dataclasses."""
    return {name: getattr(spec, name) for name in spec.__dataclass_fields__}
