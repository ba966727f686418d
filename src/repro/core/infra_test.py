"""The serving-infrastructure test of Figure 2.

"In order to measure the serving performance of TorchServe independent of
the model inference overhead, we deploy TorchServe on a 2 vCPU e2 machine
with 2GB of memory, and implement a Python model that returns an empty
response and does not conduct any computation. Next, we configure our load
generator to ramp up to 1,000 requests per second over the duration of ten
minutes, and measure the response latencies. We deploy our Actix-based
inference server analogously."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.registry import GLOBAL_REGISTRY, AssetRegistry
from repro.core.spec import FEATURE_BY_FIELD, first_conflict
from repro.hardware.device import DeviceModel
from repro.loadgen.generator import LoadGenerator
from repro.metrics.collector import MetricsCollector
from repro.metrics.results import LatencySeries
from repro.serving.actix import EtudeInferenceServer
from repro.serving.batching import BatchingConfig
from repro.serving.profiles import ActixProfile
from repro.serving.torchserve import TorchServeServer
from repro.sharding.gather import ScatterGatherAggregator
from repro.tenancy.fleet import TenantServing
from repro.tenancy.split import TrafficSplitter
from repro.hardware.latency_model import NetworkHop
from repro.simulation import LognormalJitter, RandomStreams, Simulator
from repro.workload.statistics import WorkloadStatistics
from repro.workload.synthetic import SyntheticWorkloadGenerator

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry

#: The small machine the infra test runs on (2 vCPUs, 2 GB).
INFRA_TEST_DEVICE = DeviceModel(
    name="cpu-e2-small",
    kind="cpu",
    flops_per_s=2.0e10,
    weight_bandwidth=4.5e9,
    activation_bandwidth=4.5e9,
    launch_overhead_s=5.0e-6,
    per_request_overhead_s=1.5e-4,
    memory_bytes=2e9,
    concurrent_workers=2,
    shared_bandwidth=1.2e10,
)


@dataclass
class InfraTestResult:
    """Outcome of one Figure 2 run."""

    server: str
    target_rps: int
    duration_s: float
    total: int
    ok: int
    errors: int
    p50_ms: Optional[float]
    p90_ms: Optional[float]
    p99_ms: Optional[float]
    series: LatencySeries
    retries: int = 0
    hedges: int = 0
    chaos_events: List[Dict] = field(default_factory=list)
    #: Overload-protection tallies, present when the run had an SLO
    #: deadline, admission control or a fallback tier configured.
    overload: Optional[Dict] = None
    #: Result-cache tallies, present when the run had a cache with
    #: non-zero capacity configured.
    cache: Optional[Dict] = None
    #: Catalog-sharding tallies (fan-outs, partial responses, coverage),
    #: present when the run sharded the catalog (S > 1).
    sharding: Optional[Dict] = None
    #: ANN retrieval tallies (queries, probed lists), present when the run
    #: served with an enabled IVF retrieval mode.
    retrieval: Optional[Dict] = None
    #: Per-tenant routing/shedding tallies, present when the run split
    #: traffic across a tenant fleet (``--tenants``).
    tenancy: Optional[Dict] = None

    @property
    def error_rate(self) -> float:
        return self.errors / self.total if self.total else 0.0


#: The dimensions the infra test takes, by spec field name (FEATURES rows).
INFRA_TEST_FEATURES = (
    "retry", "chaos", "slo_deadline_s", "admission", "fallback", "cache",
    "sharding", "retrieval", "tenants",
)

#: Dimensions only the Actix server implements, each with the message
#: that rejects it on TorchServe (checked in this order).
ACTIX_ONLY: Dict[str, str] = {
    "chaos": "--chaos needs the actix server's fault hooks",
    "admission": "--admission/--fallback are actix-server features",
    "fallback": "--admission/--fallback are actix-server features",
    "cache": "--cache is an actix-server feature",
    "sharding": "--shards is an actix-server feature",
    "retrieval": "--retrieval is an actix-server feature",
    "tenants": "--tenants is an actix-server feature",
}


def infra_test_features(server_kind: str, **features: Any) -> Dict[str, Any]:
    """Every :data:`INFRA_TEST_FEATURES` field, as a spec would store it.

    ``features`` holds text or configs by spec field name. Raises
    ValueError, before anything is built, for an unknown server or
    dimension, a declared conflict or an :data:`ACTIX_ONLY` dimension on
    TorchServe.
    """
    if server_kind not in ("torchserve", "actix"):
        raise ValueError("server_kind must be 'torchserve' or 'actix'")
    unknown = sorted(set(features) - set(INFRA_TEST_FEATURES))
    if unknown:
        raise ValueError(f"the infra test takes no {unknown} dimension")
    values = {
        field: FEATURE_BY_FIELD[field].coerce(features.get(field))
        for field in INFRA_TEST_FEATURES
    }
    conflict = first_conflict(values)
    if conflict is not None:
        raise ValueError(conflict)
    if server_kind != "actix":
        for field, message in ACTIX_ONLY.items():
            if values[field] is not None:
                raise ValueError(message)
    return values


def run_infra_test(
    server_kind: str,
    target_rps: int = 1000,
    duration_s: float = 600.0,
    seed: int = 1234,
    registry: Optional[AssetRegistry] = None,
    telemetry: Optional["Telemetry"] = None,
    **features: Any,
) -> InfraTestResult:
    """Run the no-inference serving test with one of the two stacks.

    ``telemetry`` (optional) records spans + metrics for the run; only the
    Actix stack is instrumented (see ``docs/observability.md``).
    ``features`` are :data:`INFRA_TEST_FEATURES` dimensions, named and
    valued as on :class:`~repro.core.spec.ExperimentSpec`. ``chaos``
    targets the single bare server (crashes recover in place);
    ``sharding`` puts one bare server per shard behind a scatter-gather
    front; ``retrieval`` only stamps the ANN descriptor on the server
    (the no-op model does no scoring); ``tenants`` splits the client
    stream across a fleet whose tenants all serve the no-op profile, so
    it validates routing, per-tenant deadlines and weighted-fair shedding
    without model inference (``docs/tenancy.md``).
    """
    (  # In INFRA_TEST_FEATURES order.
        retry, chaos, slo_deadline_s, admission, fallback, cache, sharding,
        retrieval, tenants,
    ) = infra_test_features(server_kind, **features).values()
    registry = registry or GLOBAL_REGISTRY
    assets = registry.assets("noop", 1, INFRA_TEST_DEVICE, "eager", top_k=1)

    simulator = Simulator()
    streams = RandomStreams(seed)
    if telemetry is not None:
        telemetry.bind(simulator)
    aggregator = None
    if server_kind == "torchserve":
        server = TorchServeServer(
            simulator=simulator,
            device=INFRA_TEST_DEVICE,
            service_profile=assets.profile,
            rng=streams.stream("torchserve"),
            vcpus=2.0,
        )
        servers = [server]
        submit_target = server.submit
    else:
        server_profile = ActixProfile(
            admission=admission, fallback=fallback, cache=cache, retrieval=retrieval
        )
        if sharding is not None:
            # One bare server per shard behind a scatter-gather front;
            # the aggregator charges the fan-out network legs and the
            # merge cost (the figure-2 single-server path has no legs).
            servers = [
                EtudeInferenceServer(
                    simulator=simulator,
                    device=INFRA_TEST_DEVICE,
                    service_profile=assets.profile,
                    rng=streams.stream(f"actix-shard{index}"),
                    profile=server_profile,
                    batching=BatchingConfig(max_batch_size=1, max_delay_s=0.0),
                    telemetry=telemetry,
                    name=f"etude-shard{index}",
                )
                for index in range(sharding.shards)
            ]
            server = servers[0]
            hop = NetworkHop()
            net_jitter = LognormalJitter(streams.stream("shard-net")).draw
            aggregator = ScatterGatherAggregator(
                simulator=simulator,
                config=sharding,
                shard_submits=[shard.submit for shard in servers],
                network_delay=lambda: hop.sample(net_jitter),
                top_k=1,
                telemetry=telemetry,
            )
            submit_target = aggregator.scatter
        else:
            tenant_servings = None
            if tenants is not None:
                # Every tenant serves the no-op profile: the fleet
                # exercises routing, deadlines and fair shedding only.
                tenant_servings = {
                    t.name: TenantServing(
                        config=t,
                        service_profile=assets.profile,
                        artifact_version=f"infra-{t.model}",
                        canary_version=(
                            f"infra-{t.model}+next"
                            if t.canary_fraction > 0
                            else None
                        ),
                    )
                    for t in tenants.tenants
                }
            server = EtudeInferenceServer(
                simulator=simulator,
                device=INFRA_TEST_DEVICE,
                service_profile=assets.profile,
                rng=streams.stream("actix"),
                profile=server_profile,
                batching=BatchingConfig(max_batch_size=1, max_delay_s=0.0),
                telemetry=telemetry,
                tenants=tenant_servings,
                tenant_fair_depth=(
                    tenants.fair_depth if tenants is not None else 64
                ),
            )
            servers = [server]
            submit_target = server.submit

    splitter = None
    if tenants is not None:
        splitter = TrafficSplitter(
            tenants, submit_target, simulator, telemetry=telemetry
        )
        submit_target = splitter.submit

    workload = SyntheticWorkloadGenerator(
        WorkloadStatistics(catalog_size=10_000, alpha_length=1.85, alpha_clicks=1.35),
        seed=seed,
    )
    collector = MetricsCollector()
    generator = LoadGenerator(
        simulator=simulator,
        submit=submit_target,
        session_source=workload.iter_sessions(),
        target_rps=target_rps,
        duration_s=duration_s,
        collector=collector,
        telemetry=telemetry,
        retry_policy=retry,
        retry_rng=streams.stream("retry") if retry is not None else None,
        slo_deadline_s=slo_deadline_s,
    )
    generator.start()
    controller = None
    if chaos is not None:
        controller = chaos.install(
            simulator, servers=servers, telemetry=telemetry
        )
    try:
        simulator.run()
    finally:
        simulator.close()

    overload = None
    if slo_deadline_s is not None or admission is not None or fallback is not None:
        overload = {
            "slo_deadline_s": slo_deadline_s,
            "admission": (
                admission.spec_string() if admission is not None else None
            ),
            "fallback": (
                fallback.spec_string() if fallback is not None else None
            ),
            "shed_deadline": sum(getattr(s, "shed_deadline", 0) for s in servers),
            "shed_codel": sum(getattr(s, "shed_codel", 0) for s in servers),
            "shed_queue_full": sum(
                getattr(s, "shed_queue_full", 0) for s in servers
            ),
            "degraded_served": sum(
                getattr(s, "degraded_served", 0) for s in servers
            ),
            "degraded_fraction": collector.degraded_fraction,
            "p90_full_ms": collector.percentile_full_ms(90),
            "p90_degraded_ms": collector.percentile_degraded_ms(90),
        }

    cache_section = None
    if cache is not None:
        stats: Dict[str, int] = {}
        for server in servers:
            for key, value in server.cache.stats().items():
                stats[key] = stats.get(key, 0) + value
        hits = stats.get("hits_local", 0) + stats.get("hits_remote", 0)
        lookups = hits + stats.get("misses", 0)
        cache_section = {
            "config": cache.spec_string(),
            **stats,
            "hit_rate": hits / lookups if lookups else 0.0,
            "hit_fraction": collector.cache_hit_fraction,
            "p90_hit_ms": collector.percentile_hit_ms(90),
            "p90_miss_ms": collector.percentile_miss_ms(90),
        }

    sharding_section = None
    if aggregator is not None:
        sharding_section = {
            "config": sharding.spec_string(),
            **aggregator.stats(),
            "per_shard_completed": [s.completed for s in servers],
        }

    retrieval_section = None
    if retrieval is not None:
        retrieval_section = {
            "config": retrieval.spec_string(),
            "nprobe": retrieval.nprobe,
            "ann_queries": sum(
                getattr(s, "ann_queries", 0) for s in servers
            ),
            "ann_probed_lists": sum(
                getattr(s, "ann_probed_lists", 0) for s in servers
            ),
        }

    tenancy_section = None
    if splitter is not None:
        shed_by_tenant: Dict[str, int] = {}
        for s in servers:
            for name, count in (getattr(s, "shed_by_tenant", None) or {}).items():
                shed_by_tenant[name] = shed_by_tenant.get(name, 0) + count
        tenancy_section = splitter.summary(
            duration_s=duration_s, shed_by_tenant=shed_by_tenant
        )

    return InfraTestResult(
        server=server_kind,
        target_rps=target_rps,
        duration_s=duration_s,
        total=collector.total,
        ok=collector.ok,
        errors=collector.errors,
        p50_ms=collector.percentile_ms(50) if collector.ok else None,
        p90_ms=collector.percentile_ms(90) if collector.ok else None,
        p99_ms=collector.percentile_ms(99) if collector.ok else None,
        series=LatencySeries.from_collector(collector),
        retries=generator.retries,
        hedges=generator.hedges,
        chaos_events=controller.fired if controller is not None else [],
        overload=overload,
        cache=cache_section,
        sharding=sharding_section,
        retrieval=retrieval_section,
        tenancy=tenancy_section,
    )
