"""Declarative experiment specifications — the ETUDE user interface.

A data scientist describes *what* to evaluate (model, catalog statistics,
hardware, constraints); ETUDE takes care of deployment, load generation and
measurement. These dataclasses are that declarative surface, including the
five end-to-end use-case scenarios of Table I.

:data:`FEATURES` lists the spec's optional dimensions once; the spec's own
coercion, the spec-file format (``specfile.py``) and the command-line flags
(``cli.py``) are all derived from it. :data:`CONFLICTS` lists the pairs of
dimensions that cannot be deployed together; a spec that sets both sides
of one is rejected when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional, Tuple, Union

from repro.ann.config import RetrievalConfig
from repro.cache.tier import CacheConfig
from repro.scheduler.config import SchedulerConfig
from repro.cluster.chaos import ChaosSchedule, ZoneOutage
from repro.cluster.kubernetes import zone_name
from repro.cluster.routing import RoutingPolicy
from repro.loadgen.retry import RetryPolicy
from repro.serving.admission import AdmissionPolicy
from repro.serving.fallback import FallbackConfig
from repro.sharding.config import ShardingConfig
from repro.tenancy.config import TenancyConfig
from repro.workload.statistics import WorkloadStatistics


@dataclass(frozen=True)
class SLO:
    """Latency/throughput constraints (paper: p90 <= 50 ms)."""

    p90_latency_ms: float = 50.0
    max_error_rate: float = 0.01


@dataclass(frozen=True)
class HardwareSpec:
    """Where to deploy: instance type (catalog name) and replica count."""

    instance_type: str = "CPU"
    replicas: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


@dataclass(frozen=True)
class ExperimentSpec:
    """One deployed benchmark run."""

    model: str
    catalog_size: int
    target_rps: int
    hardware: HardwareSpec = HardwareSpec()
    duration_s: float = 600.0
    #: "jit" / "onnx" fall back to eager when the model cannot be traced.
    execution: str = "jit"
    top_k: int = 21
    workload: Optional[WorkloadStatistics] = None
    seed: int = 1234
    collect_series: bool = True
    #: Client retry/hedging behaviour (None = every error is terminal).
    #: Accepts a :class:`~repro.loadgen.retry.RetryPolicy` or its compact
    #: spec string (``"max=3,base=0.05"``; ``""`` = defaults).
    retry: Optional[Union[RetryPolicy, str]] = None
    #: Fault-injection schedule anchored at load start (None = no chaos).
    #: Accepts a :class:`~repro.cluster.chaos.ChaosSchedule` or its compact
    #: spec string (``"crash@60:restart=20"``).
    chaos: Optional[Union[ChaosSchedule, str]] = None
    #: Per-request latency SLO in seconds; the load generator stamps each
    #: request with ``sent_at + slo_deadline_s`` so admission control can
    #: shed doomed work. None = no deadlines (the paper's behaviour).
    slo_deadline_s: Optional[float] = None
    #: Deadline-aware admission control on the Actix server (None = queue
    #: without shedding). Accepts an
    #: :class:`~repro.serving.admission.AdmissionPolicy` or its compact spec
    #: string (``"codel,slack=0.01"``; ``""`` = FIFO defaults).
    admission: Optional[Union[AdmissionPolicy, str]] = None
    #: Health-aware service routing (None = the paper's plain round-robin).
    #: Accepts a :class:`~repro.cluster.routing.RoutingPolicy` or its
    #: compact spec string (``"lor,eject=3"``; ``""`` = plain round-robin).
    routing: Optional[Union[RoutingPolicy, str]] = None
    #: Graceful-degradation tier (None = sheds surface as 503s). Accepts a
    #: :class:`~repro.serving.fallback.FallbackConfig` or its compact spec
    #: string (``"budget=0.002,topk=21"``; ``""`` = defaults).
    fallback: Optional[Union[FallbackConfig, str]] = None
    #: Session-prefix result cache + request coalescing (None = every
    #: request runs the model, the paper's behaviour). Accepts a
    #: :class:`~repro.cache.tier.CacheConfig` or its compact spec string
    #: (``"lfu,capacity=8192,window=4"``; ``""`` = LRU defaults).
    cache: Optional[Union[CacheConfig, str]] = None
    #: Catalog sharding with scatter-gather top-k (None or S=1 = the
    #: paper's single-slice serving). ``replicas`` is then *per shard*.
    #: Accepts a :class:`~repro.sharding.config.ShardingConfig`, its
    #: compact spec string (``"4"`` / ``"4,partial=off"``) or a bare int.
    sharding: Optional[Union[ShardingConfig, str, int]] = None
    #: ANN retrieval mode (None or ``kind="exact"`` = the paper's exact
    #: catalog scan, bit-identical to a config-less run). Accepts a
    #: :class:`~repro.ann.config.RetrievalConfig` or its compact spec
    #: string (``"ivf:nlist=1024,nprobe=32"``; ``""`` = IVF defaults).
    retrieval: Optional[Union[RetrievalConfig, str]] = None
    #: Heterogeneous CPU/GPU scheduler (None or ``"off"`` = the paper's
    #: single-class serving, bit-identical to a config-less run). Accepts
    #: a :class:`~repro.scheduler.config.SchedulerConfig` or its compact
    #: spec string (``"cpu=1,short=4,target=50"``; ``""`` = defaults).
    scheduler: Optional[Union[SchedulerConfig, str]] = None
    #: Failure domains to spread the fleet over (1 = no zone topology,
    #: the paper's single-domain cluster, bit-identical to a pre-zone
    #: run). With ``zones > 1``, replicas spread round-robin so a shard's
    #: replicas never co-locate when ``replicas <= zones``, cross-zone
    #: network legs are charged, and ``zone@T:name=z0`` chaos becomes
    #: meaningful. See ``docs/availability.md``.
    zones: int = 1
    #: Co-located tenant fleet (None or an empty fleet = the paper's
    #: single-model serving, bit-identical to a config-less run). Accepts
    #: a :class:`~repro.tenancy.config.TenancyConfig` or its compact spec
    #: string (``"a=gru4rec:3,slo=60;b=narm:1,slo=120"``). See
    #: ``docs/tenancy.md``.
    tenants: Optional[Union[TenancyConfig, str]] = None

    def __post_init__(self):
        if self.execution not in ("jit", "eager", "onnx"):
            raise ValueError("execution must be 'jit', 'eager' or 'onnx'")
        if self.catalog_size < 1 or self.target_rps < 1:
            raise ValueError("catalog_size and target_rps must be positive")
        for feature in FEATURES:
            value = feature.coerce(getattr(self, feature.field))
            object.__setattr__(self, feature.field, value)
        if self.zones < 1:
            raise ValueError("zones must be >= 1")
        if self.chaos is not None:
            self._check_outage_zones()
        if self.slo_deadline_s is not None and self.slo_deadline_s <= 0:
            raise ValueError("slo_deadline_s must be positive")
        conflict = first_conflict(vars(self))
        if conflict is not None:
            raise ValueError(conflict)

    def _check_outage_zones(self) -> None:
        """Every zone outage must name a zone the deployment places pods
        in: ``z0`` .. ``z{zones-1}``, and none when ``zones == 1``."""
        placed = (
            [zone_name(index) for index in range(self.zones)] if self.zones > 1 else []
        )
        for event in self.chaos.events:
            if isinstance(event, ZoneOutage) and event.zone not in placed:
                raise ValueError(
                    f"zone outage names zone {event.zone!r}, but the spec places "
                    f"pods in {', '.join(placed) or 'no zone'} (zones={self.zones})"
                )

    def workload_statistics(self) -> WorkloadStatistics:
        """The provided statistics, or the bol.com-like defaults."""
        if self.workload is not None:
            return self.workload
        return WorkloadStatistics.bol_like(self.catalog_size)

    def with_hardware(self, instance_type: str, replicas: int) -> "ExperimentSpec":
        return replace(
            self, hardware=HardwareSpec(instance_type=instance_type, replicas=replicas)
        )


@dataclass(frozen=True)
class Feature:
    """One optional :class:`ExperimentSpec` dimension and how text names it."""

    #: The :class:`ExperimentSpec` field.
    field: str
    #: The spec-file key.
    key: str
    #: The command-line flag.
    flag: str
    #: Text -> value: the config class's ``parse`` (``int``/``float`` for
    #: the two plain numbers).
    parse: Callable[[str], Any]
    #: The flag's ``argparse`` keyword arguments.
    flag_kwargs: Mapping[str, Any]
    #: Bare int -> value, for a dimension that also takes a plain count
    #: (the shard count); None elsewhere.
    from_int: Optional[Callable[[int], Any]] = None

    def coerce(self, value: Any) -> Any:
        """The value a spec stores for this dimension.

        Text goes through :attr:`parse` (a bare int through
        :attr:`from_int`), and a config in its off state (``enabled``
        false) becomes None, so no runner ever sees a disabled config.
        """
        if isinstance(value, str):
            value = self.parse(value)
        elif (
            self.from_int is not None
            and isinstance(value, int)
            and not isinstance(value, bool)
        ):
            value = self.from_int(value)
        return value if getattr(value, "enabled", True) else None


#: Every optional dimension, in the order the ``run`` command lists its flags.
FEATURES: Tuple[Feature, ...] = (
    Feature("retry", "retry", "--retry", RetryPolicy.parse, dict(
        nargs="?", const="", default=None, metavar="SPEC",
        help="client retries with backoff; optional SPEC like "
        "'max=3,base=0.05,cap=1,mult=2,jitter=0.5,hedge=0.2' "
        "(bare --retry uses the defaults)",
    )),
    Feature("chaos", "chaos", "--chaos", ChaosSchedule.parse, dict(
        default=None, metavar="SPEC",
        help="fault-injection schedule: comma-separated kind@seconds events, "
        "e.g. 'crash@60:restart=20,slow@90:factor=3:dur=30,"
        "netdelay@30:add=0.005:dur=20' (times relative to load start)",
    )),
    Feature("slo_deadline_s", "slo_deadline_s", "--slo-deadline", float, dict(
        type=float, default=None, metavar="SECONDS",
        help="per-request latency SLO; requests are stamped with "
        "sent_at + SECONDS so --admission can shed doomed work",
    )),
    Feature("admission", "admission", "--admission", AdmissionPolicy.parse, dict(
        nargs="?", const="", default=None, metavar="SPEC",
        help="deadline-aware admission control on the Actix server; SPEC "
        "like 'codel,slack=0.01,target=0.005,interval=0.1,depth=64' "
        "(disciplines: fifo, lifo, codel; bare --admission = FIFO defaults)",
    )),
    Feature("fallback", "fallback", "--fallback", FallbackConfig.parse, dict(
        nargs="?", const="", default=None, metavar="SPEC",
        help="graceful degradation: shed requests answer as fast degraded "
        "200s from a popularity top-k tier; SPEC like 'budget=0.002,topk=21'",
    )),
    Feature("routing", "routing", "--routing", RoutingPolicy.parse, dict(
        default=None, metavar="SPEC",
        help="health-aware service routing; SPEC like "
        "'lor,eject=3,cooldown=15,lag=2' "
        "(disciplines: rr, lor; eject enables the circuit breaker)",
    )),
    Feature("cache", "cache", "--cache", CacheConfig.parse, dict(
        nargs="?", const="", default=None, metavar="SPEC",
        help="session-prefix result cache on the Actix server; SPEC like "
        "'lfu,capacity=8192,window=4,ttl=30,remote=65536,rttl=300' "
        "(policies: lru, lfu, segmented; bare --cache = LRU defaults)",
    )),
    Feature("sharding", "shards", "--shards", ShardingConfig.parse, dict(
        default=None, metavar="SPEC",
        help="catalog sharding with scatter-gather top-k; SPEC like "
        "'4' or '4,partial=off' (replica counts are then per shard; "
        "S=1 is the unsharded baseline)",
    ), from_int=ShardingConfig),
    Feature("retrieval", "retrieval", "--retrieval", RetrievalConfig.parse, dict(
        nargs="?", const="ivf", default=None, metavar="SPEC",
        help="ANN candidate retrieval instead of the exact catalog scan; "
        "SPEC like 'ivf:nlist=1024,nprobe=32' or 'exact' "
        "(bare --retrieval = IVF defaults; default is the exact scan)",
    )),
    Feature("scheduler", "scheduler", "--scheduler", SchedulerConfig.parse, dict(
        nargs="?", const="", default=None, metavar="SPEC",
        help="heterogeneous CPU/GPU scheduler: a CPU pod pool for "
        "short-session/tight-slack requests beside the GPU batch path, "
        "with online hill-climbed batching; SPEC like "
        "'cpu=1,short=4,target=50' (bare --scheduler = one CPU pod, "
        "tuner on; 'off' disables)",
    )),
    Feature("zones", "zones", "--zones", int, dict(
        type=int, default=None, metavar="N",
        help="spread the fleet over N failure domains (anti-affine "
        "replica placement, cross-zone network legs charged, zone@T "
        "chaos meaningful; default 1 = the paper's single domain)",
    )),
    Feature("tenants", "tenants", "--tenants", TenancyConfig.parse, dict(
        default=None, metavar="SPEC",
        help="co-locate a multi-tenant model fleet on the deployment; "
        "SPEC is ';'-separated name=model:weight segments with options "
        "slo=MS, shadow, canary=FRAC, burst=F, rollout=T plus a fleet "
        "fair=N segment, e.g. "
        "'home=gru4rec:3,slo=60;search=narm:1,slo=120' "
        "(default: single-model serving)",
    )),
)


#: The FEATURES rows by spec field.
FEATURE_BY_FIELD: Mapping[str, Feature] = {f.field: f for f in FEATURES}


#: Pairs of dimensions that cannot be deployed together, each with the
#: message that rejects a spec setting both, in the order they are checked.
CONFLICTS: Tuple[Tuple[str, str, str], ...] = (
    ("scheduler", "sharding",
     "the heterogeneous scheduler does not compose with catalog sharding: "
     "CPU pods must hold the full catalog to answer any request the "
     "dispatcher sends them"),
    ("tenants", "sharding",
     "a tenant fleet does not compose with catalog sharding: every pod "
     "must host every tenant's full catalog"),
    ("tenants", "scheduler",
     "a tenant fleet does not compose with the heterogeneous scheduler's "
     "auxiliary pool"),
    ("tenants", "retrieval",
     "a tenant fleet does not compose with ANN retrieval: per-tenant "
     "index builds are not modeled"),
)


def first_conflict(values: Mapping[str, Any]) -> Optional[str]:
    """The message of the first CONFLICTS pair ``values`` sets both sides
    of (a field that is absent or None is unset), or None."""
    for first, second, message in CONFLICTS:
        if values.get(first) is not None and values.get(second) is not None:
            return message
    return None


@dataclass(frozen=True)
class Scenario:
    """A Table I use case: catalog size + target throughput."""

    name: str
    catalog_size: int
    target_rps: int


#: The five scenarios of Table I.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("Groceries (small)", 10_000, 100),
    Scenario("Groceries (large)", 100_000, 250),
    Scenario("Fashion", 1_000_000, 500),
    Scenario("e-Commerce", 10_000_000, 1_000),
    Scenario("Platform", 20_000_000, 1_000),
)


def scenario_by_name(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name.lower() == name.lower():
            return scenario
    known = ", ".join(s.name for s in SCENARIOS)
    raise KeyError(f"unknown scenario {name!r}; known: {known}")
