"""The ETUDE inference server (Actix/Rust equivalent).

Serving semantics reproduced from the paper's implementation:

- non-blocking request intake: accepting a request costs (almost) nothing;
  pending work parks in a queue bounded only by a large backlog cap;
- CPU deployments run ``device.concurrent_workers`` inference threads that
  contend for the machine's shared memory bandwidth;
- GPU deployments funnel requests through the batching buffer (up to 1,024
  requests / 2 ms linger) into a single device executor;
- the pure inference duration is reported back on each response (the
  HTTP-header metric of the paper);
- no internal timeout *by default*: under overload, latency grows and the
  *load generator's* backpressure logic reacts — which is exactly the
  behaviour ETUDE was designed to observe.

Beyond the paper (all default-off, see ``docs/overload.md``): the server
profile may carry an :class:`~repro.serving.admission.AdmissionPolicy`
(deadline-aware shedding with pluggable queue disciplines — doomed work
never occupies a worker or a GPU batch slot) and a
:class:`~repro.serving.fallback.FallbackConfig` (shed requests answer as
fast quality-degraded 200s instead of 503s). It may also carry a
:class:`~repro.cache.tier.CacheConfig` (``docs/caching.md``): a
session-prefix result cache consulted at intake, *before* admission —
hits answer within the HTTP overhead, concurrent misses on one key
coalesce behind a single in-flight computation, and an optional shared
remote tier is reached over a network hop. With all of them absent every
code path is bit-identical to the paper-faithful server.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.keys import CacheKey
from repro.cache.policy import MISSING
from repro.cache.tier import RecommendationCache, RemoteCacheTier
from repro.hardware.device import DeviceModel
from repro.hardware.latency_model import NetworkHop, ServiceTimeProfile
from repro.serving.access_log import AccessLog, AccessRecord
from repro.serving.batching import BatchingConfig, assemble_unique
from repro.serving.fallback import PopularityFallback
from repro.serving.profiles import ActixProfile
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationRequest,
    RecommendationResponse,
    ResponseCallback,
)
from repro.simulation import PARK, At, LognormalJitter, Signal, Simulator

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
    from repro.obs.trace import Span
    from repro.tenancy.fleet import TenantServing

#: One parked request: (request, respond, arrival_time).
QueueEntry = Tuple[RecommendationRequest, ResponseCallback, float]


def _split_payload(payload) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Unpack a cached result into ``(items, scores)``.

    Plain servers cache the top-k items array; shard replicas cache an
    ``(items, scores)`` pair so hits keep the scores the scatter-gather
    merge needs.
    """
    if type(payload) is tuple:
        return payload
    return payload, None


def shard_scoped_version(artifact_version: str, model) -> str:
    """Cache version for one replica's results.

    Shard replicas score only their catalog slice, but every shard of a
    deployment shares one remote cache tier and (pre-fix) one artifact
    version — so shard A's slice result could answer shard B's leg as a
    spurious full-coverage hit. Scoping the version to the shard keeps
    the keyspaces disjoint. ``model`` is anything with ``shard_index``
    and ``shards``: a shard scorer, or the shard a cluster pod serves.
    """
    shard_index = getattr(model, "shard_index", None)
    if shard_index is None:
        return artifact_version
    shards = getattr(model, "shards", 0)
    return f"{artifact_version}#shard{shard_index}of{shards}"


class EtudeInferenceServer:
    """One deployed model replica served by the Actix-style runtime."""

    def __init__(
        self,
        simulator: Simulator,
        device: DeviceModel,
        service_profile: ServiceTimeProfile,
        rng: np.random.Generator,
        profile: Optional[ActixProfile] = None,
        batching: Optional[BatchingConfig] = None,
        model=None,
        name: str = "etude-server",
        worker_threads: Optional[int] = None,
        access_log: Optional[AccessLog] = None,
        telemetry: Optional["Telemetry"] = None,
        artifact_version: str = "v0",
        remote_cache: Optional[RemoteCacheTier] = None,
        tenants: Optional[Dict[str, "TenantServing"]] = None,
        tenant_fair_depth: int = 64,
    ):
        self.simulator = simulator
        self.device = device
        self.service_profile = service_profile
        self.profile = profile or ActixProfile()
        self.batching = batching or BatchingConfig()
        #: Every lognormal draw of this replica; the jitter owns ``rng``.
        self._jitter = LognormalJitter(rng).draw
        self.model = model
        self.name = name
        # The paper: the server "allows users to configure the number of
        # worker threads"; default = one per device execution slot.
        if worker_threads is not None and worker_threads < 1:
            raise ValueError("worker_threads must be >= 1")
        self.worker_threads = worker_threads or device.concurrent_workers
        #: Optional per-request access log (testing / deep dives).
        self.access_log = access_log
        #: Optional telemetry handle (spans + metrics); None = zero overhead.
        self.telemetry = telemetry
        self._batch_counter = 0
        #: Open ``queued`` spans by request id (tracing only).
        self._queued_spans: Dict[int, "Span"] = {}
        #: Open ``coalesced`` spans of parked followers, by request id.
        self._coalesced_spans: Dict[int, "Span"] = {}
        #: Overload protection (both default-off; see docs/overload.md).
        self.admission = self.profile.admission
        self._codel = (
            self.admission.make_state() if self.admission is not None else None
        )
        self._fallback_model = (
            PopularityFallback.from_config(self.profile.fallback)
            if self.profile.fallback is not None
            else None
        )
        #: Admission-shed tallies by reason (work that never executed).
        self.shed_deadline = 0
        self.shed_codel = 0
        self.shed_queue_full = 0
        #: Degraded 200s served by the fallback tier.
        self.degraded_served = 0
        self._shed_counters: Dict[str, object] = {}
        self._fallback_counter = None
        #: Session-prefix result cache + singleflight (default-off;
        #: ``docs/caching.md``). ``None`` — the contractual off state —
        #: whenever the profile has no config or a zero-capacity one.
        cache_config = self.profile.cache
        self.cache: Optional[RecommendationCache] = None
        if cache_config is not None and cache_config.enabled:
            self.cache = RecommendationCache(
                cache_config,
                version=shard_scoped_version(artifact_version, model),
                remote=remote_cache,
            )
        self._remote_hop = NetworkHop()
        #: Singleflight leadership: request id -> the cache key whose
        #: flight this request's inference will settle.
        self._flight_keys: Dict[int, CacheKey] = {}
        #: ANN retrieval descriptor (default-off; ``docs/retrieval.md``).
        #: ``None`` — the contractual off state — whenever the profile has
        #: no config or an "exact" one; enabled, the server tallies probes
        #: and emits ``retrieval_probe`` spans. The probe cost itself is
        #: already folded into ``service_profile`` by the latency model.
        retrieval_config = self.profile.retrieval
        self.retrieval = (
            retrieval_config
            if retrieval_config is not None and retrieval_config.enabled
            else None
        )
        self.ann_queries = 0
        self.ann_probed_lists = 0
        self._ann_query_counter = None
        self._ann_probe_counter = None
        #: Co-located tenant fleet (default-off; ``docs/tenancy.md``).
        #: ``None`` — the contractual off state — keeps every path below
        #: bit-identical to the single-model server. Enabled, each request
        #: carries a tenant stamp: its own model + service profile + cache
        #: keyspace, and weighted-fair shedding under overload.
        self.tenants = tenants
        self.tenant_fair_depth = tenant_fair_depth
        #: Small absolute slack over the proportional share, so fairness
        #: never sheds at trivially shallow queues.
        self.tenant_fair_slack = 2
        self.shed_tenant_fair = 0
        self.shed_by_tenant: Dict[str, int] = {}
        self._tenant_queued: Optional[Dict[str, int]] = None
        self._tenant_entitlement: Dict[str, float] = {}
        if tenants is not None:
            self._tenant_queued = {name: 0 for name in tenants}
            self.shed_by_tenant = {name: 0 for name in tenants}
            primary_weight = sum(
                serving.config.weight
                for serving in tenants.values()
                if not serving.config.shadow
            )
            for name, serving in tenants.items():
                self._tenant_entitlement[name] = (
                    0.0
                    if serving.config.shadow or primary_weight <= 0
                    else serving.config.weight / primary_weight
                )
        if telemetry is not None:
            labels = {"server": name}
            metrics = telemetry.metrics
            self._completed_counter = metrics.counter(
                "server_completed_total", unit="requests", labels=labels,
                help="responses served with HTTP 200",
            )
            self._rejected_counter = metrics.counter(
                "server_rejected_total", unit="requests", labels=labels,
                help="requests shed at intake (queue full or unhealthy)",
            )
            self._batch_size_hist = metrics.histogram(
                "server_batch_size", unit="requests", labels=labels,
                help="requests per executed batch (1 on the CPU path)",
            )
            metrics.gauge(
                "server_queue_depth", fn=self.queue_depth, unit="requests",
                labels=labels, help="requests parked in the intake queue",
            )
            metrics.gauge(
                "server_active_workers", fn=lambda: self._active_workers,
                unit="workers", labels=labels,
                help="CPU worker threads currently executing an inference",
            )
            if self.cache is not None:
                self._cache_hit_counters = {
                    tier: metrics.counter(
                        "cache_hit_total", unit="requests",
                        labels={"server": name, "tier": tier},
                        help="requests answered from the result cache, by tier",
                    )
                    for tier in ("local", "remote")
                }
                self._cache_miss_counter = metrics.counter(
                    "cache_miss_total", unit="requests", labels=labels,
                    help="requests that led a fresh model computation",
                )
                self._cache_coalesced_counter = metrics.counter(
                    "cache_coalesced_total", unit="requests", labels=labels,
                    help="requests parked behind an in-flight computation",
                )
                metrics.gauge(
                    "cache_entries", fn=self.cache.local_size, unit="entries",
                    labels=labels, help="entries in the local cache tier",
                )
                metrics.gauge(
                    "cache_in_flight", fn=self.cache.in_flight, unit="keys",
                    labels=labels,
                    help="unique keys with a computation currently in flight",
                )
            if self.retrieval is not None:
                self._ann_query_counter = metrics.counter(
                    "ann_query_total", unit="queries", labels=labels,
                    help="inferences answered through the ANN index probe",
                )
                self._ann_probe_counter = metrics.counter(
                    "ann_probed_lists_total", unit="lists", labels=labels,
                    help="inverted lists visited across all ANN queries",
                )

        self._queue: Deque[QueueEntry] = deque()
        self._work_name = f"{name}-work"
        self._linger_name = f"{name}-linger"
        self._work_signal = Signal(self._work_name)
        #: Set while the GPU executor idles inside the linger window, so
        #: intake can cut the wait short the moment the buffer fills.
        self._linger_wake: Optional[Signal] = None
        self._active_workers = 0
        self.completed = 0
        #: Requests executed through the GPU batch path (sum of flush
        #: sizes); with ``_batch_counter`` this gives the scheduler's
        #: tuner the observed mean batch size per epoch.
        self.batched_requests = 0
        self.rejected = 0
        self.healthy = True
        #: Service-time multiplier for chaos "slow node" degradation;
        #: 1.0 = nominal (multiplying by it is bit-exact, so an
        #: undegraded run reproduces the pre-chaos latencies).
        self.slowdown = 1.0

        #: Parked CPU workers, in the order they parked: each is the
        #: callable that resumes the worker in place.
        self._parked: List[Callable[[], None]] = []
        if device.supports_batching():
            #: Steps the GPU executor in place (see ``_linger_expired``).
            self._executor = simulator.spawn(self._gpu_executor())
        else:
            self._workers = [
                simulator.spawn(self._cpu_worker(index))
                for index in range(self.worker_threads)
            ]

    # -- intake ------------------------------------------------------------

    def submit(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        """Accept a request (called at its arrival time)."""
        if not self.healthy:
            # Crashed pod: the connection is refused — no Actix handling
            # runs, so the rejection is free (unlike live sheds below).
            self.rejected += 1
            if self.telemetry is not None:
                self._rejected_counter.inc()
            self._fail(request, respond)
            return
        # The cache front runs *before* admission: a hit (or a coalesced
        # miss) never consumes a queue slot, a worker, or a GPU batch
        # slot, so cached work cannot be shed against a deadline.
        if self.cache is not None and self._cache_intake(request, respond):
            return
        self._enqueue(request, respond)

    def _enqueue(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        """The paper-faithful intake: admission, backlog cap, queue."""
        if self.admission is not None and not self.admission.viable(
            request.deadline_s, self.simulator.now
        ):
            # Doomed on arrival: shed before it occupies a queue slot.
            self._shed(request, respond, reason="deadline")
            return
        if self._tenant_queued is not None and not self._fair_admit(request):
            # Weighted-fair shedding: this tenant is already over its
            # entitled share of the backlog — its storm, its sheds.
            self._shed(request, respond, reason="tenant_fair")
            return
        if len(self._queue) >= self.profile.max_queue_depth:
            self._shed(request, respond, reason="queue_full")
            return
        if self.telemetry is not None:
            trace = self.telemetry.trace
            now = self.simulator.now
            # The client→server leg: from send time to intake.
            trace.record("sent", request.request_id, request.sent_at, now)
            self._queued_spans[request.request_id] = trace.begin(
                "queued", request.request_id, server=self.name
            )
        self._queue.append((request, respond, self.simulator.now))
        if self._tenant_queued is not None:
            self._note_queued(request)
        if self._parked:
            self._wake_parked()
        else:
            # The GPU executor waits on the work signal; CPU workers park.
            self._work_signal.fire()
        if (
            self._linger_wake is not None
            and len(self._queue) >= self.batching.max_batch_size
        ):
            self._linger_wake.fire()

    def _fail(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        charge_overhead: bool = False,
    ) -> None:
        """Deliver a 503.

        ``charge_overhead`` is set on *live* rejections (queue full,
        admission shed): a real Actix server still pays request handling
        to produce the 503, so the response arrives an ``_http_overhead()``
        later. Crash-path 503s (dead server, drained queue) stay free —
        those model severed connections, not handled requests.
        """
        if charge_overhead:
            self.simulator.call_in(
                self._http_overhead(), lambda: self._fail(request, respond)
            )
            return
        now = self.simulator.now
        respond(
            RecommendationResponse(
                request_id=request.request_id,
                status=HTTP_SERVICE_UNAVAILABLE,
                completed_at=now,
                latency_s=now - request.sent_at,
            )
        )

    # -- result cache + singleflight (default-off) ---------------------------

    def _cache_intake(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> bool:
        """Consult the cache front; True = the request is fully handled.

        Order: local tier (synchronous, in-process) → the singleflight
        table (park behind an identical in-flight computation) → the
        remote tier (asynchronous, one network round trip away). A miss
        everywhere registers this request as the key's flight leader and
        returns False — the caller enqueues it on the normal path.
        """
        cache = self.cache
        now = self.simulator.now
        key = cache.key_for(
            request.session_items, version=self._tenant_cache_version(request)
        )
        value = cache.lookup_local(key, now)
        if value is not MISSING:
            self._serve_cached(request, respond, value, "local")
            return True
        if cache.flight_exists(key):
            cache.join_flight(key, (request, respond, now))
            if self.telemetry is not None:
                self._cache_coalesced_counter.inc()
                trace = self.telemetry.trace
                trace.record("sent", request.request_id, request.sent_at, now)
                self._coalesced_spans[request.request_id] = trace.begin(
                    "coalesced", request.request_id, server=self.name
                )
            return True
        cache.begin_flight(key)
        self._flight_keys[request.request_id] = key
        if self.telemetry is not None:
            self._cache_miss_counter.inc()
        if cache.remote is not None:
            rtt = self._remote_hop.sample_round_trip(self._jitter)
            if self.telemetry is not None:
                self.telemetry.trace.record(
                    "cache_remote", request.request_id, now, now + rtt
                )
            self.simulator.call_in(
                rtt, lambda: self._after_remote(request, respond, key)
            )
            return True
        return False

    def _after_remote(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        key: CacheKey,
    ) -> None:
        """The remote tier's answer arrived (one round trip later)."""
        if not self.healthy:
            self._resolve_flight_fail(request, crashed=True)
            self._fail(request, respond)
            return
        cache = self.cache
        now = self.simulator.now
        value = cache.lookup_remote(key, now)
        if value is not MISSING:
            cache.fill_local(key, value, now)
            del self._flight_keys[request.request_id]
            self._serve_cached(request, respond, value, "remote")
            for waiter, waiter_respond, joined_at in cache.finish_flight(key):
                self._serve_cached(
                    waiter, waiter_respond, value, joined_at=joined_at
                )
            return
        # Remote miss: the leader proceeds onto the normal inference path,
        # its flight stays open for followers arriving meanwhile.
        self._enqueue(request, respond)

    def _serve_cached(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        payload,
        tier: str = "coalesced",
        joined_at: Optional[float] = None,
    ) -> None:
        """Answer from a cached result within the HTTP handling overhead:
        a hit on ``tier``, or a coalesced follower parked since
        ``joined_at`` behind the leader whose fresh result this is."""
        items, scores = _split_payload(payload)
        now = self.simulator.now
        http_s = self._http_overhead()
        if self.telemetry is not None:
            trace = self.telemetry.trace
            if joined_at is None:
                # A follower recorded its ``sent`` span at intake.
                trace.record("sent", request.request_id, request.sent_at, now)
                self._cache_hit_counters[tier].inc()
            else:
                self._finish_coalesced(request, now)
            trace.record(
                "cache_hit", request.request_id, now, now + http_s, tier=tier
            )
        queue_s = 0.0 if joined_at is None else now - joined_at
        self.simulator.call_in(
            http_s,
            lambda: self._answer(
                request, respond, queue_s=queue_s, items=items,
                scores=scores, cache_hit=True,
            ),
        )

    def _answer(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        **fields,
    ) -> None:
        """Deliver a 200 that ran no inference (a cache hit, a coalesced
        follower, the fallback tier), unless the server crashed since."""
        if not self.healthy:
            self._fail(request, respond)
            return
        now = self.simulator.now
        respond(
            RecommendationResponse(
                request_id=request.request_id,
                status=HTTP_OK,
                completed_at=now,
                latency_s=now - request.sent_at,
                **fields,
            )
        )
        self.completed += 1
        if self.telemetry is not None:
            self._completed_counter.inc()

    def _resolve_flight_ok(self, request: RecommendationRequest, payload) -> None:
        """Leader inference finished: fill the tiers, answer followers.

        ``payload`` is the raw model result — top-k items, or an
        ``(items, scores)`` pair on shard replicas (cached as-is so hits
        keep the scores the aggregator's merge needs). A degraded answer
        never gets here: a shed leader settles through
        ``_resolve_flight_fail``, and partial merges happen in the
        aggregator, which has no cache. Only called with the cache on.
        """
        key = self._flight_keys.pop(request.request_id, None)
        if key is None:
            return
        self.cache.fill(key, payload, self.simulator.now)
        for waiter, waiter_respond, joined_at in self.cache.finish_flight(key):
            self._serve_cached(
                waiter, waiter_respond, payload, joined_at=joined_at
            )

    def _resolve_flight_fail(
        self, request: RecommendationRequest, crashed: bool = False
    ) -> None:
        """Leader never produced a result (shed or crash): settle followers.

        A coalesced follower's fate is tied to its leader — with a
        fallback tier the followers degrade gracefully, otherwise they
        503 (free on a crash, charged HTTP overhead on a live shed, same
        as any other rejection).
        """
        if self.cache is None:
            return
        key = self._flight_keys.pop(request.request_id, None)
        if key is None:
            return
        now = self.simulator.now
        for waiter, waiter_respond, joined_at in self.cache.finish_flight(key):
            if self.telemetry is not None:
                self._finish_coalesced(waiter, now)
            if crashed:
                self._fail(waiter, waiter_respond)
            elif self._fallback_model is not None:
                self._serve_degraded(
                    waiter, waiter_respond, reason="leader_shed",
                    queue_s=now - joined_at,
                )
            else:
                self.rejected += 1
                if self.telemetry is not None:
                    self._rejected_counter.inc()
                self._fail(waiter, waiter_respond, charge_overhead=True)

    def _finish_coalesced(
        self, request: RecommendationRequest, now: float
    ) -> None:
        """The leader's outcome reached a follower: its park ends now.
        A straggler the GPU batch re-parked behind its leader has none."""
        span = self._coalesced_spans.pop(request.request_id, None)
        if span is not None:
            span.finish(at=now)

    # -- overload protection (all default-off) ------------------------------

    def _shed(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        reason: str,
        queue_s: float = 0.0,
    ) -> None:
        """Drop one unit of work without executing it.

        With a fallback tier configured the shed converts into a fast
        degraded 200; otherwise it is a 503 that (unlike a crash) still
        pays the server's HTTP handling overhead.
        """
        self._resolve_flight_fail(request)
        if reason == "deadline":
            self.shed_deadline += 1
        elif reason == "codel":
            self.shed_codel += 1
        elif reason == "tenant_fair":
            self.shed_tenant_fair += 1
        else:
            self.shed_queue_full += 1
        if self.tenants is not None and request.tenant is not None:
            self.shed_by_tenant[request.tenant] = (
                self.shed_by_tenant.get(request.tenant, 0) + 1
            )
        if self.telemetry is not None:
            counter = self._shed_counters.get(reason)
            if counter is None:
                counter = self.telemetry.metrics.counter(
                    "admission_shed_total", unit="requests",
                    labels={"server": self.name, "reason": reason},
                    help="requests shed by overload protection, by reason",
                )
                self._shed_counters[reason] = counter
            counter.inc()
            span = self._queued_spans.pop(request.request_id, None)
            if span is not None:
                span.finish(shed=reason)
        if self._fallback_model is not None:
            self._serve_degraded(request, respond, reason, queue_s=queue_s)
            return
        self.rejected += 1
        if self.telemetry is not None:
            self._rejected_counter.inc()
        self._fail(request, respond, charge_overhead=True)

    def _serve_degraded(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        reason: str,
        queue_s: float = 0.0,
    ) -> None:
        """Answer from the fallback tier within its fixed budget."""
        self.degraded_served += 1
        tier = self._fallback_model
        budget = self.profile.fallback.budget_s
        if self.telemetry is not None:
            if self._fallback_counter is None:
                self._fallback_counter = self.telemetry.metrics.counter(
                    "fallback_served_total", unit="requests",
                    labels={"server": self.name},
                    help="degraded 200s answered by the fallback tier",
                )
            self._fallback_counter.inc()
            now = self.simulator.now
            self.telemetry.trace.record(
                "fallback_served", request.request_id, now, now + budget,
                reason=reason,
            )
        items = tier.recommend(request.session_items)
        self.simulator.call_in(
            budget,
            lambda: self._answer(
                request, respond, queue_s=queue_s, items=items, degraded=True
            ),
        )

    def _next_viable(self) -> Optional[QueueEntry]:
        """Pop queue entries per the admission discipline, shedding the
        non-viable ones, until a still-viable entry (or None) surfaces.

        Only called when an admission policy is configured — the default
        dequeue path stays the plain ``popleft`` of the paper's server.
        """
        policy = self.admission
        while self._queue:
            entry = policy.pop(self._queue)
            request, respond, arrival = entry
            if self._tenant_queued is not None:
                self._note_dequeued(request)
            now = self.simulator.now
            if not policy.viable(request.deadline_s, now):
                self._shed(
                    request, respond, reason="deadline", queue_s=now - arrival
                )
                continue
            if policy.codel_should_shed(self._codel, now - arrival, now):
                self._shed(
                    request, respond, reason="codel", queue_s=now - arrival
                )
                continue
            return entry
        return None

    @property
    def shed_total(self) -> int:
        return (
            self.shed_deadline
            + self.shed_codel
            + self.shed_queue_full
            + self.shed_tenant_fair
        )

    def crash(self) -> None:
        """Simulated pod crash: stop accepting, fail everything queued.

        Requests already executing fail at completion time (the client's
        connection is gone). Used by the cluster's failure injection.
        """
        self.healthy = False
        while self._queue:
            request, respond, _arrival = self._queue.popleft()
            if self._tenant_queued is not None:
                self._note_dequeued(request)
            if self.telemetry is not None:
                span = self._queued_spans.pop(request.request_id, None)
                if span is not None:
                    span.finish(crashed=True)
            self._resolve_flight_fail(request, crashed=True)
            self._fail(request, respond)

    def recover(self) -> None:
        """Bring a crashed server back into service in place.

        The cluster path restarts pods with a fresh server (boot + model
        load); this is the bare-server equivalent used by chaos schedules
        in cluster-less setups like the Figure 2 infra test, where the
        worker processes are still parked.
        """
        self.healthy = True

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore) this replica's service times by ``factor``."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.slowdown = float(factor)

    def queue_depth(self) -> int:
        return len(self._queue)

    # -- co-located tenants (default-off) ------------------------------------

    def _tenant_serving(self, request: RecommendationRequest):
        """The request's tenant serving state, or None off-tenancy."""
        if self.tenants is None or request.tenant is None:
            return None
        return self.tenants.get(request.tenant)

    def _tenant_cache_version(
        self, request: RecommendationRequest
    ) -> Optional[str]:
        """Tenant+arm cache keyspace; None = the server's own version."""
        serving = self._tenant_serving(request)
        if serving is None:
            return None
        return serving.cache_version(request.arm or "stable")

    def _tenant_profile(self, request: RecommendationRequest):
        """The service profile pricing this request's inference."""
        serving = self._tenant_serving(request)
        if serving is None:
            return self.service_profile
        return serving.service_profile

    def _note_queued(self, request: RecommendationRequest) -> None:
        """Tenant fleets only: callers check ``_tenant_queued`` first."""
        if request.tenant is None:
            return
        self._tenant_queued[request.tenant] = (
            self._tenant_queued.get(request.tenant, 0) + 1
        )

    def _note_dequeued(self, request: RecommendationRequest) -> None:
        """Tenant fleets only: callers check ``_tenant_queued`` first."""
        if request.tenant is None:
            return
        queued = self._tenant_queued.get(request.tenant, 0)
        self._tenant_queued[request.tenant] = max(0, queued - 1)

    def _fair_admit(self, request: RecommendationRequest) -> bool:
        """Weighted-fair admission: may this tenant take a queue slot?

        Below ``tenant_fair_depth`` everyone queues freely. Above it, a
        tenant may only hold its entitled share of the backlog (plus a
        small slack): a storming tenant sheds against its own share
        while everyone else's slots stay protected. Shadow tenants have
        zero entitlement — best-effort work is shed first.
        """
        total = len(self._queue)
        if total < self.tenant_fair_depth or request.tenant is None:
            return True
        share = self._tenant_entitlement.get(request.tenant, 0.0)
        queued = self._tenant_queued.get(request.tenant, 0)
        return queued + 1 <= share * (total + 1) + self.tenant_fair_slack

    def set_tenant_version(self, name: str, version: str) -> None:
        """Bump one tenant's artifact version on this replica (rollout).

        Future cache keys of the tenant embed the new version, so its
        stale entries can never answer again — while every co-tenant's
        keyspace (and entries) survive untouched.
        """
        if self.tenants is None or name not in self.tenants:
            raise KeyError(f"server {self.name!r} hosts no tenant {name!r}")
        self.tenants[name].artifact_version = version

    @property
    def batch_flushes(self) -> int:
        """Batches executed so far (single-request batches on CPU)."""
        return self._batch_counter

    # -- shared helpers -------------------------------------------------------

    def _wait_for_work(self) -> Signal:
        if self._work_signal.fired:
            self._work_signal = Signal(self._work_name)
        return self._work_signal

    def _http_overhead(self) -> float:
        profile = self.profile
        return profile.request_overhead_s * self._jitter(profile.jitter_sigma)

    def _complete(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        inference_s: float,
        batch_size: int,
        started: float,
        arrival: float,
        batch_id: int,
    ) -> None:
        """Deliver an executed request's 200 — or a 503 if the server
        died meanwhile — then log the exchange.

        The access record is written at delivery, with the status the
        client actually saw: a crash between completion and delivery
        turns the response into a 503, and the log must say so rather
        than claim a 200 nobody received.
        """
        now = self.simulator.now
        if self.healthy:
            items = None
            scores = None
            model = self.model
            if self.tenants is not None:
                serving = self._tenant_serving(request)
                if serving is not None:
                    model = serving.model
            if model is not None:
                if hasattr(model, "recommend_with_scores"):
                    # Shard replica: score only this pod's catalog slice and
                    # keep the scores — the scatter-gather merge needs them.
                    items, scores = model.recommend_with_scores(
                        request.session_items
                    )
                else:
                    items = model.recommend(request.session_items)
            if self.cache is not None:
                self._resolve_flight_ok(
                    request, items if scores is None else (items, scores)
                )
            respond(
                RecommendationResponse(
                    request_id=request.request_id,
                    status=HTTP_OK,
                    completed_at=now,
                    latency_s=now - request.sent_at,
                    inference_s=inference_s,
                    queue_s=started - arrival,
                    batch_size=batch_size,
                    items=items,
                    scores=scores,
                )
            )
            self.completed += 1
            if self.telemetry is not None:
                self._completed_counter.inc()
            status = HTTP_OK
        else:
            self._resolve_flight_fail(request, crashed=True)
            self._fail(request, respond)
            status = HTTP_SERVICE_UNAVAILABLE
        if self.access_log is not None:
            self.access_log.append(
                AccessRecord(
                    request_id=request.request_id,
                    arrived_at=arrival,
                    started_at=started,
                    completed_at=now,
                    batch_id=batch_id,
                    batch_size=batch_size,
                    status=status,
                )
            )

    def _dequeuer(self) -> Callable[[], Optional[QueueEntry]]:
        """What a worker process takes its next queue entry with, chosen
        once when the process starts: the paper's plain ``popleft``, a
        pop that keeps the tenants' queued counts, or, under admission
        control, ``_next_viable``, which returns None when everything
        left was shed."""
        if self.admission is not None:
            return self._next_viable
        if self._tenant_queued is not None:
            return self._pop_counted
        return self._queue.popleft

    def _pop_counted(self) -> QueueEntry:
        entry = self._queue.popleft()
        self._note_dequeued(entry[0])
        return entry

    # -- CPU path -------------------------------------------------------------------

    def _cpu_service_time(
        self, profile: Optional[ServiceTimeProfile] = None
    ) -> float:
        """Single-inference time under current worker contention.

        ``profile`` prices a specific tenant's model on a co-located
        replica; the default is the server's own profile (bit-identical
        to the historical no-argument call).
        """
        profile = profile if profile is not None else self.service_profile
        base = profile.latency(1)
        memory_s = profile.bytes_per_item / self.device.weight_bandwidth
        other_s = max(base - memory_s, 0.0)
        contention = 1.0
        if self.device.shared_bandwidth:
            demanded = self._active_workers * self.device.weight_bandwidth
            contention = max(1.0, demanded / self.device.shared_bandwidth)
        noise = self._jitter(0.08)
        return (other_s + memory_s * contention) * noise * self.slowdown

    def _wake_parked(self) -> None:
        """Resume the parked CPU workers from one event, at the current
        instant, where the first of one zero-delay wake per worker would
        sit. Those wakes would take consecutive sequence numbers, so
        nothing could run between them: one event running them back to
        back keeps every tie. Workers that park after this call wait for
        the next arrival.
        """
        parked, self._parked = self._parked, []
        self.simulator.call_at(
            self.simulator.now + 0.0, lambda: self._resume_parked(parked)
        )

    def _resume_parked(self, parked) -> None:
        """Step parked workers in order while work is queued.

        A worker woken to an empty queue would only park again, behind
        every worker that parked in the meantime; the rest are put there
        without being stepped.
        """
        queue = self._queue
        for index, resume in enumerate(parked):
            if not queue:
                self._parked.extend(parked[index:])
                return
            resume()

    def _cpu_worker(self, index: int):
        queue = self._queue
        dequeue = self._dequeuer()
        while True:
            if not queue:
                self._parked.append(self._workers[index])
                yield PARK
                continue
            entry = dequeue()
            if entry is None:
                continue  # everything queued was doomed and got shed
            request, respond, arrival = entry
            started = self.simulator.now
            if self.telemetry is not None:
                queued_span = self._queued_spans.pop(request.request_id, None)
                if queued_span is not None:
                    queued_span.finish(at=started)
            self._active_workers += 1
            inference_s = self._cpu_service_time(
                None if self.tenants is None else self._tenant_profile(request)
            )
            http_s = self._http_overhead()
            yield http_s + inference_s
            self._active_workers -= 1
            self._batch_counter += 1
            if self.telemetry is not None:
                trace = self.telemetry.trace
                rid = request.request_id
                trace.record(
                    "inference", rid, started, started + inference_s,
                    batch_id=self._batch_counter, batch_size=1,
                )
                trace.record(
                    "http_respond", rid, started + inference_s,
                    started + inference_s + http_s,
                )
                self._batch_size_hist.observe(1)
            if self.retrieval is not None:
                self._note_retrieval(request.request_id, started, inference_s)
            self._complete(
                request, respond, inference_s, 1, started, arrival,
                self._batch_counter,
            )

    # -- GPU path ---------------------------------------------------------------------

    def _gpu_batch_time(self, batch_size: int, batch=None) -> float:
        """Device time for one flush (a single noise draw either way).

        A multi-tenant flush may mix models: the device runs one kernel
        sequence per (tenant, arm) group, so the batch costs the sum of
        each group's batched latency under its own profile. Off-tenancy
        (or when the whole batch is one tenant's) this reduces to the
        single-profile expression, with the identical RNG draw.
        """
        noise = self._jitter(0.08)
        if self.tenants is not None and batch is not None:
            groups: Dict[Optional[Tuple[str, str]], int] = {}
            for request, _respond, _arrival in batch:
                serving = self._tenant_serving(request)
                key = (
                    None
                    if serving is None
                    else (serving.name, request.arm or "stable")
                )
                groups[key] = groups.get(key, 0) + 1
            base = 0.0
            for key, count in groups.items():
                profile = (
                    self.service_profile
                    if key is None
                    else self.tenants[key[0]].service_profile
                )
                base += profile.latency(count)
            return base * noise * self.slowdown
        return self.service_profile.latency(batch_size) * noise * self.slowdown

    def _gpu_executor(self):
        simulator = self.simulator
        queue = self._queue
        dequeue = self._dequeuer()
        complete = self._complete
        while True:
            # Re-read the knobs every iteration: the heterogeneous
            # scheduler's tuner swaps ``self.batching`` between epochs,
            # and the next flush must honour the new window. Untuned runs
            # read the same values every time, so this is bit-identical
            # to hoisting them out of the loop.
            batching = self.batching
            max_batch = batching.max_batch_size
            if not queue:
                yield self._wait_for_work()
                continue
            # Honour the linger window: flush when the oldest buffered
            # request is max_delay old or the buffer is full.
            linger_started = None
            deadline = queue[0][2] + batching.max_delay_s
            if simulator.now < deadline and len(queue) < max_batch:
                # The executor is idle and deliberately waiting for the
                # buffer to fill — that wait is batch-linger, not queueing.
                # Wake at the deadline OR the moment intake fills the
                # buffer: sleeping out the rest of the window with a full
                # buffer only delays a flush that could already happen.
                linger_started = simulator.now
                if deadline < simulator.next_event_time():
                    # Nothing can enqueue before the deadline: no event is
                    # due until after it, so resume there directly.
                    yield At(deadline)
                else:
                    wake = Signal(self._linger_name)
                    deadline_timer = simulator.call_at(
                        deadline, self._linger_expired
                    )
                    self._linger_wake = wake
                    yield wake
                    self._linger_wake = None
                    simulator.cancel(deadline_timer)
            # Under admission control only still-viable requests are
            # taken: doomed work must not occupy a GPU batch slot.
            batch = []
            while queue and len(batch) < max_batch:
                entry = dequeue()
                if entry is None:
                    break
                batch.append(entry)
            if not batch:
                continue
            if self.cache is not None:
                # GPU batches execute unique keys only: intake coalescing
                # already guarantees this, assemble_unique enforces it —
                # any same-key straggler re-parks behind the leader in the
                # same batch instead of burning a batch slot.
                batch, duplicates = assemble_unique(
                    batch,
                    lambda entry: self._flight_keys.get(entry[0].request_id),
                )
                for dup_request, dup_respond, dup_arrival in duplicates:
                    key = self._flight_keys.pop(dup_request.request_id)
                    self.cache.join_flight(
                        key, (dup_request, dup_respond, dup_arrival)
                    )
                if not batch:
                    continue
            take = len(batch)
            started = simulator.now
            batch_time = self._gpu_batch_time(take, batch)
            yield batch_time
            self._batch_counter += 1
            self.batched_requests += take
            batch_id = self._batch_counter
            if self.telemetry is not None:
                self._trace_batch(batch, started, batch_time, take, linger_started)
            for request, respond, arrival in batch:
                if self.retrieval is not None:
                    self._note_retrieval(request.request_id, started, batch_time)
                # HTTP handling happens concurrently on the event loop; it
                # adds latency but does not occupy the device.
                http_s = self._http_overhead()
                if self.telemetry is not None:
                    now = simulator.now
                    self.telemetry.trace.record(
                        "http_respond", request.request_id, now, now + http_s
                    )
                simulator.call_in(
                    http_s,
                    partial(
                        complete, request, respond, batch_time, take, started,
                        arrival, batch_id,
                    ),
                )

    def _linger_expired(self) -> None:
        """The linger deadline timer: wake the GPU executor.

        Nothing to do if intake filled the buffer first: the wake has
        fired and its hop is due. If no other event is due at this
        instant, the zero-delay hop ``fire`` would schedule is the very
        next event, so the executor is stepped in place instead. Otherwise
        the hop queues behind the events already due now, as before.
        """
        wake = self._linger_wake
        if wake.fired:
            return
        simulator = self.simulator
        if simulator.next_event_time() > simulator.now:
            wake.claim()
            self._executor()
        else:
            wake.fire()

    def _trace_batch(self, batch, started, batch_time, take, linger_started):
        """Record queued / batch_assembled / inference spans for one flush.

        Wait decomposition: time a request spent buffered while the
        executor idled inside the linger window counts as
        ``batch_assembled``; everything before that (the executor busy
        with earlier batches) counts as ``queued``.
        """
        trace = self.telemetry.trace
        self._batch_size_hist.observe(take)
        window_open = started if linger_started is None else linger_started
        for request, _respond, arrival in batch:
            rid = request.request_id
            assembly_from = max(arrival, window_open)
            queued_span = self._queued_spans.pop(rid, None)
            if queued_span is not None:
                queued_span.finish(at=assembly_from)
            trace.record(
                "batch_assembled", rid, assembly_from, started,
                batch_id=self._batch_counter, batch_size=take,
            )
            trace.record(
                "inference", rid, started, started + batch_time,
                batch_id=self._batch_counter, batch_size=take,
            )

    def _note_retrieval(
        self, request_id: int, started: float, duration_s: float
    ) -> None:
        """Tally one ANN probe; emit the ``retrieval_probe`` span if traced.

        The probe is part of the inference the service profile already
        prices, so the span shares the inference window rather than adding
        time — it annotates *what* the device spent the window on.
        """
        self.ann_queries += 1
        nprobe = self.retrieval.nprobe
        self.ann_probed_lists += nprobe
        if self.telemetry is not None:
            self._ann_query_counter.inc()
            self._ann_probe_counter.inc(nprobe)
            self.telemetry.trace.record(
                "retrieval_probe", request_id, started, started + duration_s,
                nlist=self.retrieval.nlist or 0,
                nprobe=nprobe,
            )
