"""The ClusterIP service: request routing plus network latency.

"Once the model deployment is finished ... a ClusterIP service interface is
deployed for allowing access to the serving machine. Next, the load
generator is deployed on another machine, from which it sends the
corresponding recommendation requests ... via the service interface."
Intra-cluster network latency is sub-millisecond on GCP; both directions
are charged — including on 503s answered by the service itself when no
pod is in rotation (the request still crosses the network twice).

Routing defaults to the paper's plain round-robin over the instantaneously
known ready pods. An optional
:class:`~repro.cluster.routing.RoutingPolicy` adds production behaviours
(all default-off, see ``docs/overload.md``): endpoint-propagation lag,
least-outstanding-requests selection, and passive outlier ejection with
half-open probe re-entry (the circuit breaker).
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from repro.cluster.kubernetes import ModelDeployment, Pod, zone_name
from repro.cluster.routing import RoutingPolicy, partition_by_shard
from repro.hardware.latency_model import NetworkHop
from repro.sharding.config import shard_bounds
from repro.sharding.gather import ScatterGatherAggregator
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationRequest,
    RecommendationResponse,
    ResponseCallback,
)
from repro.simulation import LognormalJitter, Simulator

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
    from repro.scheduler.dispatch import QueryDispatcher

#: Trace ids for service-level spans (ejections/probes) sit in their own
#: negative range so they can never collide with request ids (>= 0) or the
#: chaos controller's ids (-1, -2, ...).
_SERVICE_SPAN_ID_START = -100_000

#: One-way network latency between load generator and serving pod, and
#: the sigma of its lognormal jitter.
NETWORK_LATENCY_S = 2.5e-4
NETWORK_JITTER_SIGMA = 0.3


class _Network:
    """The cost of one network leg: the base latency times a lognormal
    draw, plus the surcharge chaos schedules inject.

    The service and its aggregator share it. The aggregator draws its
    legs from :meth:`delay` and holds nothing of the service, which owns
    the aggregator: a reference back would be a cycle.
    """

    __slots__ = ("jitter", "extra_latency_s")

    def __init__(self, jitter: Callable[[float], float]):
        self.jitter = jitter
        #: Additional one-way latency injected by chaos schedules
        #: (transient degradation of the client→server leg). 0.0 = nominal
        #: and bit-exact: adding 0.0 never changes a latency.
        self.extra_latency_s = 0.0

    def delay(self) -> float:
        return (
            NETWORK_LATENCY_S * self.jitter(NETWORK_JITTER_SIGMA)
            + self.extra_latency_s
        )


class _PodRoutingState:
    """Per-pod health bookkeeping (only maintained under a RoutingPolicy)."""

    __slots__ = (
        "in_flight",
        "consecutive_failures",
        "ejected_until",
        "probing",
        "last_seen_ready",
    )

    def __init__(self):
        self.in_flight = 0
        self.consecutive_failures = 0
        #: None = in rotation; a time = ejected until then (then half-open).
        self.ejected_until: Optional[float] = None
        #: True while the single half-open probe request is outstanding.
        self.probing = False
        #: Last virtual time the pod was observed ready (endpoint lag).
        self.last_seen_ready = float("-inf")


class ClusterIPService:
    """Load balancing over the ready pods of a deployment."""

    #: Deterministic per-direction surcharge on a leg that crosses a
    #: failure domain (the service VIP lives in the home zone, ``z0``).
    #: Only charged on deployments placed with ``zones > 1``.
    CROSS_ZONE_EXTRA_S = NetworkHop.cross_zone_extra_s

    def __init__(
        self,
        simulator: Simulator,
        deployment: ModelDeployment,
        rng: np.random.Generator,
        telemetry: Optional["Telemetry"] = None,
        routing: Optional[RoutingPolicy] = None,
        top_k: int = 20,
        catalog_size: Optional[int] = None,
        dispatcher: Optional["QueryDispatcher"] = None,
    ):
        self.simulator = simulator
        self.deployment = deployment
        #: Every network-leg draw; the jitter owns ``rng``.
        self._network = _Network(LognormalJitter(rng).draw)
        #: One client leg (a test may pin it to a constant).
        self._network_delay = self._network.delay
        self._round_robin = 0
        #: Heterogeneous scheduler front (None = the paper's single-class
        #: routing, bit-identical to the pre-scheduler service). When set,
        #: the dispatcher picks the pod *class* per request and the
        #: configured discipline balances within that class.
        self.dispatcher = dispatcher
        self._class_cursors: Dict[str, int] = {"cpu": 0, "gpu": 0}
        self.routed = 0
        self.rejected_no_backend = 0
        #: Health-aware routing (None = the paper's plain round-robin,
        #: bit-identical to the pre-routing service).
        self.routing = routing
        self.ejections = 0
        self.probe_recoveries = 0
        self._pod_states: Dict[str, _PodRoutingState] = {}
        self._next_span_id = _SERVICE_SPAN_ID_START
        #: Zone topology of the backing deployment. The service VIP (and
        #: the load generator behind it) lives in the first zone; legs to
        #: pods elsewhere pay the cross-zone surcharge. 1 = no topology,
        #: and every zone branch below is skipped entirely (bit-identity).
        self._zones = getattr(deployment, "zones", 1)
        self.home_zone = zone_name(0) if self._zones > 1 else ""
        #: One-way pod legs that crossed a zone boundary (request and
        #: response directions count separately).
        self.cross_zone_legs = 0
        #: Optional telemetry handle; None = zero overhead.
        self.telemetry = telemetry
        if telemetry is not None:
            metrics = telemetry.metrics
            metrics.counter(
                "service_routed_total", fn=lambda: self.routed,
                unit="requests", help="requests forwarded to a ready pod",
            )
            metrics.counter(
                "service_rejected_no_backend_total",
                fn=lambda: self.rejected_no_backend, unit="requests",
                help="503s answered because no pod was in rotation",
            )
            metrics.gauge(
                "service_ready_pods",
                fn=lambda: len(self.deployment.ready_pods),
                unit="pods",
                help="pods currently in the ClusterIP rotation",
            )
            if routing is not None and routing.eject_after is not None:
                metrics.counter(
                    "pod_ejected_total", fn=lambda: self.ejections,
                    unit="ejections",
                    help="pods ejected from rotation by the outlier breaker",
                )
            if self._zones > 1:
                metrics.counter(
                    "availability_cross_zone_legs_total",
                    fn=lambda: self.cross_zone_legs, unit="legs",
                    help="one-way pod legs that crossed a zone boundary",
                )
        # Scatter-gather front for sharded deployments. None on S=1: the
        # request path below is then byte-for-byte the pre-sharding one.
        self.aggregator: Optional[ScatterGatherAggregator] = None
        if getattr(deployment, "shards", 1) > 1:
            shards = deployment.shards
            if catalog_size is not None and catalog_size > 0:
                fractions = [
                    (hi - lo) / catalog_size
                    for lo, hi in shard_bounds(catalog_size, shards)
                ]
            else:
                fractions = None
            self.aggregator = ScatterGatherAggregator(
                simulator=simulator,
                config=deployment.sharding,
                shard_submits=[
                    _ShardRoute(self, shard).submit for shard in range(shards)
                ],
                network_delay=self._network.delay,
                top_k=top_k,
                coverage_fractions=fractions,
                telemetry=telemetry,
            )

    @property
    def extra_latency_s(self) -> float:
        """Additional one-way latency injected by chaos schedules, on
        every leg of the service and its aggregator."""
        return self._network.extra_latency_s

    @extra_latency_s.setter
    def extra_latency_s(self, value: float) -> None:
        self._network.extra_latency_s = value

    def _cross_zone_extra(self, pod: Pod) -> float:
        """Per-direction surcharge for a leg leaving the home zone.

        0.0 on single-zone deployments and for home-zone pods — and the
        zero case is never *added* anywhere: callers branch on it, so the
        single-zone event sequence is byte-identical to the pre-zone one.
        """
        if self._zones <= 1 or pod.zone == self.home_zone:
            return 0.0
        return self.CROSS_ZONE_EXTRA_S

    def _pod_network_delay(self, pod: Pod) -> float:
        """One network leg to/from a specific pod, zone charged honestly.

        Every routed request pays two of these, so the single-zone leg is
        one call: :meth:`_Network.delay` and :meth:`_cross_zone_extra`
        inlined, with their arithmetic unchanged.
        """
        network = self._network
        delay = (
            NETWORK_LATENCY_S * network.jitter(NETWORK_JITTER_SIGMA)
            + network.extra_latency_s
        )
        if self._zones > 1 and pod.zone != self.home_zone:
            self.cross_zone_legs += 1
            return delay + self.CROSS_ZONE_EXTRA_S
        return delay

    # -- routing ------------------------------------------------------------

    def _state(self, pod: Pod) -> _PodRoutingState:
        state = self._pod_states.get(pod.name)
        if state is None:
            state = _PodRoutingState()
            self._pod_states[pod.name] = state
        return state

    def _routing_view(self) -> List[Pod]:
        """The pods the router believes are ready.

        With ``endpoint_lag_s`` set, a pod that dropped out of readiness
        (crash, scale-down) lingers in the view for that long — the
        endpoint-propagation window in which real load balancers keep
        sending traffic into a dead backend. Newly ready pods join
        immediately (joining late only hurts availability).
        """
        now = self.simulator.now
        lag = self.routing.endpoint_lag_s
        view: List[Pod] = []
        for pod in self.deployment.pods:
            state = self._state(pod)
            if pod.ready:
                state.last_seen_ready = now
                view.append(pod)
            elif (
                lag > 0.0
                and pod.server is not None
                and now - state.last_seen_ready < lag
            ):
                view.append(pod)
        return view

    def _select_pod(self, view: List[Pod]) -> Pod:
        """Pick a pod from the routing view per the configured policy.

        Ejection filter first (expired-cooldown pods come back as
        half-open candidates, one probe at a time), then fail-open when
        everything is ejected, then the discipline (round-robin cursor or
        least-outstanding-requests with a stable tie-break).
        """
        policy = self.routing
        now = self.simulator.now
        candidates: List[Pod] = []
        if policy.eject_after is not None:
            for pod in view:
                state = self._state(pod)
                if state.ejected_until is not None:
                    if now < state.ejected_until or state.probing:
                        continue
                candidates.append(pod)
        else:
            candidates = view
        if not candidates:
            # Fail-open (Envoy's max_ejection_percent guardrail): a fully
            # ejected rotation routes as if the breaker did not exist.
            candidates = view
        if policy.discipline == "lor":
            pod = min(candidates, key=lambda p: self._state(p).in_flight)
        else:
            pod = candidates[self._round_robin % len(candidates)]
        self._round_robin += 1
        state = self._state(pod)
        if state.ejected_until is not None and now >= state.ejected_until:
            state.probing = True  # the half-open probe is this request
        state.in_flight += 1
        return pod

    def _observe(self, pod: Pod, response: RecommendationResponse) -> None:
        """Passive health tracking: digest one response from ``pod``."""
        policy = self.routing
        state = self._state(pod)
        state.in_flight = max(state.in_flight - 1, 0)
        if policy.eject_after is None:
            return
        probe = state.probing
        state.probing = False
        if response.status == HTTP_OK:
            state.consecutive_failures = 0
            if state.ejected_until is not None:
                # Half-open probe succeeded: back into the rotation.
                state.ejected_until = None
                self.probe_recoveries += 1
                if self.telemetry is not None:
                    self._service_span("pod_recovered", pod=pod.name)
            return
        if response.status != HTTP_SERVICE_UNAVAILABLE:
            return
        state.consecutive_failures += 1
        if probe or state.consecutive_failures >= policy.eject_after:
            # A failed half-open probe re-ejects immediately; otherwise
            # ejection triggers on the consecutive-failure threshold.
            already_out = (
                state.ejected_until is not None
                and self.simulator.now < state.ejected_until
            )
            state.ejected_until = self.simulator.now + policy.cooldown_s
            if not already_out:
                self.ejections += 1
                if self.telemetry is not None:
                    self._service_span(
                        "pod_ejected",
                        pod=pod.name,
                        failures=state.consecutive_failures,
                        probe=probe,
                        duration_s=policy.cooldown_s,
                    )

    def _service_span(self, name: str, **attrs) -> None:
        trace = self.telemetry.trace
        end = self.simulator.now + (attrs.get("duration_s") or 0.0)
        trace.record(name, self._next_span_id, trace.clock(), end, **attrs)
        self._next_span_id -= 1

    def pod_ejected(self, pod: Pod) -> bool:
        """Is ``pod`` currently sitting out an ejection cooldown?"""
        state = self._pod_states.get(pod.name)
        return (
            state is not None
            and state.ejected_until is not None
            and self.simulator.now < state.ejected_until
        )

    # -- sharded request path ------------------------------------------------

    def _submit_sharded(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        """Fan one request out to every shard via the aggregation tier.

        Legs: client -> aggregator (charged here), aggregator <-> each
        shard pod in parallel plus the merge cost (charged by the
        aggregator — the response waits for the slowest shard), and
        aggregator -> client (charged on delivery, by :meth:`_deliver`).
        """
        if not self.deployment.ready_signal.fired:
            raise RuntimeError(
                "no ready pods; wait for the deployment's readiness signal"
            )
        self.routed += 1
        self.simulator.call_in(
            self._network_delay(),
            partial(
                self.aggregator.scatter,
                request,
                partial(self._deliver, request, respond),
            ),
        )

    def _deliver(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        response: RecommendationResponse,
    ) -> None:
        """The merged response leaves the aggregator for the client."""
        self.simulator.call_in(
            self._network_delay(),
            partial(self._arrive, request, respond, response),
        )

    def _arrive(
        self,
        request: RecommendationRequest,
        respond: ResponseCallback,
        response: RecommendationResponse,
    ) -> None:
        now = self.simulator.now
        response.completed_at = now
        response.latency_s = now - request.sent_at
        respond(response)

    # -- request path -------------------------------------------------------

    def submit(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        if self.aggregator is not None:
            self._submit_sharded(request, respond)
            return
        if self.routing is None:
            pods = self.deployment.ready_pods
        else:
            pods = self._routing_view()
        if not pods:
            if not self.deployment.ready_signal.fired:
                raise RuntimeError(
                    "no ready pods; wait for the deployment's readiness signal"
                )
            # All pods down after a failure: the service answers 503. The
            # request still crosses the network both ways ("both
            # directions are charged"), and the rejection is traced like a
            # routed request so it shows up in span exports.
            self.rejected_no_backend += 1

            def arrive() -> None:
                if self.telemetry is not None:
                    self.telemetry.trace.record(
                        "sent", request.request_id, request.sent_at,
                        self.simulator.now, no_backend=True,
                    )
                self.simulator.call_in(
                    self._network_delay(),
                    lambda: respond(
                        RecommendationResponse(
                            request_id=request.request_id,
                            status=HTTP_SERVICE_UNAVAILABLE,
                            completed_at=self.simulator.now,
                            latency_s=self.simulator.now - request.sent_at,
                        )
                    ),
                )

            self.simulator.call_in(self._network_delay(), arrive)
            return
        route: Optional[str] = None
        if self.dispatcher is not None:
            gpu_pods = [
                p for p in pods if p.instance_type.device.is_accelerator
            ]
            cpu_pods = [
                p for p in pods if not p.instance_type.device.is_accelerator
            ]
            route = self.dispatcher.route(
                request, self.simulator.now, bool(cpu_pods), bool(gpu_pods)
            )
            group = cpu_pods if route == "cpu" else gpu_pods
            if self.routing is None:
                cursor = self._class_cursors[route]
                pod = group[cursor % len(group)]
                self._class_cursors[route] = cursor + 1
            else:
                pod = self._select_pod(group)
        elif self.routing is None:
            pod = pods[self._round_robin % len(pods)]
            self._round_robin += 1
        else:
            pod = self._select_pod(pods)
        self.routed += 1

        def respond_via_network(response: RecommendationResponse) -> None:
            if self.routing is not None:
                self._observe(pod, response)

            def deliver() -> None:
                now = self.simulator.now
                response.completed_at = now
                response.latency_s = now - request.sent_at
                if self.dispatcher is not None and route is not None:
                    self.dispatcher.observe(route, response)
                respond(response)

            self.simulator.call_in(self._pod_network_delay(pod), deliver)

        self.simulator.call_in(
            self._pod_network_delay(pod),
            lambda: pod.server.submit(request, respond_via_network),
        )


class _ShardRoute:
    """Where one shard's legs go: the aggregator's submit target for it.

    Every routing discipline (round-robin cursor, LOR, ejection, endpoint
    lag) applies *within* the shard group — a request must reach each
    shard exactly once, so there is nothing to balance across shards. A
    shard with no pod in view answers an immediate 503 for its leg
    (connection refused; the aggregator has already charged the network
    legs). Readiness is read per leg, so a pod that drops out between two
    legs of one fan-out misses the later one.

    The route is picked once, at construction. A plain route (no routing
    policy, one zone) hands the aggregator's responder straight to the
    pod. Any other observes the response for the routing policy or
    charges the zone surcharge, through the service's methods. The
    service owns the aggregator that holds this route, so the route holds
    the service by a weak reference.
    """

    __slots__ = (
        "service",
        "simulator",
        "deployment",
        "shard",
        "routing",
        "plain",
        "cursor",
    )

    def __init__(self, service: ClusterIPService, shard: int):
        self.service = weakref.proxy(service)
        self.simulator = service.simulator
        self.deployment = service.deployment
        self.shard = shard
        self.routing = service.routing
        self.plain = service.routing is None and service._zones <= 1
        self.cursor = 0

    def submit(
        self, sub_request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        routing = self.routing
        if routing is None:
            pods = self.deployment.ready_in_shard(self.shard)
        else:
            pods = partition_by_shard(self.service._routing_view()).get(
                self.shard, []
            )
        if not pods:
            now = self.simulator.now
            respond(
                RecommendationResponse(
                    request_id=sub_request.request_id,
                    status=HTTP_SERVICE_UNAVAILABLE,
                    completed_at=now,
                    latency_s=now - sub_request.sent_at,
                    coverage=0.0,
                )
            )
            return
        if routing is None:
            cursor = self.cursor
            pod = pods[cursor % len(pods)]
            self.cursor = cursor + 1
        else:
            pod = self.service._select_pod(pods)
        if self.plain:
            pod.server.submit(sub_request, respond)
            return

        # The aggregator charges the zone-neutral fan-out legs; a
        # replica outside the home zone costs the surcharge extra in
        # each direction (surviving replicas absorbing a dead zone's
        # traffic pay for the distance, honestly).
        service = self.service
        simulator = self.simulator
        extra = service._cross_zone_extra(pod)

        def observe_and_respond(response: RecommendationResponse) -> None:
            if routing is not None:
                service._observe(pod, response)
            if extra > 0.0:
                simulator.call_in(extra, lambda: respond(response))
            else:
                respond(response)

        if extra > 0.0:
            service.cross_zone_legs += 2
            simulator.call_in(
                extra,
                lambda: pod.server.submit(sub_request, observe_and_respond),
            )
        else:
            pod.server.submit(sub_request, observe_and_respond)
