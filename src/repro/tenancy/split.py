"""Deterministic weighted traffic splitting across a tenant fleet.

The splitter sits between the load generator and the cluster service:
it *is* the generator's submit function, so the client-visible request
stream of the single-tenant harness is attributed to tenants without
touching the generator, the collector, or the service.

Three mechanisms, all deterministic (no RNG draws — a tenancy-enabled
run consumes exactly the same random streams as the run without it):

- **Primary split** — smooth weighted round-robin over the non-shadow
  tenants' offered weights (entitlement × burst): each pick adds every
  tenant's weight to its running credit, routes to the largest credit,
  and charges the winner the total. Produces the classic interleaved
  (not bursty) pattern and exact long-run proportions.
- **Canary arms** — a per-tenant fraction accumulator: every
  ``1/fraction``-th request of the tenant is stamped ``arm="canary"``
  and served by the tenant's canary artifact version.
- **Shadow mirroring** — a per-shadow-tenant accumulator over *total*
  client traffic: mirrored copies carry fresh request ids from a
  dedicated high range and a response sink that tallies but never
  reaches the client (scored, never returned).

The splitter also stamps each tenant's SLO onto its requests as an
absolute deadline (PR 3 admission disciplines then shed against it) and
keeps the per-tenant tallies reported as ``RunResult.tenancy``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.metrics.percentile import LatencyDigest
from repro.serving.request import (
    HTTP_OK,
    RecommendationRequest,
    RecommendationResponse,
    ResponseCallback,
)
from repro.tenancy.config import TenancyConfig, TenantConfig
from repro.tenancy.fleet import ARM_CANARY, ARM_STABLE

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
    from repro.simulation import Simulator

#: Mirrored (shadow) requests draw ids from their own range so span ids
#: and flight-table entries never collide with client request ids.
SHADOW_ID_BASE = 1 << 40

#: The ``arm`` that ``tenant_route`` spans and ``tenant_requests_total``
#: give a mirrored copy.
ARM_SHADOW = "shadow"

SubmitFn = Callable[[RecommendationRequest, ResponseCallback], None]


class TenantTally:
    """Client-visible outcome tallies for one tenant."""

    __slots__ = (
        "requests",
        "ok",
        "errors",
        "degraded",
        "cache_hits",
        "canary_requests",
        "digest",
    )

    def __init__(self):
        self.requests = 0
        self.ok = 0
        self.errors = 0
        self.degraded = 0
        self.cache_hits = 0
        self.canary_requests = 0
        self.digest = LatencyDigest()

    def record(self, response: RecommendationResponse) -> None:
        if response.status == HTTP_OK:
            self.ok += 1
            if response.degraded:
                self.degraded += 1
            if response.cache_hit:
                self.cache_hits += 1
        else:
            self.errors += 1
        self.digest.record(response.latency_s)


class TrafficSplitter:
    """Routes one client request stream across the fleet's tenants."""

    def __init__(
        self,
        config: TenancyConfig,
        forward: SubmitFn,
        simulator: "Simulator",
        telemetry: Optional["Telemetry"] = None,
    ):
        if not config.enabled:
            raise ValueError("TrafficSplitter requires a non-empty fleet")
        self.config = config
        self.forward = forward
        self.simulator = simulator
        self.telemetry = telemetry
        self._primaries = config.primaries
        #: Smooth weighted round-robin state (offered weights).
        self._credit: Dict[str, float] = {
            t.name: 0.0 for t in self._primaries
        }
        self._offered: Dict[str, float] = {
            t.name: config.traffic_weight(t.name) for t in self._primaries
        }
        self._offered_total = sum(self._offered.values())
        #: Canary fraction accumulators, by tenant.
        self._canary_credit: Dict[str, float] = {
            t.name: 0.0 for t in self._primaries if t.canary_fraction > 0
        }
        #: Shadow mirror accumulators, by shadow tenant.
        self._shadow_credit: Dict[str, float] = {
            t.name: 0.0 for t in config.shadows
        }
        self._next_shadow_id = SHADOW_ID_BASE
        #: Client-visible tallies by primary tenant.
        self.tallies: Dict[str, TenantTally] = {
            t.name: TenantTally() for t in self._primaries
        }
        #: Shadow bookkeeping: copies sent / responses swallowed.
        self.shadow_mirrored: Dict[str, int] = {
            t.name: 0 for t in config.shadows
        }
        self.shadow_completed: Dict[str, int] = {
            t.name: 0 for t in config.shadows
        }
        #: In-flight client requests by tenant (gauge timeline source).
        self._pending: Dict[str, int] = {t.name: 0 for t in self._primaries}
        if telemetry is None:
            return
        metrics = telemetry.metrics
        # (tenant, arm, what its ``tenant_requests_total`` reads)
        routes = []
        for tenant in self._primaries:
            tally = self.tallies[tenant.name]
            labels = {"tenant": tenant.name}
            metrics.gauge(
                "tenant_pending",
                fn=lambda name=tenant.name: self._pending[name],
                unit="requests", labels=labels,
                help="client requests in flight, by tenant",
            )
            metrics.counter(
                "tenant_errors_total", fn=lambda t=tally: t.errors,
                unit="requests", labels=labels,
                help="client-visible non-200s, by tenant",
            )
            stable = lambda t=tally: t.requests - t.canary_requests
            routes.append((tenant.name, ARM_STABLE, stable))
            if tenant.canary_fraction > 0:
                routes.append(
                    (tenant.name, ARM_CANARY, lambda t=tally: t.canary_requests)
                )
        for shadow in config.shadows:
            mirrored = lambda name=shadow.name: self.shadow_mirrored[name]
            metrics.counter(
                "tenant_shadow_mirrored_total", fn=mirrored, unit="requests",
                labels={"tenant": shadow.name},
                help="client requests mirrored to the shadow tenant",
            )
            routes.append((shadow.name, ARM_SHADOW, mirrored))
        for name, arm, routed in routes:
            metrics.counter(
                "tenant_requests_total", fn=routed, unit="requests",
                labels={"tenant": name, "arm": arm},
                help="requests routed, by tenant and traffic arm",
            )

    # -- routing -----------------------------------------------------------

    def _pick_tenant(self) -> TenantConfig:
        """Smooth weighted round-robin over the primary tenants."""
        if len(self._primaries) == 1:
            return self._primaries[0]
        best = None
        for tenant in self._primaries:
            self._credit[tenant.name] += self._offered[tenant.name]
            if best is None or self._credit[tenant.name] > self._credit[best.name]:
                best = tenant
        self._credit[best.name] -= self._offered_total
        return best

    def _pick_arm(self, tenant: TenantConfig) -> str:
        if tenant.canary_fraction <= 0:
            return ARM_STABLE
        credit = self._canary_credit[tenant.name] + tenant.canary_fraction
        if credit >= 1.0:
            self._canary_credit[tenant.name] = credit - 1.0
            return ARM_CANARY
        self._canary_credit[tenant.name] = credit
        return ARM_STABLE

    def submit(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        """Route one client request; mirror it to due shadow tenants."""
        tenant = self._pick_tenant()
        arm = self._pick_arm(tenant)
        request.tenant = tenant.name
        request.arm = arm
        if request.deadline_s is None and tenant.slo_ms is not None:
            request.deadline_s = request.sent_at + tenant.slo_ms / 1000.0
        tally = self.tallies[tenant.name]
        tally.requests += 1
        if arm == ARM_CANARY:
            tally.canary_requests += 1
        self._pending[tenant.name] += 1
        self._note_route(request, tenant.name, arm)
        self.forward(request, self._observer(tenant.name, respond))
        for shadow in self.config.shadows:
            credit = self._shadow_credit[shadow.name] + shadow.weight
            if credit >= 1.0:
                self._shadow_credit[shadow.name] = credit - 1.0
                self._mirror(request, shadow)
            else:
                self._shadow_credit[shadow.name] = credit

    def _observer(
        self, name: str, respond: ResponseCallback
    ) -> ResponseCallback:
        """Tally the tenant's outcome, then deliver to the client."""

        def observed(response: RecommendationResponse) -> None:
            self._pending[name] -= 1
            self.tallies[name].record(response)
            respond(response)

        return observed

    # -- shadow traffic ----------------------------------------------------

    def _mirror(
        self, request: RecommendationRequest, shadow: TenantConfig
    ) -> None:
        """Send a scored-but-never-returned copy to a shadow tenant."""
        mirror_id = self._next_shadow_id
        self._next_shadow_id += 1
        copy = RecommendationRequest(
            request_id=mirror_id,
            session_id=request.session_id,
            session_items=request.session_items,
            sent_at=request.sent_at,
            tenant=shadow.name,
            arm=ARM_STABLE,
        )
        if shadow.slo_ms is not None:
            copy.deadline_s = copy.sent_at + shadow.slo_ms / 1000.0
        self.shadow_mirrored[shadow.name] += 1
        self._note_route(copy, shadow.name, ARM_SHADOW)

        def swallow(response: RecommendationResponse) -> None:
            # Scored, never returned: the client callback is never invoked
            # for shadow work, whatever the outcome.
            self.shadow_completed[shadow.name] += 1

        self.forward(copy, swallow)

    # -- observability -----------------------------------------------------

    def _note_route(
        self, request: RecommendationRequest, name: str, arm: str
    ) -> None:
        if self.telemetry is None:
            return
        now = self.simulator.now
        self.telemetry.trace.record(
            "tenant_route", request.request_id, now, now, tenant=name, arm=arm
        )

    # -- reporting ---------------------------------------------------------

    def summary(
        self,
        duration_s: Optional[float] = None,
        shed_by_tenant: Optional[Dict[str, int]] = None,
        rollouts: Optional[list] = None,
    ) -> Dict:
        """The ``RunResult.tenancy`` section.

        ``shed_by_tenant`` merges the server-side admission tallies
        (summed across pods) into each tenant's row.
        """
        shed_by_tenant = shed_by_tenant or {}
        tenants = {}
        for tenant in self._primaries:
            tally = self.tallies[tenant.name]
            p50 = p90 = None
            if tally.digest.count:
                p50 = tally.digest.percentile(50) * 1e3
                p90 = tally.digest.percentile(90) * 1e3
            slo_met = None
            if tenant.slo_ms is not None and p90 is not None:
                slo_met = bool(p90 <= tenant.slo_ms)
            served = tally.ok + tally.errors
            tenants[tenant.name] = {
                "model": tenant.model,
                "weight": tenant.weight,
                "entitlement": round(
                    self.config.entitlement(tenant.name), 6
                ),
                "slo_ms": tenant.slo_ms,
                "requests": tally.requests,
                "ok": tally.ok,
                "errors": tally.errors,
                "degraded": tally.degraded,
                "shed": shed_by_tenant.get(tenant.name, 0),
                "cache_hits": tally.cache_hits,
                "hit_rate": (
                    round(tally.cache_hits / served, 6) if served else 0.0
                ),
                "canary_requests": tally.canary_requests,
                "rps": (
                    round(tally.requests / duration_s, 3)
                    if duration_s
                    else None
                ),
                "p50_ms": round(p50, 3) if p50 is not None else None,
                "p90_ms": round(p90, 3) if p90 is not None else None,
                "slo_met": slo_met,
            }
        shadows = {
            shadow.name: {
                "model": shadow.model,
                "mirror_fraction": shadow.weight,
                "mirrored": self.shadow_mirrored[shadow.name],
                "completed": self.shadow_completed[shadow.name],
                "shed": shed_by_tenant.get(shadow.name, 0),
            }
            for shadow in self.config.shadows
        }
        section: Dict = {
            "config": self.config.spec_string(),
            "tenants": tenants,
        }
        if shadows:
            section["shadow"] = shadows
        if rollouts:
            section["rollouts"] = rollouts
        return section


__all__ = ["TrafficSplitter", "TenantTally", "SHADOW_ID_BASE"]
