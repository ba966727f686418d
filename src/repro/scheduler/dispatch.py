"""Size/deadline-aware query dispatch over a heterogeneous fleet.

The DeepRecSys observation: a GPU earns its keep by batching, but batching
costs every batched request the linger window — dead time a short session
(cheap anywhere) or a tight-deadline request (no slack left to spend)
cannot afford. The :class:`QueryDispatcher` therefore splits the incoming
stream in O(1) per request:

- **tight slack** — the request's remaining deadline budget cannot cover
  the *current* GPU linger (plus the configured safety slack), so waiting
  out a full batching window could blow the deadline. Routed to CPU,
  which starts executing immediately. This is the routing invariant the
  tests pin down: a tight-deadline request never waits out a full GPU
  linger.
- **short session** — at most ``short_session`` clicks. Session-based
  models do O(session length) recurrent/attention work, so short sessions
  are the cheap head of the distribution where a CPU answer costs little
  and removing them from GPU batches frees slots for the expensive tail.
- everything else accumulates into GPU batches.

Both thresholds are live knobs the :class:`~repro.scheduler.tuner`
hill-climbs between epochs; the dispatcher also keeps per-route latency
digests for the current tuning epoch so the tuner sees which side of the
fleet is hurting.

Determinism: routing draws no random numbers — the decision is a pure
function of the request and the current knobs.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.metrics.percentile import LatencyDigest
from repro.serving.request import RecommendationRequest, RecommendationResponse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Telemetry

from repro.scheduler.config import SchedulerConfig

#: Route labels (also the ``route=`` label on ``scheduler_routed_total``).
ROUTE_CPU = "cpu"
ROUTE_GPU = "gpu"

#: Why a request left the GPU path (``reason=`` on offload counters).
REASON_TIGHT = "tight_slack"
REASON_SHORT = "short_session"
REASON_ONLY = "single_class"


class QueryDispatcher:
    """Routes requests between the CPU pool and the GPU batch path."""

    def __init__(
        self,
        config: SchedulerConfig,
        telemetry: Optional["Telemetry"] = None,
    ):
        self.config = config
        self.telemetry = telemetry
        # Live knobs (the tuner mutates these between epochs).
        self.short_session = config.short_session
        self.slack_s = config.slack_s
        #: Mirror of the GPU fleet's current linger window; the tuner
        #: keeps it in sync when it retunes the batching config.
        self.linger_s = config.linger_s
        # Run-lifetime tallies.
        self.routed = {ROUTE_CPU: 0, ROUTE_GPU: 0}
        self.offloaded = {REASON_TIGHT: 0, REASON_SHORT: 0}
        if telemetry is not None:
            for route in self.routed:
                telemetry.metrics.counter(
                    "scheduler_routed_total",
                    fn=lambda route=route: self.routed[route],
                    labels={"route": route},
                    help="Requests dispatched per pod class.",
                )
            for reason in self.offloaded:
                telemetry.metrics.counter(
                    "scheduler_offload_total",
                    fn=lambda reason=reason: self.offloaded[reason],
                    labels={"reason": reason},
                    help="Requests steered off the GPU batch path.",
                )
        # Per-epoch feedback for the tuner (reset by epoch_snapshot()).
        self._epoch_digests = {
            ROUTE_CPU: LatencyDigest(),
            ROUTE_GPU: LatencyDigest(),
        }
        self._epoch_overall = LatencyDigest()

    # -- routing --------------------------------------------------------------

    def route(
        self,
        request: RecommendationRequest,
        now: float,
        has_cpu: bool,
        has_gpu: bool,
    ) -> str:
        """Pick ``"cpu"`` or ``"gpu"`` for one request.

        ``has_cpu``/``has_gpu`` reflect which pod classes currently have
        ready backends — a degraded fleet falls back to whatever is left.
        """
        if not (has_cpu and has_gpu):
            route = ROUTE_CPU if has_cpu else ROUTE_GPU
            reason = REASON_ONLY
        elif (
            request.deadline_s is not None
            and request.deadline_s - now <= self.linger_s + self.slack_s
        ):
            route, reason = ROUTE_CPU, REASON_TIGHT
        elif request.session_length <= self.short_session:
            route, reason = ROUTE_CPU, REASON_SHORT
        else:
            route, reason = ROUTE_GPU, None
        self.routed[route] += 1
        if route is ROUTE_CPU and reason in self.offloaded:
            self.offloaded[reason] += 1
        if self.telemetry is not None:
            self.telemetry.trace.record(
                "sched_route", request.request_id, now, now,
                route=route, reason=reason or "batchable",
            )
        return route

    # -- tuner feedback -------------------------------------------------------

    def observe(self, route: str, response: RecommendationResponse) -> None:
        """Feed one delivered response's latency into the epoch digests."""
        if not response.ok:
            return
        self._epoch_digests[route].record(response.latency_s)
        self._epoch_overall.record(response.latency_s)

    def epoch_snapshot(self, quantile: float) -> dict:
        """Per-route p-tail for the epoch just ended; resets the window."""
        snapshot = {"count": len(self._epoch_overall)}
        for name, digest in (
            ("p_tail_ms", self._epoch_overall),
            ("cpu_p_ms", self._epoch_digests[ROUTE_CPU]),
            ("gpu_p_ms", self._epoch_digests[ROUTE_GPU]),
        ):
            snapshot[name] = (
                digest.percentile(quantile) * 1e3 if len(digest) else None
            )
        self._epoch_digests = {
            ROUTE_CPU: LatencyDigest(),
            ROUTE_GPU: LatencyDigest(),
        }
        self._epoch_overall = LatencyDigest()
        return snapshot

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        """Run-lifetime routing tallies for ``RunResult.scheduler``."""
        return {
            "routed_cpu": self.routed[ROUTE_CPU],
            "routed_gpu": self.routed[ROUTE_GPU],
            "offload_tight_slack": self.offloaded[REASON_TIGHT],
            "offload_short_session": self.offloaded[REASON_SHORT],
        }
