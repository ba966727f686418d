"""Scatter-gather fan-out: one request -> S shard legs -> merged top-k.

The aggregator models DeepRecSys-style query fan-out: a request arriving
at the aggregation tier is copied to every shard replica set in
parallel, each leg paying its own network traversal both ways, and the
merged response cannot leave before the *slowest* leg has landed plus
the :class:`~repro.hardware.latency_model.ShardMergeCost` — fan-out
trades per-shard scan time for tail-of-S network legs.

Partial-result semantics (shard crash, overloaded shard shedding to the
fallback tier): legs that fail or answer degraded contribute no catalog
coverage; as long as one full leg lands the merged response is still a
200 with ``coverage < 1`` and ``degraded=True`` (an operator-visible
quality downgrade, not an availability hit). ``allow_partial=False``
turns any coverage loss into a 503 instead.

Each hop of a leg is one scheduled ``functools.partial``: the outbound
leg calls the shard's submit target with a partial of
:meth:`ScatterGatherAggregator._leg_respond` as its responder, and the
return leg lands through a partial of ``_land``. A fan-out whose every
leg is a full, latency-only 200 settles without the general merge.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.latency_model import ShardMergeCost
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationRequest,
    RecommendationResponse,
    ResponseCallback,
)
from repro.sharding.config import ShardingConfig
from repro.sharding.merge import merge_topk

#: Sub-request ids live in their own negative range so they can never
#: collide with client request ids (positive), service housekeeping
#: spans (-100_000 down) or chaos spans (-1 down).
SUB_REQUEST_ID_START = -1_000_000

#: Coverage below this is indistinguishable from full (float dust).
_FULL_COVERAGE_EPS = 1e-9


class _Fanout:
    """In-flight state of one scattered request."""

    __slots__ = (
        "request",
        "respond",
        "legs",
        "degraded",
        "pending",
        "fanout_span",
    )

    def __init__(self, request, respond, shards):
        self.request = request
        self.respond = respond
        #: Each shard's answer by shard index; None until it lands.
        self.legs: List[Optional[RecommendationResponse]] = [None] * shards
        #: The legs that answered degraded, in the order they landed: a
        #: merge with no full leg passes the first one's items through.
        self.degraded: List[RecommendationResponse] = []
        self.pending = shards
        self.fanout_span = None


class ScatterGatherAggregator:
    """Fans requests out to all shards and merges per-shard top-k."""

    def __init__(
        self,
        simulator,
        config: ShardingConfig,
        shard_submits: Sequence[Callable[[RecommendationRequest, ResponseCallback], None]],
        network_delay: Callable[[], float],
        top_k: int,
        coverage_fractions: Optional[Sequence[float]] = None,
        telemetry=None,
    ):
        if len(shard_submits) != config.shards:
            raise ValueError("need exactly one submit target per shard")
        self.simulator = simulator
        self.config = config
        self.shard_submits = list(shard_submits)
        self.network_delay = network_delay
        self.top_k = top_k
        if coverage_fractions is None:
            coverage_fractions = [1.0 / config.shards] * config.shards
        if len(coverage_fractions) != config.shards:
            raise ValueError("need exactly one coverage fraction per shard")
        self.coverage_fractions = list(coverage_fractions)
        #: The merge cost and the coverage of a fan-out whose every leg
        #: is full depend on the configuration only.
        self.merge_s = ShardMergeCost().cost_s(config.shards, top_k)
        self._full_coverage = sum(self.coverage_fractions)
        self._full_is_partial = self._full_coverage < 1.0 - _FULL_COVERAGE_EPS
        self.telemetry = telemetry
        self._next_sub_id = SUB_REQUEST_ID_START

        # Tallies for the RunResult/InfraTestResult sharding sections.
        self.fanouts = 0
        self.merged_ok = 0
        self.partial_responses = 0
        self.failed_fanouts = 0
        self.coverage_sum = 0.0
        self.min_coverage = 1.0

        if telemetry is not None:
            metrics = telemetry.metrics
            metrics.counter(
                "shard_fanout_total", fn=lambda: self.fanouts,
                help="Requests scattered to all shards",
            )
            metrics.counter(
                "shard_partial_responses_total",
                fn=lambda: self.partial_responses,
                help="Merged 200s with partial catalog coverage",
            )
            metrics.counter(
                "shard_failed_fanouts_total", fn=lambda: self.failed_fanouts,
                help="Fan-outs answered 503 (no usable shard leg)",
            )

    # -- fan-out -----------------------------------------------------------

    def scatter(
        self, request: RecommendationRequest, respond: ResponseCallback
    ) -> None:
        """Copy ``request`` to every shard; ``respond`` once with the merge.

        The caller has already delivered the request to the aggregation
        tier (charging any client leg); this charges the
        aggregator-to-shard legs both ways plus the merge cost. The
        merged response is stamped at merge completion — callers with a
        return leg re-stamp on delivery, as with any backend response.
        """
        simulator = self.simulator
        now = simulator.now
        self.fanouts += 1
        state = _Fanout(request, respond, self.config.shards)
        if self.telemetry is not None:
            self.telemetry.trace.record(
                "sent", request.request_id, request.sent_at, now
            )
            state.fanout_span = self.telemetry.trace.begin(
                "shard_fanout",
                request.request_id,
                at=now,
                shards=self.config.shards,
            )
        call_at = simulator.call_at
        network_delay = self.network_delay
        leg_respond = self._leg_respond
        sub_id = self._next_sub_id
        for shard_index, submit in enumerate(self.shard_submits):
            sub = RecommendationRequest(
                request_id=sub_id,
                session_id=request.session_id,
                session_items=request.session_items,
                sent_at=now,
                deadline_s=request.deadline_s,
            )
            sub_id -= 1
            delay = network_delay()
            call_at(
                now + (0.0 if delay < 0.0 else delay),
                partial(submit, sub, partial(leg_respond, state, shard_index)),
            )
        self._next_sub_id = sub_id

    def _leg_respond(
        self, state: _Fanout, shard_index: int, response: RecommendationResponse
    ) -> None:
        """A shard answered its leg: send the answer back to the aggregator."""
        delay = self.network_delay()
        simulator = self.simulator
        simulator.call_at(
            simulator.now + (0.0 if delay < 0.0 else delay),
            partial(self._land, state, shard_index, response),
        )

    def _land(
        self, state: _Fanout, shard_index: int, response: RecommendationResponse
    ) -> None:
        state.legs[shard_index] = response
        if response.degraded:
            state.degraded.append(response)
        state.pending -= 1
        if state.pending > 0:
            return
        now = self.simulator.now
        merge_s = self.merge_s
        if state.fanout_span is not None:
            state.fanout_span.finish(
                at=now,
                responded=sum(1 for leg in state.legs if leg.ok),
            )
            self.telemetry.trace.record(
                "shard_merge", state.request.request_id, now, now + merge_s,
                candidates=self.config.shards * self.top_k,
            )
        self.simulator.call_at(now + merge_s, partial(self._settle, state))

    # -- merge -------------------------------------------------------------

    def _settle(self, state: _Fanout) -> None:
        now = self.simulator.now
        request = state.request
        legs = state.legs
        if not state.degraded and not self._full_is_partial:
            for leg in legs:
                if leg.status != HTTP_OK or leg.items is not None:
                    break
            else:
                # Every leg is a full, latency-only 200: full coverage,
                # nothing to merge. The general merge below would answer
                # exactly this, from the same legs in shard order.
                coverage = self._full_coverage
                self.merged_ok += 1
                self.coverage_sum += coverage
                self.min_coverage = min(self.min_coverage, coverage)
                state.respond(
                    RecommendationResponse(
                        request_id=request.request_id,
                        status=HTTP_OK,
                        completed_at=now,
                        latency_s=now - request.sent_at,
                        inference_s=max([leg.inference_s for leg in legs]),
                        queue_s=max([leg.queue_s for leg in legs]),
                        batch_size=max([leg.batch_size for leg in legs]),
                        cache_hit=all([leg.cache_hit for leg in legs]),
                        coverage=coverage,
                    )
                )
                return
        full_legs = [
            (shard, leg)
            for shard, leg in enumerate(legs)
            if leg.ok and not leg.degraded
        ]
        degraded_legs = [leg for leg in state.degraded if leg.ok]
        coverage = sum(self.coverage_fractions[shard] for shard, _ in full_legs)
        partial_coverage = coverage < 1.0 - _FULL_COVERAGE_EPS

        if not full_legs and not degraded_legs:
            state.respond(self._failure(request, now))
            return
        if partial_coverage and not self.config.allow_partial:
            state.respond(self._failure(request, now))
            return

        items: Optional[np.ndarray] = None
        scores: Optional[np.ndarray] = None
        candidates: List[Tuple[np.ndarray, np.ndarray]] = [
            (leg.items, leg.scores)
            for _, leg in full_legs
            if leg.items is not None and leg.scores is not None
        ]
        if candidates:
            items, scores = merge_topk(candidates, self.top_k)
        elif not full_legs:
            # Every surviving leg is a fallback-tier answer: pass the
            # first one's popularity top-k through.
            items = degraded_legs[0].items

        ok_legs = [leg for _, leg in full_legs] or degraded_legs
        self.merged_ok += 1
        self.coverage_sum += coverage
        self.min_coverage = min(self.min_coverage, coverage)
        if partial_coverage:
            self.partial_responses += 1
        state.respond(
            RecommendationResponse(
                request_id=request.request_id,
                status=HTTP_OK,
                completed_at=now,
                latency_s=now - request.sent_at,
                inference_s=max(leg.inference_s for leg in ok_legs),
                queue_s=max(leg.queue_s for leg in ok_legs),
                batch_size=max(leg.batch_size for leg in ok_legs),
                items=items,
                scores=scores,
                degraded=partial_coverage or not full_legs,
                cache_hit=bool(full_legs)
                and all(leg.cache_hit for _, leg in full_legs),
                coverage=coverage,
            )
        )

    def _failure(
        self, request: RecommendationRequest, now: float
    ) -> RecommendationResponse:
        self.failed_fanouts += 1
        return RecommendationResponse(
            request_id=request.request_id,
            status=HTTP_SERVICE_UNAVAILABLE,
            completed_at=now,
            latency_s=now - request.sent_at,
            coverage=0.0,
        )

    # -- reporting ---------------------------------------------------------

    def mean_coverage(self) -> float:
        if self.merged_ok == 0:
            return 0.0
        return self.coverage_sum / self.merged_ok

    def stats(self) -> Dict[str, float]:
        """Plain-scalar tallies for result sections (JSON-safe)."""
        return {
            "shards": self.config.shards,
            "fanouts": self.fanouts,
            "merged_ok": self.merged_ok,
            "partial_responses": self.partial_responses,
            "failed_fanouts": self.failed_fanouts,
            "mean_coverage": round(self.mean_coverage(), 6),
            "min_coverage": round(
                self.min_coverage if self.merged_ok else 0.0, 6
            ),
            "merge_cost_s": self.merge_s,
        }
