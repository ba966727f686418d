"""Recommendation request/response types flowing through the simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

HTTP_OK = 200
HTTP_SERVICE_UNAVAILABLE = 503
#: Client-side timeout (the load generator gave up waiting).
HTTP_GATEWAY_TIMEOUT = 504


@dataclass(slots=True)
class RecommendationRequest:
    """One next-item recommendation request for an ongoing session.

    ``session_items`` is the session prefix up to (and including) the
    current click — what the deployed model would receive as input.
    """

    request_id: int
    session_id: int
    session_items: np.ndarray
    sent_at: float
    #: Absolute virtual time by which the response must arrive (stamped by
    #: the load generator from the run's SLO deadline; None = no deadline,
    #: the paper's behaviour). Admission control sheds work past it.
    deadline_s: Optional[float] = None
    #: Tenant this request belongs to (stamped by the traffic splitter on
    #: tenancy-enabled runs; None = the single-tenant paper harness).
    tenant: Optional[str] = None
    #: Traffic arm within the tenant ("stable" / "canary"); only
    #: meaningful when ``tenant`` is set.
    arm: Optional[str] = None

    @property
    def session_length(self) -> int:
        return int(self.session_items.shape[0])


@dataclass(slots=True)
class RecommendationResponse:
    """The server's answer, with the metrics ETUDE extracts.

    The paper's inference server reports the pure inference duration via an
    HTTP response header in addition to the end-to-end latency the load
    generator measures; ``inference_s`` is that header.
    """

    request_id: int
    status: int
    completed_at: float
    latency_s: float
    inference_s: float = 0.0
    #: Time spent waiting in the server's queue / batching buffer before
    #: execution started (the latency-decomposition header).
    queue_s: float = 0.0
    batch_size: int = 1
    items: Optional[np.ndarray] = None
    #: Scores aligned with ``items`` — populated only on sharded
    #: deployments, where the scatter-gather merge needs them to pick the
    #: exact global top-k from the per-shard candidates.
    scores: Optional[np.ndarray] = None
    #: True when the fallback tier answered (popularity top-k instead of
    #: the session-aware model) — a 200, but quality-degraded.
    degraded: bool = False
    #: Fraction of the catalog that contributed candidates to this
    #: response. 1.0 everywhere except sharded fan-outs with failed or
    #: degraded shard legs (partial-result semantics).
    coverage: float = 1.0
    #: True when the result cache answered (a tier hit or a coalesced
    #: follower) — full quality, no inference executed for this request.
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.status == HTTP_OK


ResponseCallback = Callable[[RecommendationResponse], None]
