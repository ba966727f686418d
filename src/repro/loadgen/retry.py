"""Client-side retry semantics for the load generator.

Real recommendation clients do not treat a single 503 from a restarting
pod as a terminal failure: they retry against the service's rotation with
capped exponential backoff, and latency-sensitive deployments hedge
long-running requests with a duplicate. Without that recovery path every
failure scenario collapses into "errors until restart", which hides
exactly the degraded-capacity regime ETUDE is supposed to measure.

:class:`RetryPolicy` is the declarative half: how many attempts a request
may burn, how the backoff grows, and whether hedging is enabled. The
mechanics live in :class:`~repro.loadgen.generator.LoadGenerator`, which
resubmits through the same ``submit()`` target — for a deployed run that
is the ClusterIP rotation, so a retry naturally lands on the next pod.

Determinism: backoff jitter draws from a dedicated seeded stream passed
alongside the policy, and nothing draws when no retry fires, so enabling
the policy on a failure-free run and disabling it entirely both reproduce
the baseline latencies bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

import numpy as np

from repro.grammar import format_options, parse_options
from repro.serving.request import HTTP_SERVICE_UNAVAILABLE

#: spec key -> (field, cast) for :meth:`RetryPolicy.parse`.
_KEYS = {
    "max": ("max_retries", int),
    "base": ("base_backoff_s", float),
    "cap": ("max_backoff_s", float),
    "mult": ("multiplier", float),
    "jitter": ("jitter", float),
    "hedge": ("hedge_after_s", float),
}


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter, plus hedging.

    ``max_retries`` is the per-request retry budget: a request is sent at
    most ``1 + max_retries`` times (hedges not counted). Backoff before
    attempt ``n`` (1-based) is ``base_backoff_s * multiplier**(n-1)``
    capped at ``max_backoff_s``, shrunk by up to ``jitter`` (a fraction in
    ``[0, 1]``) drawn from the seeded retry stream. ``hedge_after_s``, when
    set, fires one duplicate request if no response arrived within that
    window; the first response to arrive settles the request.
    """

    max_retries: int = 3
    base_backoff_s: float = 0.05
    max_backoff_s: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.5
    hedge_after_s: Optional[float] = None
    retryable_statuses: FrozenSet[int] = field(
        default_factory=lambda: frozenset({HTTP_SERVICE_UNAVAILABLE})
    )

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError("need 0 <= base_backoff_s <= max_backoff_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError("hedge_after_s must be positive")

    def retryable(self, status: int) -> bool:
        return status in self.retryable_statuses

    def backoff_s(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Delay before retry ``attempt`` (1-based), jittered via ``rng``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(
            self.base_backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter == 0.0 or rng is None:
            return raw
        # Deterministic "full-ish jitter": shrink by up to `jitter` of the
        # raw delay. The draw comes from the dedicated retry stream, so
        # jitter never perturbs any other actor's randomness.
        return raw * (1.0 - self.jitter * float(rng.random()))

    @classmethod
    def parse(cls, text: str) -> "RetryPolicy":
        """Build a policy from a compact CLI spec.

        ``"max=3,base=0.05,cap=1.0,mult=2,jitter=0.5,hedge=0.2"`` — every
        key optional, empty string = all defaults. ``hedge`` enables hedged
        requests after that many seconds.
        """
        return cls(**parse_options(text, "retry", _KEYS))

    def spec_string(self) -> str:
        """The compact form :meth:`parse` accepts (for spec files)."""
        return format_options(self, _KEYS)
