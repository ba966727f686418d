"""Canonical session-prefix cache keys.

Two live sessions that share their recent click history will receive the
same top-k answer from any session-based recommender whose input is the
(truncated) session prefix — every model in the zoo truncates to
``max_session_length`` and most of the predictive signal sits in the last
few clicks. The cache therefore keys on the **last N clicks** of the
session (``window``), not the full prefix: a longer window means stricter
matching (fewer, more exact hits), a shorter one means more sharing at the
cost of serving an answer computed for a slightly different history.

Keys are additionally scoped by the **model artifact version** (the
deployed artifact path). A redeploy or canary rollout changes the version,
so stale entries computed by the previous artifact can never answer for
the new one — natural invalidation without an explicit flush.

Keys must be hashable, cheap to build on the intake hot path, and
deterministic across processes; a tuple of plain Python ints satisfies
all three, and converting makes key equality independent of whatever
array dtype the load generator happened to use.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

#: A fully scoped cache key: (artifact_version, last-N click ids).
CacheKey = Tuple[str, Tuple[int, ...]]


def prefix_tuple(session_items: Sequence[int], window: int) -> Tuple[int, ...]:
    """The last ``window`` clicks of a session as a hashable tuple."""
    if window < 1:
        raise ValueError("window must be >= 1")
    items = np.asarray(session_items).reshape(-1)
    tail = items[-window:] if items.shape[0] > window else items
    return tuple(tail.tolist())


class SessionKeyer:
    """Builds versioned session-prefix keys for one deployed artifact."""

    __slots__ = ("version", "window")

    def __init__(self, version: str, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.version = str(version)
        self.window = int(window)

    def key_for(
        self,
        session_items: Sequence[int],
        version: Optional[str] = None,
    ) -> CacheKey:
        """The cache key of one recommendation request's session prefix.

        ``version`` overrides the keyer's artifact version for this one
        key — the multi-tenant server passes a tenant-scoped version
        (``artifact@tenant[#canary]``) so co-located tenants keep
        disjoint keyspaces in the shared tiers.
        """
        scope = self.version if version is None else version
        return (scope, prefix_tuple(session_items, self.window))

    def set_version(self, version: str) -> None:
        """Point the keyer at a new artifact (redeploy / canary swap).

        Entries written under the previous version remain in the store
        until evicted, but no future key can match them.
        """
        self.version = str(version)


__all__ = ["CacheKey", "SessionKeyer", "prefix_tuple"]
