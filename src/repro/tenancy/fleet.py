"""Per-replica tenant serving state for a co-located fleet.

A tenancy-enabled deployment loads *every* tenant's artifact onto every
replica (co-location): one :class:`TenantServing` per tenant per pod
carries that pod's view of the tenant — its scorer, its service-time
profile, and its *current* artifact version. The version is mutable on
purpose: rolling weight updates bump it pod by pod
(:mod:`repro.tenancy.rollout`), and two pods of one deployment may
briefly serve different versions of the same tenant mid-rollout.

Cache scoping: every cache key a tenant's request produces embeds
``version@tenant[#canary]`` (:meth:`TenantServing.cache_version`), so

- two tenants serving the *same* model artifact still have disjoint
  keyspaces (cross-tenant hits are impossible by construction), and
- a version bump or a canary arm opens a fresh keyspace — stale entries
  of the previous artifact can never answer for the new one, while the
  *other* tenants' entries survive untouched.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.latency_model import ServiceTimeProfile
from repro.tenancy.config import TenantConfig

#: The canary traffic arm (``TenantServing.canary_version`` serves it).
ARM_CANARY = "canary"
#: The default arm served by the tenant's stable artifact version.
ARM_STABLE = "stable"


class TenantServing:
    """One pod's serving state for one tenant (mutable across rollouts)."""

    __slots__ = (
        "config",
        "model",
        "service_profile",
        "artifact_version",
        "canary_version",
        "resident_bytes",
        "score_bytes_per_item",
    )

    def __init__(
        self,
        config: TenantConfig,
        service_profile: ServiceTimeProfile,
        artifact_version: str,
        model=None,
        canary_version: Optional[str] = None,
        resident_bytes: float = 0.0,
        score_bytes_per_item: float = 0.0,
    ):
        self.config = config
        self.model = model
        self.service_profile = service_profile
        self.artifact_version = artifact_version
        self.canary_version = canary_version
        self.resident_bytes = float(resident_bytes)
        self.score_bytes_per_item = float(score_bytes_per_item)
        if config.canary_fraction > 0 and canary_version is None:
            raise ValueError(
                f"tenant {config.name!r} has a canary arm but no canary "
                "artifact version"
            )

    @property
    def name(self) -> str:
        return self.config.name

    def clone(self) -> "TenantServing":
        """A fresh per-pod copy (each pod owns its version state)."""
        return TenantServing(
            config=self.config,
            model=self.model,
            service_profile=self.service_profile,
            artifact_version=self.artifact_version,
            canary_version=self.canary_version,
            resident_bytes=self.resident_bytes,
            score_bytes_per_item=self.score_bytes_per_item,
        )

    def version_for(self, arm: str) -> str:
        if arm == ARM_CANARY and self.canary_version is not None:
            return self.canary_version
        return self.artifact_version

    def cache_version(self, arm: str = ARM_STABLE) -> str:
        """Cache-key version scoping this tenant+arm's results.

        ``version@tenant`` keeps tenants serving the same artifact in
        disjoint keyspaces; the canary arm appends its own marker so
        stable and canary answers never mix.
        """
        version = f"{self.version_for(arm)}@{self.config.name}"
        if arm == ARM_CANARY:
            version += "#canary"
        return version

    def hosted_bytes(self) -> float:
        """Resident bytes this tenant pins on one replica.

        A tenant with an active canary arm holds *two* artifact versions
        resident at once, doubling its footprint.
        """
        copies = 2 if self.canary_version is not None else 1
        return self.resident_bytes * copies


__all__ = [
    "TenantServing",
    "ARM_STABLE",
    "ARM_CANARY",
]
