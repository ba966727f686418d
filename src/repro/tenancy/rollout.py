"""Rolling per-tenant artifact-version updates (weight pushes).

A production weight push replaces one tenant's artifact without
touching its co-tenants and without a fleet-wide restart: pod by pod,
the pod leaves the ClusterIP rotation, loads the tenant's new artifact
(charged at the cluster's model-load bandwidth), has that tenant's
version bumped, and rejoins. In-flight and queued work on the pod keeps
completing meanwhile — with two or more replicas the client never sees
a 5xx from the rollout itself.

Cache correctness falls out of key scoping
(:meth:`~repro.tenancy.fleet.TenantServing.cache_version`): the version
bump opens a fresh keyspace for exactly this tenant on exactly this pod
— stale entries can never answer for the new artifact, and every other
tenant's entries (local and remote tier) survive untouched. A tenant
with a canary arm *promotes* the canary version to stable; otherwise
the version gets a ``+r1`` rollout suffix.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cluster.kubernetes import Cluster, ModelDeployment
from repro.tenancy.config import TenantConfig

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
    from repro.simulation import Simulator

#: Rollout trace spans draw ids from their own range (one per pod bump).
ROLLOUT_ID_BASE = 1 << 41


def bumped_version(serving) -> str:
    """The version a rollout moves the tenant's stable arm to."""
    if serving.canary_version is not None:
        return serving.canary_version
    return f"{serving.artifact_version}+r1"


class TenantRollout:
    """One tenant's rolling version update over one deployment."""

    def __init__(
        self,
        simulator: "Simulator",
        deployment: ModelDeployment,
        tenant: TenantConfig,
        start_at_s: float,
        telemetry: Optional["Telemetry"] = None,
    ):
        if tenant.rollout_at_s is None:
            raise ValueError(f"tenant {tenant.name!r} has no rollout= time")
        self.simulator = simulator
        self.deployment = deployment
        self.tenant = tenant
        self.start_at_s = start_at_s
        self.telemetry = telemetry
        #: One entry per pod bumped: {"pod", "at_s", "version"}.
        self.events: List[Dict] = []
        self.done = False
        self._span_id = ROLLOUT_ID_BASE

    def schedule(self) -> None:
        """Arm the rollout at its absolute virtual start time."""
        self.simulator.call_at(
            self.start_at_s,
            lambda: self.simulator.spawn(self._run()),
        )

    def _run(self):
        # Like Kubernetes, write the rollout into the pod template before
        # replacing pods: a pod restarted or added from now on serves the
        # new version. One version for every pod, so a pod restarted
        # mid-rollout is not bumped twice.
        template = self.deployment.template
        tenants = [serving.clone() for serving in template.tenants]
        (rolled,) = [s for s in tenants if s.name == self.tenant.name]
        new_version = bumped_version(rolled)
        rolled.artifact_version = new_version
        self.deployment.template = dataclasses.replace(template, tenants=tenants)
        for pod in list(self.deployment.pods):
            server = pod.server
            if server is None or server.tenants is None:
                continue
            serving = server.tenants.get(self.tenant.name)
            if serving is None:
                continue
            # Out of rotation while the new artifact loads; queued work
            # keeps completing on the pod meanwhile.
            was_ready = pod.ready
            self.deployment.set_ready(pod, False)
            started = self.simulator.now
            yield serving.resident_bytes / Cluster.MODEL_LOAD_BANDWIDTH
            server.set_tenant_version(self.tenant.name, new_version)
            self.deployment.set_ready(pod, was_ready)
            now = self.simulator.now
            self.events.append(
                {
                    "pod": pod.name,
                    "at_s": round(now, 6),
                    "version": new_version,
                }
            )
            if self.telemetry is not None:
                self._span_id += 1
                self.telemetry.trace.record(
                    "tenant_rollout",
                    self._span_id,
                    started,
                    now,
                    tenant=self.tenant.name,
                    pod=pod.name,
                    version=new_version,
                )
        self.done = True

    def summary(self) -> Dict:
        return {
            "tenant": self.tenant.name,
            "started_at_s": round(self.start_at_s, 6),
            "pods_updated": len(self.events),
            "completed": self.done,
            "events": list(self.events),
        }


__all__ = ["TenantRollout", "bumped_version", "ROLLOUT_ID_BASE"]
