"""Horizontal pod autoscaling over a model deployment.

The paper's conclusion mentions "the automatic choice of appropriate
instance types for declaratively specified workloads"; the
:class:`~repro.core.planner.DeploymentPlanner` covers the *offline* choice.
This module adds the *online* half: a Kubernetes-HPA-style control loop
that observes per-pod queue pressure and scales the replica count while an
experiment runs.

Control law (the standard HPA proportional rule):

``desired = ceil(ready_replicas * observed_metric / target_metric)``

with the metric being the mean per-pod queue depth (a direct proxy for
utilization in this serving model), clamped to ``[min_replicas,
max_replicas]``, with a stabilization window before scaling down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.cluster.kubernetes import Cluster, ModelDeployment

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry


@dataclass
class AutoscalerConfig:
    min_replicas: int = 1
    max_replicas: int = 8
    #: Mean queued requests per pod the controller aims for.
    target_queue_per_pod: float = 4.0
    #: Control-loop period (Kubernetes default: 15 s).
    interval_s: float = 15.0
    #: Consecutive low-pressure observations required before scaling down
    #: (stabilization window, in control intervals).
    scale_down_intervals: int = 4

    def __post_init__(self):
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if self.target_queue_per_pod <= 0:
            raise ValueError("target_queue_per_pod must be positive")


@dataclass
class ScalingEvent:
    time: float
    direction: str  # "up" | "down"
    from_replicas: int
    to_replicas: int
    observed_queue_per_pod: float


class HorizontalPodAutoscaler:
    """HPA control loop for one deployment (runs as a simulator process)."""

    def __init__(
        self,
        cluster: Cluster,
        deployment: ModelDeployment,
        config: Optional[AutoscalerConfig] = None,
        telemetry: Optional["Telemetry"] = None,
    ):
        self.cluster = cluster
        self.deployment = deployment
        self.config = config or AutoscalerConfig()
        self.events: List[ScalingEvent] = []
        self._low_pressure_streak = 0
        self._starting_pods: List = []
        self._stopped = False
        #: Optional telemetry handle; None = zero overhead.
        self.telemetry = telemetry
        if telemetry is not None:
            metrics = telemetry.metrics
            metrics.gauge(
                "autoscaler_ready_replicas",
                fn=lambda: len(self.deployment.ready_pods),
                unit="pods", help="replicas past their readiness probe",
            )
            metrics.gauge(
                "autoscaler_starting_replicas",
                fn=lambda: len(self._starting_pods),
                unit="pods", help="replicas still provisioning/booting",
            )
            self._queue_gauge = metrics.gauge(
                "autoscaler_observed_queue_per_pod", unit="requests",
                help="mean per-pod queue depth at the last control tick",
            )
            metrics.counter(
                "autoscaler_scale_ups_total",
                fn=lambda: sum(e.direction == "up" for e in self.events),
                unit="events",
            )
            metrics.counter(
                "autoscaler_scale_downs_total",
                fn=lambda: sum(e.direction == "down" for e in self.events),
                unit="events",
            )

    def start(self) -> None:
        self.cluster.simulator.spawn(self._control_loop())

    def stop(self) -> None:
        self._stopped = True

    # -- metric + decision ---------------------------------------------------

    def observed_queue_per_pod(self) -> Optional[float]:
        ready = self.deployment.ready_pods
        if not ready:
            return None
        total = sum(pod.server.queue_depth() for pod in ready)
        return total / len(ready)

    def _desired_replicas(self, observed: float, current: int) -> int:
        raw = math.ceil(current * observed / self.config.target_queue_per_pod)
        return max(self.config.min_replicas, min(raw, self.config.max_replicas))

    # -- control loop -----------------------------------------------------------

    def _control_loop(self):
        config = self.config
        while not self._stopped:
            yield config.interval_s
            # Pods finish starting asynchronously; drop the ready ones.
            self._starting_pods = [p for p in self._starting_pods if not p.ready]
            observed = self.observed_queue_per_pod()
            if observed is None:
                continue
            if self.telemetry is not None:
                self._queue_gauge.set(observed)
            ready = len(self.deployment.ready_pods)
            current = ready + len(self._starting_pods)
            desired = self._desired_replicas(observed, max(ready, 1))

            if desired > current:
                self._low_pressure_streak = 0
                for _new in range(desired - current):
                    self._starting_pods.append(self.cluster.add_pod(self.deployment))
                self.events.append(
                    ScalingEvent(
                        time=self.cluster.simulator.now,
                        direction="up",
                        from_replicas=current,
                        to_replicas=desired,
                        observed_queue_per_pod=observed,
                    )
                )
            elif desired < ready and not self._starting_pods:
                self._low_pressure_streak += 1
                if self._low_pressure_streak >= config.scale_down_intervals:
                    self._low_pressure_streak = 0
                    removed = self.cluster.remove_pod(self.deployment)
                    if removed is not None:
                        self.events.append(
                            ScalingEvent(
                                time=self.cluster.simulator.now,
                                direction="down",
                                from_replicas=ready,
                                to_replicas=ready - 1,
                                observed_queue_per_pod=observed,
                            )
                        )
            else:
                self._low_pressure_streak = 0
