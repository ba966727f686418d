"""Serial-request microbenchmark (the Figure 3 experiment).

"We send recommendation requests in a serial manner (one request after
another, waiting for model responses), measure the prediction time and
report the p90 latency." Runs on a single machine — no cluster, no load
generator — with the GPU batching linger disabled (a serial client never
benefits from batching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.registry import GLOBAL_REGISTRY, AssetRegistry
from repro.hardware.instances import InstanceType
from repro.metrics.percentile import exact_percentile
from repro.serving.actix import EtudeInferenceServer
from repro.serving.batching import BatchingConfig
from repro.serving.request import RecommendationRequest
from repro.simulation import RandomStreams, Signal, Simulator
from repro.workload.statistics import WorkloadStatistics
from repro.workload.synthetic import SyntheticWorkloadGenerator


@dataclass
class MicrobenchResult:
    """Serial prediction-latency measurements for one configuration."""

    model: str
    catalog_size: int
    instance_type: str
    execution_requested: str
    execution_effective: str
    jit_failed: bool
    num_requests: int
    mean_ms: float
    p50_ms: float
    p90_ms: float
    p99_ms: float


def serial_microbenchmark(
    model_name: str,
    catalog_size: int,
    instance: InstanceType,
    execution: str = "jit",
    num_requests: int = 300,
    seed: int = 1234,
    registry: Optional[AssetRegistry] = None,
) -> MicrobenchResult:
    """Measure serial prediction latency for one model/device/mode."""
    registry = registry or GLOBAL_REGISTRY
    assets = registry.assets(
        model_name, catalog_size, instance.device, execution
    )
    simulator = Simulator()
    streams = RandomStreams(seed)
    server = EtudeInferenceServer(
        simulator=simulator,
        device=instance.device,
        service_profile=assets.profile,
        rng=streams.stream("server"),
        batching=BatchingConfig(max_batch_size=1, max_delay_s=0.0),
        name=f"micro-{model_name}",
    )
    workload = SyntheticWorkloadGenerator(
        WorkloadStatistics.bol_like(catalog_size), seed=seed
    )
    sessions = workload.iter_sessions()

    latencies: List[float] = []

    def client():
        for index in range(num_requests):
            request = RecommendationRequest(
                request_id=index,
                session_id=index,
                session_items=np.asarray(next(sessions), dtype=np.int64),
                sent_at=simulator.now,
            )
            done = Signal(f"micro-{index}")
            server.submit(request, lambda resp, s=done: s.fire(resp))
            response = yield done
            latencies.append(response.inference_s)

    simulator.spawn(client())
    try:
        simulator.run()
    finally:
        simulator.close()

    scaled = [latency * 1000.0 for latency in latencies]
    return MicrobenchResult(
        model=model_name,
        catalog_size=catalog_size,
        instance_type=instance.name,
        execution_requested=execution,
        execution_effective=assets.execution_effective,
        jit_failed=assets.jit_failed,
        num_requests=num_requests,
        mean_ms=float(np.mean(scaled)),
        p50_ms=exact_percentile(scaled, 50),
        p90_ms=exact_percentile(scaled, 90),
        p99_ms=exact_percentile(scaled, 99),
    )
