"""Roofline latency model: op traces -> batch-size-dependent service time.

The discrete-event serving simulation needs fast service-time lookups, so a
:class:`CostTrace` is folded once into a :class:`ServiceTimeProfile` with a
fixed (per-batch) component and a per-item component:

``t(B) = fixed_s + B * per_item_s``

For GPUs the fixed part contains kernel launches (one launch stream per
batch, not per request — that is what batching buys) and the batch-amortized
parameter streaming, i.e. the full-catalog embedding scan. The per-item part
contains per-request flops, activation traffic (score materialization,
top-k), host-op PCIe round trips and framework glue.

For CPUs there is no batching; ``t(1)`` is the single-inference latency, and
the device's ``shared_bandwidth`` limits how many concurrent workers can
stream the catalog at once (modelled by the serving layer from
``ServiceTimeProfile.bytes_per_item``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.hardware.device import GPU_RESERVE_BYTES, DeviceModel
from repro.tensor.ops import CostRecord, CostTrace

#: A lognormal jitter source: ``draw(sigma)`` -> one draw with mean 0.0.
JitterDraw = Callable[[float], float]


@dataclass(frozen=True)
class NetworkHop:
    """One intra-cluster network traversal (pod → service → pod).

    Defaults match the ClusterIP hop the cluster layer charges
    (``repro.cluster.service``): a quarter-millisecond base with lognormal
    jitter. Consumers that need a round trip (e.g. a remote cache lookup)
    sample once per direction.
    """

    base_s: float = 2.5e-4
    jitter_sigma: float = 0.3
    #: Deterministic per-direction surcharge when the traversal crosses a
    #: failure domain: public inter-zone RTTs sit around a millisecond
    #: against the sub-millisecond intra-zone hop, so a cross-zone leg
    #: pays ~0.75 ms extra each way on the default quarter-ms base.
    cross_zone_extra_s: float = 7.5e-4

    def __post_init__(self):
        if self.base_s <= 0:
            raise ValueError("base_s must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        if self.cross_zone_extra_s < 0:
            raise ValueError("cross_zone_extra_s must be >= 0")

    def sample(self, draw: JitterDraw, cross_zone: bool = False) -> float:
        """One-way traversal time with lognormal jitter.

        ``draw(sigma)`` is the caller's jitter source, one lognormal draw
        with ``mean=0.0`` per call: the bound ``draw`` of a
        :class:`~repro.simulation.random_streams.LognormalJitter` over the
        caller's own stream. ``cross_zone=True`` adds the fixed inter-zone
        surcharge on top of the jittered intra-zone base; the default path
        is byte-identical to a hop that knows nothing about zones (same
        single draw, no arithmetic on the result).
        """
        delay = self.base_s * draw(self.jitter_sigma)
        if cross_zone:
            delay += self.cross_zone_extra_s
        return delay

    def sample_round_trip(
        self, draw: JitterDraw, cross_zone: bool = False
    ) -> float:
        """Request + response traversal (two independent draws)."""
        return self.sample(draw, cross_zone) + self.sample(draw, cross_zone)


@dataclass(frozen=True)
class ShardMergeCost:
    """Aggregator-side cost of merging per-shard top-k candidates.

    The scatter-gather tier collects ``S * k`` (id, score) pairs and
    selects the global top-k — a k-way heap merge, ``O(S·k·log S)``
    comparisons plus fixed response-assembly overhead. This is charged
    on the aggregator *after* the slowest shard leg lands, so it adds
    directly to the fan-out tail.
    """

    base_s: float = 5.0e-5
    per_candidate_s: float = 2.0e-8

    def __post_init__(self):
        if self.base_s < 0 or self.per_candidate_s < 0:
            raise ValueError("merge cost components must be >= 0")

    def cost_s(self, shards: int, k: int) -> float:
        """Merge time for ``shards`` candidate lists of ``k`` entries."""
        shards = max(int(shards), 1)
        candidates = shards * max(int(k), 1)
        comparisons = candidates * math.log2(max(shards, 2))
        return self.base_s + comparisons * self.per_candidate_s


@dataclass(frozen=True)
class ServiceTimeProfile:
    """Folded cost of one model forward on one device."""

    device_name: str
    fixed_s: float
    per_item_s: float
    bytes_per_item: float
    resident_bytes: float
    host_ops: int

    def latency(self, batch_size: int = 1) -> float:
        """Service time of one batch of ``batch_size`` requests."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return self.fixed_s + batch_size * self.per_item_s

    def max_stable_throughput(self, max_batch: int = 1024) -> float:
        """Upper bound on sustainable requests/second for one replica.

        On a batching device the closed-loop batch grows with load; the
        asymptotic limit is ``B / t(B)`` as B reaches ``max_batch``.
        """
        batch = max(1, max_batch)
        return batch / self.latency(batch)


class LatencyModel:
    """Folds cost traces into service-time profiles for one device."""

    def __init__(self, device: DeviceModel):
        self.device = device

    # -- per-record decomposition -------------------------------------------

    def _record_fixed_s(self, record: CostRecord) -> float:
        """Per-batch cost of a record: launches + parameter streaming."""
        device = self.device
        fixed = record.launches * device.launch_overhead_s
        scale = record.catalog_scale
        fixed += (record.param_bytes * scale) / device.weight_bandwidth
        return fixed

    def _record_item_s(self, record: CostRecord) -> float:
        """Per-request cost of a record: flops vs activation traffic."""
        device = self.device
        scale = record.catalog_scale
        compute_s = (record.flops * scale) / device.flops_per_s
        activation_bytes = (record.read_bytes + record.write_bytes) * scale
        memory_s = activation_bytes / device.activation_bandwidth
        item = max(compute_s, memory_s)
        if record.host_op and device.is_accelerator:
            item += device.host_sync_overhead_s
            item += (record.transfer_bytes * scale) / device.pcie_bandwidth
        return item

    # -- public API --------------------------------------------------------------

    def profile(self, trace: CostTrace, resident_bytes: float = 0.0) -> ServiceTimeProfile:
        """Fold a single-request trace into a service-time profile.

        ``resident_bytes`` is the deployed model's parameter footprint, used
        for device-memory feasibility checks by the cluster layer.
        """
        fixed = 0.0
        per_item = self.device.per_request_overhead_s
        bytes_per_item = 0.0
        for record in trace:
            scale = record.catalog_scale
            if self.device.is_accelerator:
                if record.batch_invariant:
                    # Shared by every request in a batch (e.g. CORE's
                    # per-predict normalization of the item table): charge
                    # launches + the full traffic once per batch.
                    fixed += record.launches * self.device.launch_overhead_s
                    invariant_bytes = (
                        record.param_bytes + record.read_bytes + record.write_bytes
                    ) * scale
                    fixed += max(
                        (record.flops * scale) / self.device.flops_per_s,
                        invariant_bytes / self.device.weight_bandwidth,
                    )
                else:
                    fixed += self._record_fixed_s(record)
                    per_item += self._record_item_s(record)
            else:
                # No batching on CPU: everything is per-request, including
                # parameter streaming (each inference re-reads the catalog).
                per_item += record.launches * self.device.launch_overhead_s
                compute_s = (record.flops * scale) / self.device.flops_per_s
                all_bytes = (
                    record.param_bytes + record.read_bytes + record.write_bytes
                ) * scale
                memory_s = all_bytes / self.device.weight_bandwidth
                per_item += max(compute_s, memory_s)
            bytes_per_item += (
                record.param_bytes + record.read_bytes + record.write_bytes
            ) * scale
        return ServiceTimeProfile(
            device_name=self.device.name,
            fixed_s=fixed,
            per_item_s=per_item,
            bytes_per_item=bytes_per_item,
            resident_bytes=resident_bytes,
            host_ops=sum(1 for r in trace if r.host_op),
        )

    def fits_in_memory(self, resident_bytes: float, max_batch: int, score_bytes_per_item: float) -> bool:
        """Device-memory feasibility: parameters + batched score buffers +
        a fixed runtime reserve must fit in device memory."""
        return (
            resident_bytes + max_batch * score_bytes_per_item + GPU_RESERVE_BYTES
            <= self.device.memory_bytes
        )
