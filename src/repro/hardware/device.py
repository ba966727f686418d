"""Roofline device models for CPUs and accelerators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Memory the serving runtime keeps for itself: out of device memory on
#: an accelerator, out of host RAM on a CPU instance. Every fit check
#: (single-model and co-located fleets) leaves this much free.
GPU_RESERVE_BYTES = 2e9
CPU_RESERVE_BYTES = 4e9


@dataclass(frozen=True)
class DeviceModel:
    """An execution device described by roofline parameters.

    Attributes
    ----------
    name:
        Human-readable identifier ("cpu-e2", "gpu-t4", ...).
    kind:
        ``"cpu"`` or ``"gpu"``.
    flops_per_s:
        Sustained arithmetic rate for fp32 inference kernels.
    weight_bandwidth:
        Bytes/second for streaming *parameters* (the batch-amortized
        full-catalog embedding scan — dense, prefetch-friendly GEMM traffic).
    activation_bandwidth:
        Bytes/second for *per-request activation* traffic (score writes,
        top-k selection passes — latency-bound, much less efficient than
        streaming GEMMs on accelerators).
    launch_overhead_s:
        Cost of one kernel launch / eager op dispatch. JIT optimization
        reduces the number of launches; this constant prices each of them.
    per_request_overhead_s:
        Fixed per-request cost on the device path (input staging, output
        copy-back, framework glue).
    pcie_bandwidth:
        Host link bytes/second (``None`` for CPUs — host ops are free of
        transfer there).
    host_sync_overhead_s:
        Pipeline stall charged per host op on accelerators (the SR-GNN /
        GC-SAN numpy-in-forward penalty).
    memory_bytes:
        Device memory capacity; deployments whose resident footprint exceeds
        it are infeasible.
    concurrent_workers:
        Number of inferences the device serves concurrently (CPU worker
        threads; 1 for GPUs, which batch instead).
    shared_bandwidth:
        Aggregate memory bandwidth shared by concurrent workers (CPU socket
        bandwidth). ``None`` means no shared-bandwidth ceiling.
    """

    name: str
    kind: str
    flops_per_s: float
    weight_bandwidth: float
    activation_bandwidth: float
    launch_overhead_s: float
    per_request_overhead_s: float
    pcie_bandwidth: Optional[float] = None
    host_sync_overhead_s: float = 0.0
    memory_bytes: float = 32e9
    concurrent_workers: int = 1
    shared_bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("cpu", "gpu"):
            raise ValueError(f"unknown device kind: {self.kind}")
        if self.kind == "gpu" and self.pcie_bandwidth is None:
            raise ValueError("GPU devices need a pcie_bandwidth")

    @property
    def is_accelerator(self) -> bool:
        return self.kind == "gpu"

    def supports_batching(self) -> bool:
        """Request batching only pays off on accelerators (paper Sec. II)."""
        return self.is_accelerator
