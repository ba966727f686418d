"""GPU request batching, after the ``batched-fn`` plugin the paper uses.

Semantics (matching the Rust plugin): requests accumulate in a buffer; a
batch is submitted to the device executor when the buffer reaches
``max_batch_size`` or the oldest buffered request has lingered for
``max_delay_s`` (the paper: "request batching for GPUs for up to 1,024
requests, and empty the underlying buffer every two milliseconds"). While
the executor is busy, arrivals keep accumulating, so under load the batch
size grows to whatever arrived during the previous execution — the
closed-loop behaviour that makes GPU throughput scale with load.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BatchingConfig:
    """Batching buffer parameters (paper defaults)."""

    max_batch_size: int = 1024
    max_delay_s: float = 0.002

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
