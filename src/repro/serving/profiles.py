"""Serving-stack overhead profiles.

These constants characterize the two serving stacks independent of any
model, the quantity Figure 2 isolates with its no-inference test:

- the Actix/Rust server answers static content with a p90 around one
  millisecond at 1,000 req/s on a 2-vCPU machine and throws no errors;
- TorchServe's Java-frontend + Python-worker pipeline costs milliseconds
  per request even for an empty model, saturates well below 1,000 req/s on
  the same machine, and sheds load through its internal 100 ms queue
  timeout as HTTP errors.

Calibration here reproduces those Figure 2 observations; values are in the
range of published TorchServe overhead measurements (per-request handler
and IPC costs in the low milliseconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ann.config import RetrievalConfig
from repro.cache.tier import CacheConfig
from repro.serving.admission import AdmissionPolicy
from repro.serving.fallback import FallbackConfig


@dataclass(frozen=True)
class ActixProfile:
    """Overheads of the paper's Actix-based Rust inference server."""

    #: HTTP handling + routing per request (non-blocking event loop).
    request_overhead_s: float = 3.0e-4
    #: Lognormal sigma for the overhead jitter.
    jitter_sigma: float = 0.35
    #: Pending requests the server will hold before shedding load.
    max_queue_depth: int = 20_000
    #: Deadline-aware admission control (None = the paper's behaviour:
    #: queue without limit, never shed viable work).
    admission: Optional[AdmissionPolicy] = None
    #: Graceful-degradation tier (None = shed as 503, the paper's
    #: behaviour; configured = sheds answer as fast degraded 200s).
    fallback: Optional[FallbackConfig] = None
    #: Session-prefix result cache + request coalescing (None, or a
    #: zero-capacity config = the paper's behaviour: every request runs
    #: the model; see docs/caching.md).
    cache: Optional[CacheConfig] = None
    #: ANN retrieval descriptor (None or disabled = the paper's exact
    #: catalog scan; an enabled config makes the server emit
    #: ``retrieval_probe`` spans and ``ann_*`` counters for the IVF probe
    #: its service profile already prices; see docs/retrieval.md).
    retrieval: Optional[RetrievalConfig] = None

    def __post_init__(self):
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")


@dataclass(frozen=True)
class TorchServeProfile:
    """Overheads of the TorchServe frontend/worker pipeline."""

    #: Java frontend: HTTP handling, routing, IPC serialization.
    frontend_overhead_s: float = 1.2e-3
    #: Python worker: handler invocation, (de)serialization — even for a
    #: model that does nothing.
    worker_overhead_s: float = 4.5e-3
    #: Worker processes (TorchServe default: one per vCPU).
    workers_per_vcpu: float = 1.0
    #: Internal queue timeout after which requests fail (the 100 ms the
    #: paper observes).
    queue_timeout_s: float = 0.100
    #: Frontend job-queue capacity.
    max_queue_depth: int = 1_000
    #: Lognormal sigma for overhead jitter (Python GC, IPC contention).
    jitter_sigma: float = 0.45

    def __post_init__(self):
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
