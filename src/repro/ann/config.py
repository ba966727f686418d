"""Opt-in retrieval mode configuration (``--retrieval`` / ``retrieval:``).

Mirrors the compact-grammar contract of the other opt-in serving features
(:class:`~repro.sharding.config.ShardingConfig` is the template): a frozen
dataclass that parses from / renders to a short spec string, with
``kind="exact"`` meaning *disabled* so default runs stay bit-identical.

Grammar::

    exact                       # disabled: the exact catalog scan (default)
    ivf                         # IVF-Flat with default parameters
    ivf:nlist=1024,nprobe=32    # explicit index parameters

``nlist`` defaults to ``sqrt(materialized rows)`` at index-build time (the
faiss rule of thumb); ``nprobe`` defaults to 8. Both knobs and their
latency/recall consequences are documented in ``docs/retrieval.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.grammar import format_options, parse_options

_KNOWN_KINDS = ("exact", "ivf")
#: spec key -> (field, cast) of the options after ``ivf:``.
_KEYS = {"nlist": ("nlist", int), "nprobe": ("nprobe", int)}

#: k-means passes charged when estimating index-build time; matches the
#: default ``IVFFlatIndex(kmeans_iterations=12)``.
KMEANS_ITERATIONS = 12

#: Training samples per centroid (the faiss guideline is 39-256 points per
#: centroid; we charge the generous end).
TRAIN_POINTS_PER_CENTROID = 256


@dataclass(frozen=True)
class RetrievalConfig:
    """How the serving tier retrieves top-k items from the catalog.

    ``kind="exact"`` (the default) is the paper's exact maximum-inner-product
    scan and leaves every run bit-identical to a config-less run;
    ``kind="ivf"`` swaps the scoring head for an
    :class:`~repro.ann.ivf.IVFFlatIndex` probe.
    """

    kind: str = "exact"
    nlist: Optional[int] = None
    nprobe: int = 8

    def __post_init__(self) -> None:
        if self.kind not in _KNOWN_KINDS:
            raise ValueError(
                f"unknown retrieval kind {self.kind!r}; "
                f"expected one of {', '.join(_KNOWN_KINDS)}"
            )
        if self.nlist is not None and self.nlist < 1:
            raise ValueError("nlist must be a positive integer")
        if self.nprobe < 1:
            raise ValueError("nprobe must be a positive integer")

    @property
    def enabled(self) -> bool:
        """True when an approximate index is in play (``kind != "exact"``)."""
        return self.kind != "exact"

    @classmethod
    def parse(cls, text: str) -> "RetrievalConfig":
        """Parse the compact ``--retrieval`` grammar.

        ``""`` and ``"ivf"`` mean IVF with defaults; ``"exact"`` (also
        ``"off"`` / ``"none"``) disables; ``"ivf:nlist=1024,nprobe=32"``
        sets index parameters. Unknown kinds or option keys raise
        ``ValueError`` naming the accepted ones.
        """
        text = text.strip()
        if text in ("exact", "off", "none"):
            return cls(kind="exact")
        if text in ("", "ivf"):
            return cls(kind="ivf")
        kind, _, options = text.partition(":")
        if kind != "ivf":
            raise ValueError(
                f"unknown retrieval kind {kind!r}; "
                f"expected one of {', '.join(_KNOWN_KINDS)}"
            )
        return cls(kind="ivf", **parse_options(options, "retrieval", _KEYS))

    def spec_string(self) -> str:
        """The canonical compact form; ``parse`` round-trips it."""
        if not self.enabled:
            return "exact"
        options = format_options(self, _KEYS, skip_defaults=True)
        return "ivf" + (":" + options if options else "")

    def effective_nlist(self, catalog_size: int, materialized_cap: int = 32768) -> int:
        """The centroid count an index built for ``catalog_size`` will use.

        Matches :class:`~repro.ann.ivf.IVFFlatIndex`: an explicit ``nlist``
        is taken as-is (the *logical* list count), otherwise the sqrt
        heuristic over the materialized rows applies.
        """
        if self.nlist is not None:
            return int(self.nlist)
        materialized = min(int(catalog_size), int(materialized_cap))
        return max(int(np.sqrt(materialized)), 1)

    def index_build_seconds(
        self, catalog_size: int, embedding_dim: int, device
    ) -> float:
        """Roofline estimate of IVF build time on ``device``, charged once
        per pod at deploy/restart before the pod turns ready.

        The build is the faiss recipe: k-means over a training sample of
        ``min(C, 256 * nlist)`` rows for :data:`KMEANS_ITERATIONS` passes,
        then one full assignment pass over all ``C`` rows. Each pass is a
        dense ``rows x nlist x d`` distance computation; time is the max of
        the compute and weight-bandwidth roofs, like every other cost in the
        latency model.
        """
        if not self.enabled:
            return 0.0
        nlist = self.effective_nlist(catalog_size)
        d = float(embedding_dim)
        sample = float(min(catalog_size, TRAIN_POINTS_PER_CENTROID * nlist))
        train_flops = KMEANS_ITERATIONS * 2.0 * sample * nlist * d
        assign_flops = 2.0 * float(catalog_size) * nlist * d
        moved_bytes = (KMEANS_ITERATIONS * sample + float(catalog_size)) * d * 4.0
        return max(
            (train_flops + assign_flops) / device.flops_per_s,
            moved_bytes / device.weight_bandwidth,
        )
