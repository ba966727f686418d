"""Declarative catalog-sharding configuration.

Partitioning follows the capacity-driven scale-out literature (Lui et
al.; DeepRecSys): the C-item catalog splits into S contiguous slices,
each served by its own replica set, and a scatter-gather tier fans every
request out to all shards and merges the per-shard top-k.

Determinism contract (same as retry/chaos/admission/cache): a config
with ``shards == 1`` reports ``enabled == False`` and the serving stack
builds no aggregator at all — no extra RNG draws, no extra simulator
events, bit-identical to a run with no sharding configured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.grammar import format_options, on_off, parse_options

#: spec key -> (field, cast) for :meth:`ShardingConfig.parse`.
_KEYS = {"shards": ("shards", int), "partial": ("allow_partial", on_off)}


def _shard_count(token: str) -> dict:
    try:
        return {"shards": int(token)}
    except ValueError:
        raise ValueError(f"bad shard count {token!r}; expected an integer") from None


@dataclass(frozen=True)
class ShardingConfig:
    """Declarative knobs for catalog sharding."""

    #: Number of catalog shards (1 = sharding off, the paper's serving).
    shards: int = 1
    #: Whether a fan-out with failed shard legs may still answer 200 with
    #: partial catalog coverage (degraded semantics). ``False``: any
    #: failed leg turns the whole fan-out into a 503.
    allow_partial: bool = True

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    @property
    def enabled(self) -> bool:
        """Whether this config shards at all.

        One shard is the contractual off-switch: the serving layer then
        takes the exact pre-sharding code paths.
        """
        return self.shards > 1

    @classmethod
    def parse(cls, text: str) -> "ShardingConfig":
        """Build a config from a compact CLI spec.

        ``"4"`` or ``"4,partial=off"`` — a bare integer is the shard
        count; ``partial=on/off`` controls partial-result semantics.
        ``"shards=4"`` is accepted too.
        """
        return cls(**parse_options(text, "sharding", _KEYS, _shard_count))

    def spec_string(self) -> str:
        """The compact form :meth:`parse` accepts (for spec files)."""
        return format_options(self, _KEYS, head="shards", skip_defaults=True)


def shard_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` slices partitioning ``total`` items.

    Slices differ in size by at most one item; every item belongs to
    exactly one slice. ``shards`` may exceed ``total`` — trailing shards
    then own empty slices (they never win a merge).
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    base, extra = divmod(total, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def largest_shard_fraction(total: int, shards: int) -> float:
    """Fraction of the catalog owned by the biggest shard.

    The scatter-gather tail is set by the slowest shard, so uniform
    per-shard service profiles use the largest slice (``ceil(C/S)/C``),
    never the average — the latency model must not be optimistic.
    """
    if total < 1:
        return 1.0
    lo, hi = shard_bounds(total, shards)[0]
    return (hi - lo) / total
