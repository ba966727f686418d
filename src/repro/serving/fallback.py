"""The graceful-degradation tier: cheap answers when the primary path can't.

Production recommenders preserve availability under overload by degrading
*quality* instead of latency: when the personalized path would miss its
deadline (or is shedding load), a precomputed popularity top-k answers
within a fixed small budget. The Facebook personalized-recommendation
serving work calls this the fallback tier; the response is a valid
recommendation list, just not a session-aware one.

:class:`PopularityFallback` reuses the ``recommend()`` surface of
:class:`~repro.models.noop.NoopModel` (and every
:class:`~repro.models.base.SessionRecModel`): it returns a precomputed
item array and performs no kernel work. The synthetic workload's item
popularity is a bounded power law ``P(id) ∝ id**-alpha`` over ids starting
at 1, so the most popular items are simply the smallest ids — the default
answer is ``[1, …, top_k]``. Deployments with a real popularity ranking
can pass their own ``item_ids``.

Responses served by this tier carry ``degraded=True`` so metrics separate
full-quality from degraded traffic. The budget is a fixed constant (a
cache lookup, no jitter, no random draws), keeping runs with the tier
*configured but never triggered* bit-identical to runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grammar import format_options, parse_options

#: spec key -> (field, cast) for :meth:`FallbackConfig.parse`.
_KEYS = {"budget": ("budget_s", float), "topk": ("top_k", int)}


@dataclass(frozen=True)
class FallbackConfig:
    """Declarative knobs for the degradation tier."""

    #: Fixed service budget of a degraded answer (precomputed lookup +
    #: response serialization). No jitter: the tier must be predictable.
    budget_s: float = 2.0e-3
    #: Length of the precomputed popularity list.
    top_k: int = 21

    def __post_init__(self):
        if self.budget_s <= 0:
            raise ValueError("budget_s must be positive")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "FallbackConfig":
        """Build a config from a compact CLI spec.

        ``"budget=0.002,topk=21"`` — every key optional, empty string =
        all defaults (bare ``--fallback`` enables the tier as-is).
        """
        return cls(**parse_options(text, "fallback", _KEYS))

    def spec_string(self) -> str:
        """The compact form :meth:`parse` accepts (for spec files)."""
        return format_options(self, _KEYS)


class PopularityFallback:
    """Precomputed popularity top-k with the ``SessionRecModel`` surface."""

    name = "popularity-fallback"

    def __init__(self, top_k: int, item_ids=None):
        if item_ids is None:
            # Power-law catalog: ids are popularity-ranked from 1.
            items = np.arange(1, top_k + 1, dtype=np.int64)
        else:
            items = np.asarray(item_ids, dtype=np.int64)[:top_k]
        self._items = items
        self.top_k = int(items.shape[0])

    def recommend(self, session_items) -> np.ndarray:
        return self._items

    @classmethod
    def from_config(cls, config: FallbackConfig) -> "PopularityFallback":
        return cls(config.top_k)


__all__ = ["FallbackConfig", "PopularityFallback"]
