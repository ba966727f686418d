"""Bounded discrete power-law distributions with inverse-transform sampling.

A bounded discrete power law over ``{x_min, ..., x_max}`` assigns
``P(x) ∝ x ** -alpha``. Sampling uses inverse transform over the explicit
CDF (``np.searchsorted``), which vectorizes to millions of draws per second
— the property Algorithm 1 relies on for online workload generation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class BoundedPowerLaw:
    """Discrete power law ``P(x) ∝ x**-alpha`` on ``[x_min, x_max]``."""

    def __init__(self, alpha: float, x_min: int = 1, x_max: int = 1000):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if x_min < 1 or x_max < x_min:
            raise ValueError("need 1 <= x_min <= x_max")
        self.alpha = float(alpha)
        self.x_min = int(x_min)
        self.x_max = int(x_max)
        support = np.arange(self.x_min, self.x_max + 1, dtype=np.float64)
        weights = support**-self.alpha
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        self._cdf[-1] = 1.0  # guard against round-off at the tail

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_max + 1, dtype=np.int64)

    def pmf(self) -> np.ndarray:
        """Probability mass over the support (ascending x)."""
        return self._pmf.copy()

    def mean(self) -> float:
        return float(np.dot(self.support, self._pmf))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-transform sample ``size`` values (vectorized)."""
        uniform = rng.random(size)
        index = np.searchsorted(self._cdf, uniform, side="right")
        return index.astype(np.int64) + self.x_min


class EmpiricalCDF:
    """Sampling item ids proportionally to empirical click counts.

    Algorithm 1 line 7 draws C click counts from a power law once, then
    (line 14) samples item ids from the *empirical CDF of those counts*.

    A direct inverse transform over a C-entry CDF costs an O(log C) binary
    search with poor cache behaviour per draw. Instead we sample in two
    exact stages: (1) pick a *count class* (items sharing the same click
    count are interchangeable) from a small CDF over the distinct count
    values, weighted by ``value * class_size``; (2) pick a uniform member of
    that class. Setup is vectorized O(C log C); each draw is O(log K) for K
    distinct counts (a few hundred under a power law) plus one array
    access — comfortably above a million clicks per second for C = 1e7.
    """

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if counts.sum() <= 0:
            raise ValueError("counts must not be all zero")
        self._size = counts.shape[0]
        values, inverse, class_sizes = np.unique(
            counts, return_inverse=True, return_counts=True
        )
        # Items grouped by class, so class members are contiguous.
        self._item_pool = np.argsort(inverse, kind="stable").astype(
            np.int64, copy=False
        )
        self._class_offsets = np.concatenate(
            [[0], np.cumsum(class_sizes)]
        ).astype(np.int64)
        self._class_sizes = class_sizes.astype(np.int64)
        class_weights = values * class_sizes
        if values[0] == 0.0:
            class_weights[0] = 0.0  # items with zero clicks are never drawn
        cdf = np.cumsum(class_weights)
        self._class_cdf = cdf / cdf[-1]
        self._class_cdf[-1] = 1.0
        self._freeze()

    def _freeze(self) -> None:
        """Make the built tables read-only: runs that share one pool (the
        registry's workload memo) must never see another's writes."""
        for table in (
            self._item_pool,
            self._class_offsets,
            self._class_sizes,
            self._class_cdf,
        ):
            table.flags.writeable = False

    def __len__(self) -> int:
        return self._size

    @classmethod
    def from_power_law(
        cls,
        distribution: BoundedPowerLaw,
        num_items: int,
        rng: np.random.Generator,
    ) -> "EmpiricalCDF":
        """Equivalent of sampling ``num_items`` iid counts from the power
        law and building the empirical CDF — but constructed directly from
        one multinomial draw of the class histogram, skipping the O(C)
        materialization of individual counts (items with equal counts are
        exchangeable). This keeps setup fast even for C = 2e7.
        """
        class_sizes = rng.multinomial(num_items, distribution.pmf())
        nonzero = class_sizes > 0
        values = distribution.support[nonzero].astype(np.float64)
        sizes = class_sizes[nonzero].astype(np.int64)

        instance = cls.__new__(cls)
        instance._size = num_items
        # Already int64: the astype is a guard, not a C-sized copy.
        instance._item_pool = rng.permutation(num_items).astype(
            np.int64, copy=False
        )
        instance._class_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(
            np.int64
        )
        instance._class_sizes = sizes
        weights = values * sizes
        cdf = np.cumsum(weights)
        instance._class_cdf = cdf / cdf[-1]
        instance._class_cdf[-1] = 1.0
        instance._freeze()
        return instance

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` item ids (vectorized two-stage inverse transform)."""
        classes = np.searchsorted(self._class_cdf, rng.random(size), side="right")
        within = (rng.random(size) * self._class_sizes[classes]).astype(np.int64)
        return self._item_pool[self._class_offsets[classes] + within]
