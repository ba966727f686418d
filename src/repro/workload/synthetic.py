"""Algorithm 1 — synthetic workload generation from marginal statistics.

For a catalog of C items and a target of N clicks:

1. draw C click counts from a power law with exponent ``alpha_c`` (once),
2. per session, draw a length from a power law with exponent ``alpha_l``,
3. draw each clicked item id by inverse-transform sampling from the
   empirical CDF of the C click counts.

Everything is vectorized; the generator sustains well over one million
clicks per second on a single core for a ten-million-item catalog (the
paper's Section II performance claim — ``benchmarks/bench_workload_gen.py``
measures it).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.workload.clicklog import ClickLog
from repro.workload.powerlaw import BoundedPowerLaw, EmpiricalCDF
from repro.workload.statistics import WorkloadStatistics


class SyntheticWorkloadGenerator:
    """Reusable Algorithm 1 generator bound to one workload description."""

    #: Upper bound for sampled per-item click counts (line 7 of Alg. 1).
    MAX_CLICK_COUNT = 100_000

    def __init__(self, statistics: WorkloadStatistics, seed: int = 13):
        rng = np.random.default_rng(seed)
        # Line 7: C click counts sampled up front, reused for every session
        # (built directly from the class histogram — see EmpiricalCDF).
        counts_dist = BoundedPowerLaw(
            statistics.alpha_clicks, x_min=1, x_max=self.MAX_CLICK_COUNT
        )
        item_cdf = EmpiricalCDF.from_power_law(
            counts_dist, statistics.catalog_size, rng
        )
        self._bind(statistics, item_cdf, rng)

    @classmethod
    def resumed(
        cls, statistics: WorkloadStatistics, item_cdf: EmpiricalCDF, state: dict
    ) -> "SyntheticWorkloadGenerator":
        """A generator over a prebuilt (read-only) item CDF whose draws start
        from ``state``, a ``bit_generator.state``.

        Given the CDF ``SyntheticWorkloadGenerator(statistics, seed)``
        built and its generator's state right after that build, the result
        draws exactly what that generator would have drawn.
        """
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state
        generator = cls.__new__(cls)
        generator._bind(statistics, item_cdf, rng)
        return generator

    def _bind(
        self,
        statistics: WorkloadStatistics,
        item_cdf: EmpiricalCDF,
        rng: np.random.Generator,
    ) -> None:
        self.statistics = statistics
        self._rng = rng
        self._length_dist = BoundedPowerLaw(
            statistics.alpha_length, x_min=1, x_max=statistics.max_session_length
        )
        self._item_cdf = item_cdf

    def sample_session_lengths(self, num_sessions: int) -> np.ndarray:
        return self._length_dist.sample(num_sessions, self._rng)

    def sample_items(self, num_items: int) -> np.ndarray:
        return self._item_cdf.sample(num_items, self._rng)

    def generate_clicks(self, num_clicks: int) -> ClickLog:
        """Generate at least ``num_clicks`` clicks (whole sessions)."""
        if num_clicks < 1:
            raise ValueError(f"num_clicks must be >= 1, got {num_clicks}")
        mean_length = self._length_dist.mean()
        lengths_chunks: List[np.ndarray] = []
        total = 0
        while total < num_clicks:
            remaining = num_clicks - total
            estimate = max(int(remaining / mean_length * 1.1) + 16, 16)
            chunk = self.sample_session_lengths(estimate)
            lengths_chunks.append(chunk)
            total += int(chunk.sum())
        lengths = np.concatenate(lengths_chunks)
        # Keep whole sessions up to the first prefix reaching num_clicks.
        cumulative = np.cumsum(lengths)
        cutoff = int(np.searchsorted(cumulative, num_clicks, side="left")) + 1
        lengths = lengths[:cutoff]
        total = int(lengths.sum())

        items = self.sample_items(total)
        session_ids = np.repeat(
            np.arange(lengths.shape[0], dtype=np.int64), lengths
        )
        return ClickLog(
            session_ids=session_ids,
            item_ids=items,
            steps=np.arange(total, dtype=np.int64),
        )

    def iter_sessions(self) -> Iterator[np.ndarray]:
        """Endless stream of synthetic sessions (for online load tests)."""
        batch = 4096
        while True:
            lengths = self.sample_session_lengths(batch)
            items = self.sample_items(int(lengths.sum()))
            offset = 0
            for length in lengths:
                yield items[offset : offset + int(length)]
                offset += int(length)


def generate_synthetic_sessions(
    catalog_size: int,
    num_clicks: int,
    alpha_length: float,
    alpha_clicks: float,
    seed: int = 13,
    max_session_length: int = 80,
) -> ClickLog:
    """The paper's ``GENERATE_SYNTHETIC_SESSIONS(C, N, alpha_l, alpha_c)``."""
    statistics = WorkloadStatistics(
        catalog_size=catalog_size,
        alpha_length=alpha_length,
        alpha_clicks=alpha_clicks,
        max_session_length=max_session_length,
    )
    return SyntheticWorkloadGenerator(statistics, seed=seed).generate_clicks(num_clicks)
