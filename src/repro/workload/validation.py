"""Statistical validation of synthetic workloads against a reference log.

Backs the paper's Section III-A validation ("the achieved latencies
resemble each other closely") with distribution-level evidence: if the
*marginals* that drive serving cost match, the latency distributions will
too. Two divergences matter for SBR serving:

- the **session-length** distribution (drives request counts per session
  and the ordering constraints of Algorithm 2) — compared with the
  two-sample Kolmogorov-Smirnov statistic;
- the **item-popularity** curve (drives cache behaviour and, for non-neural
  models, index hit rates) — compared as the L1 distance between the
  normalized popularity-vs-rank curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workload.clicklog import ClickLog


def session_length_ks(log_a: ClickLog, log_b: ClickLog) -> float:
    """Two-sample KS statistic between the session-length distributions."""
    # Imported here: scipy is most of the package's import time, and a
    # load test or planner sweep never validates a workload.
    from scipy import stats

    lengths_a = log_a.session_lengths()
    lengths_b = log_b.session_lengths()
    statistic, _pvalue = stats.ks_2samp(lengths_a, lengths_b)
    return float(statistic)


def popularity_curve(log: ClickLog, catalog_size: int, points: int = 100) -> np.ndarray:
    """Cumulative click share of the top-x% items, sampled at ``points``
    rank fractions (the Lorenz-style curve of catalog popularity)."""
    counts = np.sort(log.click_counts(catalog_size))[::-1].astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("log contains no clicks")
    cumulative = np.cumsum(counts) / total
    ranks = np.linspace(0, catalog_size - 1, points).astype(np.int64)
    return cumulative[ranks]


def popularity_l1(
    log_a: ClickLog, log_b: ClickLog, catalog_size: int, points: int = 100
) -> float:
    """Mean absolute gap between the two popularity curves (0 = identical)."""
    curve_a = popularity_curve(log_a, catalog_size, points)
    curve_b = popularity_curve(log_b, catalog_size, points)
    return float(np.mean(np.abs(curve_a - curve_b)))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one synthetic-vs-reference comparison."""

    session_length_ks: float
    popularity_l1: float
    #: Default acceptance thresholds. KS of 0.1 means the CDFs never
    #: diverge by more than 10 points; an L1 of 0.2 bounds the mean
    #: popularity-share gap.
    ks_threshold: float = 0.15
    l1_threshold: float = 0.25

    @property
    def acceptable(self) -> bool:
        return (
            self.session_length_ks <= self.ks_threshold
            and self.popularity_l1 <= self.l1_threshold
        )

    def summary(self) -> str:
        verdict = "ACCEPT" if self.acceptable else "REJECT"
        return (
            f"session-length KS={self.session_length_ks:.3f} "
            f"(<= {self.ks_threshold}), popularity L1="
            f"{self.popularity_l1:.3f} (<= {self.l1_threshold}): {verdict}"
        )


def validate_synthetic(
    reference: ClickLog, synthetic: ClickLog, catalog_size: int
) -> ValidationReport:
    """Compare a synthetic log against the reference it was fitted from."""
    return ValidationReport(
        session_length_ks=session_length_ks(reference, synthetic),
        popularity_l1=popularity_l1(reference, synthetic, catalog_size),
    )
