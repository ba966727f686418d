"""Fitting the two marginal statistics Algorithm 1 consumes.

ETUDE users estimate two exponents once from a real click log and reuse
them for all later experiments:

- ``alpha_l`` — power-law exponent of the session-length distribution,
- ``alpha_c`` — power-law exponent of the item click-count distribution.

Fitting uses the exact maximum-likelihood estimator for the *bounded
discrete* power law (the distribution Algorithm 1 actually samples from):
the exponent maximizing ``-alpha * sum(ln x_i) - n * ln Z(alpha)`` with
``Z(alpha) = sum_{x_min..x_max} x ** -alpha``, found by scalar optimization.
The popular continuous approximation (Clauset et al. 2009, Eq. 3.7) is
badly biased for ``x_min = 1``, which is exactly the session-length regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.workload.clicklog import ClickLog


def fit_power_law_exponent(
    samples: np.ndarray, x_min: int = 1, x_max: Optional[int] = None
) -> float:
    """Exact MLE of a bounded discrete power-law exponent.

    ``samples`` are positive integers; the fit uses the tail ``>= x_min``
    with support up to ``x_max`` (default: the sample maximum).
    """
    # Imported here: scipy is most of the package's import time, and a
    # load test or planner sweep never fits an exponent.
    from scipy.optimize import minimize_scalar

    samples = np.asarray(samples, dtype=np.float64)
    tail = samples[samples >= x_min]
    if tail.size == 0:
        raise ValueError(f"no samples >= x_min={x_min}")
    if np.all(tail == x_min):
        raise ValueError("degenerate samples: all equal to x_min")
    upper = int(x_max if x_max is not None else tail.max())
    support = np.arange(x_min, upper + 1, dtype=np.float64)
    log_support = np.log(support)
    sum_log = float(np.log(tail).sum())
    n = tail.size

    def negative_log_likelihood(alpha: float) -> float:
        z = np.exp(-alpha * log_support).sum()
        return alpha * sum_log + n * np.log(z)

    result = minimize_scalar(
        negative_log_likelihood, bounds=(1.01, 6.0), method="bounded"
    )
    return float(result.x)


@dataclass(frozen=True)
class WorkloadStatistics:
    """The declarative workload description an ETUDE user provides."""

    catalog_size: int
    alpha_length: float
    alpha_clicks: float
    max_session_length: int = 80

    def __post_init__(self):
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be positive")
        if self.alpha_length <= 1.0 or self.alpha_clicks <= 1.0:
            raise ValueError("power-law exponents must exceed 1 for a finite mean")

    @classmethod
    def from_clicklog(
        cls, log: ClickLog, catalog_size: int, max_session_length: int = 80
    ) -> "WorkloadStatistics":
        """Estimate both exponents from an empirical click log.

        This is the one-time estimation step of the paper: run it against
        the production log, then discard the log and keep the statistics.
        """
        lengths = log.session_lengths()
        counts = log.click_counts(catalog_size)
        clicked = counts[counts >= 1]
        return cls(
            catalog_size=catalog_size,
            alpha_length=fit_power_law_exponent(lengths, x_min=1),
            alpha_clicks=fit_power_law_exponent(clicked, x_min=1),
            max_session_length=max_session_length,
        )

    #: Marginals of the bol.com-like surrogate log, precomputed so
    #: benchmarks do not have to regenerate the big "real" log every run.
    @classmethod
    def bol_like(cls, catalog_size: int) -> "WorkloadStatistics":
        return cls(
            catalog_size=catalog_size,
            alpha_length=1.85,
            alpha_clicks=1.35,
            max_session_length=80,
        )
