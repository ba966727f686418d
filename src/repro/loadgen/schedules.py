"""Arrival-rate schedules for the load generator.

Algorithm 2 in the paper uses exactly one schedule — the TIMEPROP linear
ramp — because its goal is finding the throughput threshold where a
deployment stops keeping up. Production traffic is richer; these schedules
let the same load generator replay other industrially relevant patterns:

- :class:`RampSchedule` — the paper's ``TIMEPROP_RAMPUP`` (default);
- :class:`ConstantSchedule` — steady state at a fixed rate;
- :class:`StepSchedule` — piecewise-constant plateaus (SLA staircase);
- :class:`DiurnalSchedule` — a day-night sine profile compressed into the
  benchmark duration (e-Commerce traffic shape);
- :class:`FlashSaleSchedule` — baseline with a sudden multiplicative burst
  (the campaign-launch scenario that breaks unprepared deployments).

Every schedule maps ``(elapsed_s, duration_s) -> requests for this tick``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.loadgen.rampup import timeprop_rampup


def _tick_rate(rate: float) -> int:
    """Whole requests for one tick: positive rates offer at least one
    request (fractional rates must not stall the run), a zero rate offers
    none — a silent phase is silence, not a one-request-per-second trickle.
    """
    return 0 if rate <= 0 else max(1, int(round(rate)))


@dataclass(frozen=True)
class RampSchedule:
    """The paper's TIMEPROP ramp to ``target_rps`` over the duration."""

    target_rps: float

    def rate_at(self, elapsed_s: float, duration_s: float) -> int:
        return timeprop_rampup(self.target_rps, elapsed_s, duration_s)


@dataclass(frozen=True)
class ConstantSchedule:
    """Steady offered load from the first tick."""

    target_rps: float

    def rate_at(self, elapsed_s: float, duration_s: float) -> int:
        return _tick_rate(self.target_rps)


@dataclass(frozen=True)
class StepSchedule:
    """Plateaus: ``steps`` are (fraction_of_duration, rps) break points.

    Example: ``((0.0, 100), (0.5, 400))`` serves 100 req/s for the first
    half and 400 req/s for the second.
    """

    steps: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if not self.steps or self.steps[0][0] != 0.0:
            raise ValueError("steps must start at fraction 0.0")
        fractions = [fraction for fraction, _rps in self.steps]
        if fractions != sorted(fractions):
            raise ValueError("step fractions must be ascending")

    def rate_at(self, elapsed_s: float, duration_s: float) -> int:
        fraction = min(max(elapsed_s / duration_s, 0.0), 1.0)
        current = self.steps[0][1]
        for start, rps in self.steps:
            if fraction >= start:
                current = rps
        return _tick_rate(current)


@dataclass(frozen=True)
class DiurnalSchedule:
    """A compressed day: sinusoid between ``low_rps`` and ``high_rps``.

    ``cycles`` full days fit into the benchmark duration; the peak sits at
    the middle of each cycle.
    """

    low_rps: float
    high_rps: float
    cycles: float = 1.0

    def __post_init__(self):
        if self.low_rps > self.high_rps:
            raise ValueError("low_rps must not exceed high_rps")

    def rate_at(self, elapsed_s: float, duration_s: float) -> int:
        fraction = (elapsed_s / duration_s) * self.cycles % 1.0
        # Sine from trough (midnight) to peak (midday) and back.
        weight = 0.5 - 0.5 * math.cos(2.0 * math.pi * fraction)
        rate = self.low_rps + (self.high_rps - self.low_rps) * weight
        return _tick_rate(rate)


@dataclass(frozen=True)
class FlashSaleSchedule:
    """Baseline traffic with a sudden burst window.

    During ``[burst_start_fraction, burst_end_fraction)`` the offered rate
    multiplies by ``burst_factor`` — the campaign-launch spike.
    """

    baseline_rps: float
    burst_factor: float = 5.0
    burst_start_fraction: float = 0.5
    burst_end_fraction: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.burst_start_fraction < self.burst_end_fraction <= 1.0:
            raise ValueError("need 0 <= start < end <= 1 for the burst window")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")

    def rate_at(self, elapsed_s: float, duration_s: float) -> int:
        fraction = min(max(elapsed_s / duration_s, 0.0), 1.0)
        rate = self.baseline_rps
        if self.burst_start_fraction <= fraction < self.burst_end_fraction:
            rate *= self.burst_factor
        return _tick_rate(rate)
