"""The telemetry handle instrumented actors share.

One :class:`Telemetry` object bundles the three observability primitives
for a single run:

- ``trace`` — the :class:`~repro.obs.trace.Trace` span recorder, which
  keeps only the stage log unless ``keep_spans=True`` asks for the span
  rows too (needed by ``trace_to_json`` and the row queries);
- ``metrics`` — the :class:`~repro.obs.registry.MetricRegistry`;
- ``sampler`` — the periodic gauge :class:`~repro.obs.sampler.Sampler`
  (created when the telemetry is bound to a simulator).

Actors accept ``telemetry: Optional[Telemetry] = None``. With a handle,
an actor registers its instruments once, at construction; its counters
and most of its gauges are callbacks that read a tally or a state the
actor keeps anyway, so counting an event is the one increment an
untraced run makes too. What the request path does record for the
handle (spans, the batch-size histogram) sits behind ``if
self.telemetry is not None``: when the handle is absent the hot paths
execute exactly the code they did before instrumentation, and no extra
random draws ever happen either way, so a traced run and an untraced
run with the same seed produce identical latencies.

Lifecycle: construct the telemetry up front (e.g. in the CLI), hand it to
:meth:`ExperimentRunner.run`, which calls :meth:`bind` once the run's
simulator exists. ``bind`` points the trace clock at ``simulator.now``
and starts the sampler. One Telemetry instance covers one run.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import MetricRegistry
from repro.obs.sampler import Sampler
from repro.obs.trace import Trace
from repro.simulation import Simulator


class Telemetry:
    """Per-run observability bundle: trace + metrics + sampler."""

    def __init__(self, sample_interval_s: float = 1.0, keep_spans: bool = False):
        self.metrics = MetricRegistry()
        self.trace = Trace(clock=self.now, keep_spans=keep_spans)
        self.sampler: Optional[Sampler] = None
        self.sample_interval_s = sample_interval_s
        self._simulator: Optional[Simulator] = None

    def now(self) -> float:
        """Current virtual time (0.0 before :meth:`bind`)."""
        if self._simulator is None:
            return 0.0
        return self._simulator.now

    @property
    def bound(self) -> bool:
        return self._simulator is not None

    def bind(self, simulator: Simulator, start_sampler: bool = True) -> "Telemetry":
        """Attach to a run's simulator; starts the periodic gauge sampler.

        Rebinding (e.g. after ``Infrastructure.reset_simulator``) replaces
        the sampler but keeps previously recorded spans and metrics.
        """
        self._simulator = simulator
        if self.sampler is not None:
            self.sampler.stop()
        self.sampler = Sampler(simulator, self.metrics, self.sample_interval_s)
        if start_sampler:
            self.sampler.start()
        return self

    @classmethod
    def for_simulator(
        cls,
        simulator: Simulator,
        sample_interval_s: float = 1.0,
        keep_spans: bool = False,
    ) -> "Telemetry":
        """Convenience: construct and bind in one step."""
        return cls(sample_interval_s=sample_interval_s, keep_spans=keep_spans).bind(
            simulator
        )
