"""A Prometheus-style metric registry for simulation actors.

Three instrument kinds, mirroring the Prometheus data model:

- :class:`Counter` — monotonically increasing totals (requests sent,
  batches flushed, scale-up events);
- :class:`Gauge` — point-in-time values that go up and down (queue depth,
  active workers, pending in-flight requests);
- :class:`Histogram` — value distributions (batch sizes, stage latencies).
  Built on :class:`~repro.metrics.percentile.LatencyDigest`, so its
  percentile queries agree bin-for-bin with the rest of the metrics stack.

A counter or a gauge is *manual* (``inc``/``set``) or *callback-backed*:
passing ``fn=`` makes reads evaluate the callable, so an actor exposes a
tally or a state it already keeps and its hot path does no bookkeeping.

Instruments are identified by ``name`` plus optional key=value labels and
are get-or-create: registering the same (name, labels) twice returns the
existing instrument; re-registering under a different kind, or mixing
manual and callback-backed under one key, raises. A callback registered
again under a counter's key adds to it (two servers of one name count as
one), under a gauge's key it replaces the old one (the gauge reads the
newest actor). The fully qualified key renders Prometheus-style:
``name{label="value"}``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.percentile import LatencyDigest


def metric_key(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """Canonical instrument key: ``name{k="v",...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Instrument:
    """Common identity and value for all instrument kinds."""

    kind = "instrument"

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[[], float]] = None,
        help: str = "",
        unit: str = "",
        labels: Optional[Dict[str, str]] = None,
    ):
        self.name = name
        self.help = help
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self._fn = fn
        self._value = 0.0

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)

    def rebind(self, fn: Callable[[], float]) -> None:
        """A newer actor registered ``fn`` under this key: read it."""
        self._fn = fn

    def read(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    @property
    def value(self) -> float:
        return self.read()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.key!r})"


class Counter(Instrument):
    """A monotonically increasing total; manual or backed by a callback."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise ValueError(f"counter {self.key} is callback-backed; cannot inc()")
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount

    def rebind(self, fn: Callable[[], float]) -> None:
        """Another actor counts under this key: read the sum of both."""
        first = self._fn
        self._fn = lambda: first() + fn()


class Gauge(Instrument):
    """A point-in-time value; settable or backed by a callback."""

    kind = "gauge"

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.key} is callback-backed; cannot set()")
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)


class Histogram(Instrument):
    """A value distribution with constant-memory percentile queries.

    Observations land in the same log-spaced bins as
    :class:`~repro.metrics.percentile.LatencyDigest`, so a histogram and a
    digest fed the same samples answer percentile queries identically.
    """

    kind = "histogram"

    def __init__(self, name: str, **kwargs):
        super().__init__(name, **kwargs)
        self.digest = LatencyDigest()

    def observe(self, value: float) -> None:
        self.digest.record(value)

    @property
    def count(self) -> int:
        return len(self.digest)

    def mean(self) -> float:
        return self.digest.mean()

    def percentile(self, q: float) -> float:
        return self.digest.percentile(q)


class MetricRegistry:
    """Get-or-create instrument registry keyed by (name, labels)."""

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, cls, name: str, kwargs: dict) -> Instrument:
        labels = kwargs.get("labels")
        key = metric_key(name, labels)
        existing = self._instruments.get(key)
        fn = kwargs.get("fn")
        if existing is None:
            existing = self._instruments[key] = cls(name, **kwargs)
        elif not isinstance(existing, cls):
            raise ValueError(f"metric {key!r} already registered as {existing.kind}")
        elif (fn is None) != (existing._fn is None):
            raise ValueError(f"metric {key!r} is either manual or callback-backed")
        elif fn is not None:
            existing.rebind(fn)
        return existing

    def counter(
        self,
        name: str,
        fn: Optional[Callable[[], float]] = None,
        help: str = "",
        unit: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Counter:
        return self._get_or_create(
            Counter, name, dict(fn=fn, help=help, unit=unit, labels=labels)
        )

    def gauge(
        self,
        name: str,
        fn: Optional[Callable[[], float]] = None,
        help: str = "",
        unit: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, dict(fn=fn, help=help, unit=unit, labels=labels)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, dict(help=help, unit=unit, labels=labels)
        )

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str, labels: Optional[Dict[str, str]] = None) -> Optional[Instrument]:
        return self._instruments.get(metric_key(name, labels))

    def gauges(self) -> List[Gauge]:
        return [i for i in self._instruments.values() if isinstance(i, Gauge)]

    def counters(self) -> List[Counter]:
        return [i for i in self._instruments.values() if isinstance(i, Counter)]

    def histograms(self) -> List[Histogram]:
        return [i for i in self._instruments.values() if isinstance(i, Histogram)]

    def snapshot(self) -> Dict[str, float]:
        """Current value of every counter and gauge (histograms excluded)."""
        return {
            instrument.key: instrument.read()
            for instrument in self._instruments.values()
            if not isinstance(instrument, Histogram)
        }
