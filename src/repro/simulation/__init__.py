"""Deterministic discrete-event simulation substrate.

The paper measures wall-clock behaviour of a served model under load on a
real cluster; this package provides the virtual-time equivalent: a
:class:`~repro.simulation.simulator.Simulator` with an event heap and
generator-based processes. The load generator (Algorithm 2), the inference
servers, the batching buffer, and the Kubernetes service all run as
processes on one simulator, which makes every experiment exactly
reproducible and independent of the host machine's speed.

Process model:

- ``simulator.spawn(generator)`` starts a process;
- ``yield <float>`` sleeps for that many (virtual) seconds;
- ``yield signal`` suspends until the :class:`~repro.simulation.events.Signal`
  is fired;
- ``yield At(t)`` resumes at the absolute instant ``t``;
- ``yield PARK`` suspends with nothing scheduled, until the callable
  ``spawn`` returned resumes the process in place.
"""

from repro.simulation.events import Signal
from repro.simulation.simulator import PARK, At, Simulator
from repro.simulation.random_streams import LognormalJitter, RandomStreams

__all__ = ["Simulator", "At", "PARK", "Signal", "RandomStreams", "LognormalJitter"]
