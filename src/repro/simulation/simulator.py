"""The discrete-event simulator core.

A tiny, fast simpy-like engine: a heap of timestamped callbacks plus
generator-based processes. Determinism: ties on the heap break by insertion
sequence number, and all randomness used by simulation actors flows through
:class:`~repro.simulation.random_streams.RandomStreams`.

Units: ``Simulator.now`` is **virtual time in seconds**, starting at 0.0
when the simulator is created; it advances only when events fire and has no
relation to the wall clock (a ten-minute benchmark simulates in wall-clock
seconds). Every delay yielded by a process, every ``call_in`` offset and
every ``call_at``/``run(until=...)`` deadline is likewise in virtual
seconds. All timestamps elsewhere in the repo (metrics, access logs,
telemetry spans) are readings of this clock — see ``docs/observability.md``.

Lifetime: a run ends with :meth:`Simulator.close`, which closes every
process still suspended and drops every pending event. A parked server
worker or a sleeping control loop then no longer keeps its server, load
generator or workload alive, so what a finished run allocated is freed
by reference counting, without waiting for the cyclic collector.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.simulation.events import Signal

Process = Generator[Any, Any, None]

#: A scheduled event: the plain list ``[time, sequence, fn, live]``.
#: Entries order by time, then by sequence number; the sequence is unique,
#: so the callback is never compared. ``live`` is True until the event
#: settles: firing clears it, cancelling clears it and drops ``fn``.
Event = List[Any]

_heappush = heapq.heappush


class At:
    """Yielded by a process to resume at an absolute virtual instant.

    ``yield At(t)`` schedules the resumption at exactly ``t``, so a
    process that skips ahead lands on the float a chain of relative
    sleeps would have reached; ``t`` before ``now`` is rejected.
    """

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time


#: Yielded by a process to park it with nothing scheduled. The callable
#: :meth:`Simulator.spawn` returned resumes it in place, inside whatever
#: event calls it.
PARK = object()


class _Process:
    """A spawned generator and the two callbacks that drive it.

    Both are bound once at spawn, so a process that sleeps or waits
    schedules an existing bound method instead of a fresh closure. They
    are dropped when the process ends or is closed, which breaks the
    process's reference to itself.
    """

    __slots__ = ("simulator", "process", "signal", "step", "wake")

    def __init__(self, simulator: "Simulator", process: Process):
        self.simulator = simulator
        self.process = process
        #: The signal the process waits on; its payload is sent on resume.
        self.signal: Optional[Signal] = None
        self.step = self._step
        self.wake = self._wake

    def _step(self) -> None:
        signal = self.signal
        if signal is None:
            send_value = None
        else:
            send_value = signal.payload
            self.signal = None
        try:
            yielded = self.process.send(send_value)
        except StopIteration:
            # Absent when a closed process is resumed.
            self.simulator._processes.pop(self, None)
            self.step = self.wake = None
            return
        # A plain float is by far the most common yield; float subclasses
        # (np.float64), ints and bools take the conversion below.
        if type(yielded) is float:
            delay = yielded
        elif isinstance(yielded, Signal):
            self.signal = yielded
            yielded.add_waiter(self.wake)
            return
        elif yielded is PARK:
            return
        elif type(yielded) is At:
            self.simulator.call_at(yielded.time, self.step)
            return
        elif isinstance(yielded, (int, float)):
            delay = float(yielded)
        else:
            raise TypeError(
                f"process yielded {type(yielded).__name__}; "
                "expected a delay (seconds), a Signal, At or PARK"
            )
        # ``call_in``'s arithmetic, without the extra call. A NaN delay
        # passes the clamp and is rejected by ``call_at``.
        simulator = self.simulator
        simulator.call_at(
            simulator.now + (0.0 if delay < 0.0 else delay), self.step
        )

    def _wake(self) -> None:
        simulator = self.simulator
        simulator.call_at(simulator.now + 0.0, self.step)

    def close(self) -> None:
        """Close the generator where it is suspended, running no code of
        its own (``GeneratorExit`` at its ``yield``), and drop the
        callbacks."""
        self.process.close()
        self.signal = None
        self.step = self.wake = None


class Simulator:
    """Virtual clock + event heap + process scheduler.

    Every event enters through :meth:`call_at`, the processes' own
    resumptions included.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Event] = []
        self._sequence = 0
        #: Processes that have not returned, in spawn order.
        self._processes: Dict[_Process, None] = {}
        self._cancelled_events = 0
        #: The ``until`` of the active ``run`` call, if any.
        self._until: Optional[float] = None

    # -- low-level scheduling ---------------------------------------------------

    def call_at(self, time: float, fn: Callable[[], None]) -> Event:
        # Also rejects NaN, for which ``time < self.now`` would be False.
        if not time >= self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = [time, sequence, fn, True]
        _heappush(self._heap, event)
        return event

    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` after ``delay`` seconds; a negative delay is 0."""
        if delay < 0.0:
            delay = 0.0
        return self.call_at(self.now + delay, fn)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (idempotent); it will never fire.

        O(1): the entry stays in the heap and is discarded, without
        advancing the clock, when it reaches the top. Cancelling after the
        event fired is a no-op — crucially it must not touch the
        cancelled-event count, which only tracks dead entries still in
        the heap. The callback is dropped at once, releasing its state.
        """
        if event[3]:
            event[3] = False
            event[2] = None
            self._cancelled_events += 1

    def next_event_time(self) -> float:
        """When the next live event fires, capped at an active ``run``'s
        ``until``; ``math.inf`` when nothing is due at all.

        A process may skip waits that end strictly before this instant:
        no callback can run in between. Dead entries on top of the heap
        are discarded, as ``run`` would.
        """
        heap = self._heap
        while heap and not heap[0][3]:
            heapq.heappop(heap)
            self._cancelled_events -= 1
        time = heap[0][0] if heap else math.inf
        until = self._until
        if until is not None and until < time:
            return until
        return time

    # -- processes ----------------------------------------------------------------

    def spawn(self, process: Process) -> Callable[[], None]:
        """Start a generator-based process immediately.

        Returns the callable that steps the process in place; use it only
        to resume a process that yielded :data:`PARK`.
        """
        started = _Process(self, process)
        self._processes[started] = None
        step = started.step
        self.call_in(0.0, step)
        return step

    # -- running -------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the simulation time at which execution stopped.
        """
        heap = self._heap
        pop = heapq.heappop
        outer, self._until = self._until, until
        try:
            while heap:
                event = heap[0]
                if not event[3]:
                    # Dead timer: discard without advancing the clock.
                    pop(heap)
                    self._cancelled_events -= 1
                    continue
                time = event[0]
                if until is not None and time > until:
                    self.now = until
                    return self.now
                pop(heap)
                self.now = time
                event[3] = False  # fired
                event[2]()
        finally:
            self._until = outer
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def close(self) -> None:
        """End the simulation: close every process that has not returned,
        in spawn order, and drop every pending event, releasing its
        callback. The clock stays where ``run`` left it; a second call
        does nothing.

        A run calls this once ``run`` is over, returning or raising, so a
        suspended process no longer keeps what its frame refers to alive.
        """
        processes, self._processes = self._processes, {}
        for process in processes:
            process.close()
        for event in self._heap:
            event[3] = False
            event[2] = None
        self._heap.clear()
        self._cancelled_events = 0

    @property
    def pending_events(self) -> int:
        """Scheduled events that will still fire (cancelled ones excluded)."""
        return len(self._heap) - self._cancelled_events
