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
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional

from repro.simulation.events import Signal

Process = Generator[Any, Any, None]


class EventHandle(list):
    """A scheduled callback that can be cancelled before it fires.

    The handle *is* the heap entry, ``[time, sequence, fn, simulator]``,
    so scheduling allocates one object per event. Entries order by time,
    then by sequence number; the sequence is unique, so the callback is
    never compared. The simulator slot is cleared once the event settles
    (fires or is cancelled); a cancelled event also drops its callback.
    Being a list, a handle is unhashable: keep handles as values, not keys.

    Cancellation is O(1): the heap entry stays in place but is skipped —
    without advancing the clock — when it reaches the top, so a cancelled
    timer can never extend a run past its natural end.
    """

    __slots__ = ()

    @property
    def fn(self) -> Optional[Callable[[], None]]:
        return self[2]

    @property
    def cancelled(self) -> bool:
        return self[3] is None and self[2] is None

    @property
    def fired(self) -> bool:
        return self[3] is None and self[2] is not None

    def cancel(self) -> None:
        """Cancel the event (idempotent); a cancelled event never fires.

        Cancelling after the event fired is a no-op — crucially it must
        not touch the simulator's cancelled-event count, which only
        tracks dead entries still sitting in the heap.
        """
        simulator = self[3]
        if simulator is not None:
            self[2] = None  # release closed-over state immediately
            self[3] = None
            simulator._cancelled_events += 1


class _Process:
    """A spawned generator and the two callbacks that drive it.

    Both are bound once at spawn, so a process that sleeps or waits
    schedules an existing bound method instead of a fresh closure.
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
            self.simulator._live_processes -= 1
            return
        # A plain float is by far the most common yield; float subclasses
        # (np.float64), ints and bools take the conversion below.
        if type(yielded) is float:
            delay = yielded
        elif isinstance(yielded, Signal):
            self.signal = yielded
            yielded.add_waiter(self.wake)
            return
        elif isinstance(yielded, (int, float)):
            delay = float(yielded)
        else:
            raise TypeError(
                f"process yielded {type(yielded).__name__}; "
                "expected a delay (seconds) or a Signal"
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


class Simulator:
    """Virtual clock + event heap + process scheduler.

    Every event enters through :meth:`call_at`, the processes' own
    resumptions included.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[EventHandle] = []
        self._sequence = 0
        self._live_processes = 0
        self._cancelled_events = 0

    # -- low-level scheduling ---------------------------------------------------

    def call_at(self, time: float, fn: Callable[[], None]) -> EventHandle:
        # Also rejects NaN, for which ``time < self.now`` would be False.
        if not time >= self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        handle = EventHandle((time, self._sequence, fn, self))
        heapq.heappush(self._heap, handle)
        self._sequence += 1
        return handle

    def call_in(self, delay: float, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` after ``delay`` seconds; a negative delay is 0."""
        if delay < 0.0:
            delay = 0.0
        return self.call_at(self.now + delay, fn)

    # -- processes ----------------------------------------------------------------

    def spawn(self, process: Process) -> None:
        """Start a generator-based process immediately."""
        self._live_processes += 1
        self.call_in(0.0, _Process(self, process).step)

    # -- running -------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the simulation time at which execution stopped.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            handle = heap[0]
            if handle[3] is None:
                # Dead timer: discard without advancing the clock.
                pop(heap)
                self._cancelled_events -= 1
                continue
            time = handle[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            pop(heap)
            self.now = time
            handle[3] = None  # fired
            handle[2]()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    @property
    def pending_events(self) -> int:
        """Scheduled events that will still fire (cancelled ones excluded)."""
        return len(self._heap) - self._cancelled_events
