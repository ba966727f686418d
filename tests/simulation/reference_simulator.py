"""The event core as it was before the allocation-light rewrite.

Kept verbatim (``EventHandle`` and ``Simulator``) as the reference that
``test_simulator_differential.py`` checks the production core against:
same firing order and clock readings, same ``run()`` results, same
``pending_events`` and the same handle states on any program.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.simulation.events import Signal

Process = Generator[Any, Any, None]


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    Cancellation is O(1): the heap entry stays in place but is skipped —
    without advancing the clock — when it reaches the top, so a cancelled
    timer can never extend a run past its natural end.
    """

    __slots__ = ("fn", "cancelled", "fired", "_simulator")

    def __init__(self, simulator: "Simulator", fn: Callable[[], None]):
        self.fn: Optional[Callable[[], None]] = fn
        self.cancelled = False
        self.fired = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Cancel the event (idempotent); a cancelled event never fires.

        Cancelling after the event fired is a no-op — crucially it must
        not touch the simulator's cancelled-event count, which only
        tracks dead entries still sitting in the heap.
        """
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self.fn = None  # release closed-over state immediately
            self._simulator._cancelled_events += 1


class Simulator:
    """Virtual clock + event heap + process scheduler."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._sequence = 0
        self._live_processes = 0
        self._cancelled_events = 0

    # -- low-level scheduling ---------------------------------------------------

    def call_at(self, time: float, fn: Callable[[], None]) -> EventHandle:
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        handle = EventHandle(self, fn)
        heapq.heappush(self._heap, (time, self._sequence, handle))
        self._sequence += 1
        return handle

    def call_in(self, delay: float, fn: Callable[[], None]) -> EventHandle:
        return self.call_at(self.now + max(delay, 0.0), fn)

    # -- processes ----------------------------------------------------------------

    def spawn(self, process: Process) -> None:
        """Start a generator-based process immediately."""
        self._live_processes += 1
        self.call_in(0.0, lambda: self._step(process))

    def _step(self, process: Process, send_value: Any = None) -> None:
        try:
            yielded = process.send(send_value)
        except StopIteration:
            self._live_processes -= 1
            return
        if isinstance(yielded, Signal):
            signal = yielded
            signal.add_waiter(
                lambda: self.call_in(0.0, lambda: self._step(process, signal.payload))
            )
        elif isinstance(yielded, (int, float)):
            self.call_in(float(yielded), lambda: self._step(process))
        else:
            raise TypeError(
                f"process yielded {type(yielded).__name__}; "
                "expected a delay (seconds) or a Signal"
            )

    # -- running -------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the simulation time at which execution stopped.
        """
        while self._heap:
            time, _seq, handle = self._heap[0]
            if handle.cancelled:
                # Dead timer: discard without advancing the clock.
                heapq.heappop(self._heap)
                self._cancelled_events -= 1
                continue
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = time
            handle.fired = True
            handle.fn()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    @property
    def pending_events(self) -> int:
        """Scheduled events that will still fire (cancelled ones excluded)."""
        return len(self._heap) - self._cancelled_events
