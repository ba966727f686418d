"""Inter-process signalling."""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class Signal:
    """A one-shot wakeup processes can wait on (``yield signal``).

    Multiple processes may wait on one signal; all resume when it fires.
    Firing an already-fired signal is a no-op. A payload can be attached at
    fire time and read by the waiters afterwards.
    """

    __slots__ = ("fired", "payload", "_waiters", "name")

    def __init__(self, name: str = ""):
        self.fired = False
        self.payload: Any = None
        self._waiters: List[Callable[[], None]] = []
        self.name = name

    def add_waiter(self, resume: Callable[[], None]) -> None:
        if self.fired:
            resume()
        else:
            self._waiters.append(resume)

    def fire(self, payload: Any = None) -> None:
        if self.fired:
            return
        self.fired = True
        self.payload = payload
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume()

    def claim(self) -> None:
        """Mark the signal fired and drop its waiters without resuming
        them: the caller resumes its one waiter itself, in place. Later
        fires are no-ops, as after :meth:`fire`."""
        self.fired = True
        self._waiters = []

    def __repr__(self) -> str:
        state = "fired" if self.fired else "pending"
        return f"Signal({self.name or hex(id(self))}, {state})"
