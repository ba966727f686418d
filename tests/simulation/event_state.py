"""The settled state of a scheduled event, read off its heap entry.

``Simulator.call_at`` returns the entry ``[time, sequence, fn, live]``:
firing clears ``live``; cancelling clears ``live`` and drops ``fn``.
"""


def cancelled(event) -> bool:
    return not event[3] and event[2] is None


def fired(event) -> bool:
    return not event[3] and event[2] is not None
