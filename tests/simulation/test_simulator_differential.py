"""The event core against its reference implementation.

``reference_simulator.py`` is the simulator before the allocation-light
rewrite (one ``EventHandle`` object and up to two closures per event).
Random programs drive both in lockstep: timers at tied times, zero and
negative delays, cancels before and after firing, double cancels,
processes that sleep or wait on pending and already-fired signals, and
``run(until=...)`` in steps. The production core must reproduce the
reference's firing order and clock readings, every ``run()`` result,
``pending_events`` and every event's cancelled/fired state. The
production core cancels through ``Simulator.cancel`` and its events are
plain heap entries; the reference cancels through its handles.
"""

from typing import Any, Callable, NamedTuple, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Signal, Simulator
from tests.simulation import event_state, reference_simulator


class Core(NamedTuple):
    """A simulator class, how it cancels an event, and how an event
    reports its ``(cancelled, fired)`` state."""

    simulator: type
    cancel: Callable[[Any, Any], None]
    state: Callable[[Any], Tuple[bool, bool]]


PRODUCTION = Core(
    Simulator,
    lambda sim, event: sim.cancel(event),
    lambda event: (event_state.cancelled(event), event_state.fired(event)),
)
REFERENCE = Core(
    reference_simulator.Simulator,
    lambda sim, handle: handle.cancel(),
    lambda handle: (handle.cancelled, handle.fired),
)

SIGNALS = 3

#: Absolute times for ``call_at`` (ties on purpose; the past is rejected).
times = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0])
#: Delays for ``call_in`` and process sleeps (ints, bools and float
#: subclasses are valid delays).
delays = st.sampled_from(
    [-1.0, -0.0, 0.0, 0.0, 0.5, 1, 1.0, 2.5, np.float64(0.5), True]
)
handle_index = st.integers(min_value=0, max_value=40)
signal_index = st.integers(min_value=0, max_value=SIGNALS - 1)

#: What a timer does when it fires, besides logging.
nested = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), handle_index),
    st.tuples(st.just("in"), delays, st.none()),
    st.tuples(st.just("fire"), signal_index, st.integers(0, 9)),
)

process_steps = st.lists(
    st.one_of(
        st.tuples(st.just("sleep"), delays),
        st.tuples(st.just("wait"), signal_index),
    ),
    max_size=4,
)

actions = st.one_of(
    st.tuples(st.just("at"), times, nested),
    st.tuples(st.just("in"), delays, nested),
    st.tuples(st.just("cancel"), handle_index),
    st.tuples(st.just("spawn"), process_steps),
    st.tuples(st.just("fire"), signal_index, st.integers(0, 9)),
    st.tuples(
        st.just("run"),
        st.sampled_from([None, 0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 100.0]),
    ),
)

programs = st.lists(actions, max_size=25)


def execute(core, program):
    """Run ``program`` on a fresh simulator; return everything observable."""
    sim = core.simulator()
    log = []
    handles = []
    signals = [Signal(f"s{index}") for index in range(SIGNALS)]

    def process(pid, steps):
        for index, (kind, arg) in enumerate(steps):
            if kind == "sleep":
                value = yield arg
            else:
                value = yield signals[arg]
            log.append(("resume", pid, index, sim.now, value))

    def schedule(kind, when, then):
        label = len(handles)

        def callback():
            log.append(("fire", label, sim.now))
            if then is not None:
                perform(then)

        try:
            if kind == "at":
                handle = sim.call_at(when, callback)
            else:
                handle = sim.call_in(when, callback)
        except ValueError:
            log.append(("rejected", kind, when, sim.now))
            return
        handles.append(handle)

    def perform(action):
        kind = action[0]
        if kind in ("at", "in"):
            schedule(kind, action[1], action[2])
        elif kind == "cancel":
            if handles:
                core.cancel(sim, handles[action[1] % len(handles)])
        elif kind == "spawn":
            sim.spawn(process(len(log), action[1]))
        elif kind == "fire":
            signals[action[1]].fire(action[2])
        elif kind == "run":
            log.append(("run", action[1], sim.run(until=action[1])))

    def state():
        return (
            "state",
            sim.now,
            sim.pending_events,
            tuple(core.state(handle) for handle in handles),
        )

    for action in program:
        perform(action)
        log.append(state())
    log.append(("drained", sim.run()))
    log.append(state())
    return log


@given(programs)
@settings(max_examples=400, deadline=None)
def test_matches_the_reference_core(program):
    # repr: clock readings must match bit for bit, signed zeros included.
    assert repr(execute(PRODUCTION, program)) == repr(
        execute(REFERENCE, program)
    )


def test_a_mixed_program_matches_step_by_step():
    """A fixed program that touches every behaviour at least once."""
    program = [
        ("at", 1.0, ("cancel", 1)),
        ("in", 1.0, None),
        ("in", -1.0, ("fire", 0, 7)),
        ("spawn", [("wait", 0), ("sleep", -0.0), ("sleep", 1), ("wait", 0)]),
        ("cancel", 1),
        ("cancel", 1),
        ("run", 0.5),
        ("at", 0.0, None),
        ("in", 0.0, ("in", 2.5, None)),
        ("run", 1.0),
        ("cancel", 0),
        ("run", 100.0),
        ("run", None),
    ]
    log = execute(PRODUCTION, program)
    assert repr(log) == repr(execute(REFERENCE, program))
    assert ("rejected", "at", 0.0, 0.5) in log
    assert ("run", 100.0, 100.0) in log
