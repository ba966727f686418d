"""The load generator's poll elision against the generator before it.

``reference_generator.py`` keeps the parent's main loop, run on the
reference event core: every 1 ms backpressure poll is an event. The
production generator counts the polls that fall strictly before the next
due event, the tick end and the deadline, and resumes at the first poll
that could see a change.

Hypothesis draws per-tick rates and a server whose responses land on the
poll grid: each response is due a whole number of ticks after its send,
plus a number of 1 ms steps added one at a time, as the polls add them.
A request sent at a tick start and answered a tick later therefore
arrives exactly at a poll instant. Client timeouts, telemetry and
``run(until=...)`` steps on, just after and between poll instants are
drawn too. After every step both generators must show the same
responses (id, status, ``repr`` of the time), the same counters,
``backpressure_stalls`` and stall-counter value, and the same
``pending_events``.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadgen.generator import LoadGenerator
from repro.obs import Telemetry
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationResponse,
)
from repro.simulation import Simulator
from tests.loadgen.reference_generator import (
    ReferenceLoadGenerator,
    ReferenceSimulator,
)

POLL_S = LoadGenerator.BACKPRESSURE_WAIT_S
PRODUCTION = (Simulator, LoadGenerator)
REFERENCE = (ReferenceSimulator, ReferenceLoadGenerator)


def after_polls(time: float, polls: int) -> float:
    """``time`` advanced by ``polls`` 1 ms steps, one addition each."""
    for _ in range(polls):
        time += POLL_S
    return time


programs = st.fixed_dictionaries(
    {
        "rates": st.lists(st.integers(0, 4), min_size=1, max_size=4),
        "duration": st.sampled_from([1.0, 2.0, 3.0]),
        "start": st.sampled_from([0.0, 0.5]),
        # Per response: ticks after the send, extra 1 ms steps, status.
        "replies": st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 1_200) | st.sampled_from([0, 1, 2, 999, 1000]),
                st.sampled_from([HTTP_OK, HTTP_SERVICE_UNAVAILABLE]),
            ),
            min_size=1,
            max_size=6,
        ),
        "timeout": st.sampled_from([None, None, 0.5, 1.0, 1.5]),
        "telemetry": st.booleans(),
        # run(until=...): a whole tick plus some polls, plus an offset
        # of nothing, a quarter or a half of a poll.
        "steps": st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 1_000), st.sampled_from([0, 1, 2])
            ),
            max_size=6,
        ),
    }
)


class Rates:
    """Per-tick rates, indexed by the tick's offset into the run."""

    def __init__(self, rates):
        self.rates = rates

    def rate_at(self, elapsed_s, duration_s):
        return self.rates[min(int(elapsed_s + 0.5), len(self.rates) - 1)]


def execute(side, program):
    """Drive one side through ``program``; return everything observable."""
    simulator_cls, generator_cls = side
    sim = simulator_cls()
    log = []
    replies = itertools.cycle(program["replies"])

    def submit(request, respond):
        ticks, polls, status = next(replies)
        due = after_polls(request.sent_at + ticks * 1.0, polls)

        def reply():
            log.append(("response", request.request_id, status, repr(sim.now)))
            respond(
                RecommendationResponse(
                    request_id=request.request_id,
                    status=status,
                    completed_at=sim.now,
                    latency_s=sim.now - request.sent_at,
                )
            )

        sim.call_at(due, reply)

    telemetry = Telemetry() if program["telemetry"] else None
    generator = generator_cls(
        sim,
        submit,
        itertools.repeat(np.array([1, 2, 3], dtype=np.int64)),
        target_rps=max(program["rates"]),
        duration_s=program["duration"],
        schedule=Rates(program["rates"]),
        request_timeout_s=program["timeout"],
        telemetry=telemetry,
    )
    sim.call_at(program["start"], generator.start)

    def state():
        stall_counter = None
        if telemetry is not None:
            stall_counter = telemetry.metrics.get(
                "loadgen_backpressure_stalls_total"
            ).value
        return (
            "state",
            repr(sim.now),
            sim.pending_events,
            generator.sent,
            generator.pending,
            generator.backpressure_stalls,
            stall_counter,
            generator.timeouts,
            generator.finished,
            generator.collector.ok,
            generator.collector.errors,
        )

    quarter = POLL_S / 4
    for ticks, polls, quarters in sorted(program["steps"]):
        until = after_polls(program["start"] + ticks * 1.0, polls) + quarters * quarter
        if until < sim.now:
            continue
        log.append(("run", repr(sim.run(until=until))))
        log.append(state())
    log.append(("drained", repr(sim.run())))
    log.append(state())
    return log


def assert_sides_match(program):
    production = execute(PRODUCTION, program)
    assert production == execute(REFERENCE, program)
    return production


@given(programs)
@settings(max_examples=300, deadline=None)
def test_poll_elision_matches_reference(program):
    assert_sides_match(program)


def test_response_exactly_at_a_poll_instant():
    """One request per tick, each answered on the 17th poll of the next
    tick: that poll sees the response, so 17 polls stall per tick."""
    program = dict(
        rates=[1], duration=3.0, start=0.0,
        replies=[(1, 17, HTTP_OK), (1, 0, HTTP_OK), (0, 999, HTTP_OK)],
        timeout=None, telemetry=True,
        steps=[(1, 16, 2), (1, 17, 0), (2, 0, 0), (2, 500, 1)],
    )
    log = assert_sides_match(program)
    assert log[-1][5] == 34  # backpressure_stalls
