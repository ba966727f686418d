"""The Actix server's wait elisions and single completion against the
server before them.

``reference_actix.py`` keeps the parent's intake, CPU worker and GPU
executor, run on the reference event core: one zero-delay wake per
parked CPU worker, and every linger through a deadline timer, a
``Signal`` and a hop. It also keeps their completion: ``_respond_ok``,
an access record the CPU worker writes itself, a ``_make_responder``
closure per GPU response, and an ``admission`` and tenant-count test on
every dequeue. The production server resumes parked CPU workers from
one event, only while work is queued, resumes a linger at its deadline
directly when no event is due before it, completes every executed
request through one method, and picks each process's dequeue once.

Hypothesis draws programs on a grid of 2**-10 s (about 1 ms), so every
sum of grid times is an exact float and ties are common: simultaneous
arrivals, completions and linger deadlines on an arrival instant,
crashes inside a linger window, deadline shedding on both paths, and
clients that answer a response with a new request inside the same
event. The jitter is a fixed cycle of multipliers. After every
``run(until=...)`` step both servers must show the same responses (id,
status and the ``repr`` of every time), the same counters and the same
``pending_events``; once drained, the same access log.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.instances import CPU_E2_DEVICE, GPU_T4_DEVICE
from repro.hardware.latency_model import ServiceTimeProfile
from repro.serving import BatchingConfig, EtudeInferenceServer
from repro.serving.access_log import AccessLog
from repro.serving.admission import AdmissionPolicy
from repro.serving.profiles import ActixProfile
from repro.serving.request import RecommendationRequest
from repro.simulation import Simulator
from tests.serving.reference_actix import ReferenceServer
from tests.simulation import reference_simulator

GRID = 2.0**-10
#: Simulator and server class of each side.
PRODUCTION = (Simulator, EtudeInferenceServer)
REFERENCE = (reference_simulator.Simulator, ReferenceServer)

slots = st.integers(min_value=0, max_value=24)

programs = st.fixed_dictionaries(
    {
        "fixed": st.integers(0, 3),
        "per_item": st.integers(1, 3),
        "overhead": st.integers(0, 2),
        "jitter": st.lists(
            st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=5
        ),
        "workers": st.integers(1, 5),
        "max_batch": st.integers(1, 4),
        "max_delay": st.integers(0, 4),
        # Arrival slot and, optionally, the deadline in slots after it.
        "arrivals": st.lists(
            st.tuples(slots, st.none() | st.integers(0, 6)),
            min_size=1,
            max_size=24,
        ),
        "admission": st.none() | st.tuples(
            st.sampled_from(["fifo", "lifo"]), st.integers(0, 2)
        ),
        "crash": st.none() | st.tuples(slots, st.integers(1, 8)),
        # Responses the client answers at once with a new request.
        "followups": st.integers(0, 6),
        # run(until=...) instants in half slots: between arrivals too.
        "steps": st.lists(st.integers(0, 60), max_size=8),
    }
)


def execute(side, device, program):
    """Drive one side through ``program``; return everything observable."""
    simulator_cls, server_cls = side
    sim = simulator_cls()
    admission = None
    if program["admission"] is not None:
        discipline, slack = program["admission"]
        admission = AdmissionPolicy(discipline=discipline, slack_s=slack * GRID)
    server = server_cls(
        sim,
        device,
        ServiceTimeProfile(
            "grid", program["fixed"] * GRID, program["per_item"] * GRID,
            0.0, 0.0, 0,
        ),
        np.random.default_rng(0),
        profile=ActixProfile(
            request_overhead_s=program["overhead"] * GRID, admission=admission
        ),
        batching=BatchingConfig(
            max_batch_size=program["max_batch"],
            max_delay_s=program["max_delay"] * GRID,
        ),
        worker_threads=program["workers"],
        access_log=AccessLog(),
    )
    multipliers = itertools.cycle(program["jitter"])
    server._jitter = lambda sigma: next(multipliers)
    log = []
    next_id = itertools.count()
    followups = [program["followups"]]

    def request(deadline_slots):
        now = sim.now
        return RecommendationRequest(
            request_id=next(next_id),
            session_id=0,
            session_items=np.array([1], dtype=np.int64),
            sent_at=now,
            deadline_s=None if deadline_slots is None else now + deadline_slots * GRID,
        )

    def respond(response):
        log.append(
            (
                "response",
                response.request_id,
                response.status,
                repr(response.completed_at),
                repr(response.latency_s),
                repr(response.inference_s),
                repr(response.queue_s),
                response.batch_size,
            )
        )
        if followups[0]:
            followups[0] -= 1
            server.submit(request(None), respond)

    for slot, deadline_slots in program["arrivals"]:
        sim.call_at(
            slot * GRID,
            lambda deadline_slots=deadline_slots: server.submit(
                request(deadline_slots), respond
            ),
        )
    if program["crash"] is not None:
        at, down = program["crash"]
        sim.call_at(at * GRID, server.crash)
        sim.call_at((at + down) * GRID, server.recover)

    def state():
        return (
            "state",
            repr(sim.now),
            sim.pending_events,
            server.completed,
            server.rejected,
            server.shed_deadline,
            server.shed_codel,
            server.batch_flushes,
            server.batched_requests,
            server._active_workers,
            server.queue_depth(),
        )

    for step in sorted(program["steps"]):
        log.append(("run", sim.run(until=step * GRID / 2)))
        log.append(state())
    log.append(("drained", sim.run()))
    log.append(state())
    log.append(("access", [repr(record) for record in server.access_log]))
    return log


def assert_sides_match(device, program):
    production = execute(PRODUCTION, device, program)
    assert production == execute(REFERENCE, device, program)
    return production


@given(programs)
@settings(max_examples=300, deadline=None)
def test_cpu_wake_matches_reference(program):
    assert_sides_match(CPU_E2_DEVICE, program)


@given(programs)
@settings(max_examples=300, deadline=None)
def test_gpu_linger_matches_reference(program):
    assert_sides_match(GPU_T4_DEVICE, program)


def test_simultaneous_arrivals_wake_several_workers():
    """Four arrivals in one instant on five parked workers: one event
    resumes four of them, the fifth stays parked."""
    program = dict(
        fixed=1, per_item=1, overhead=1, jitter=[1.0], workers=5,
        max_batch=1, max_delay=0, arrivals=[(2, None)] * 4 + [(3, None)],
        admission=None, crash=None, followups=2, steps=[4, 5, 6, 7],
    )
    log = assert_sides_match(CPU_E2_DEVICE, program)
    assert sum(entry[0] == "response" for entry in log) == 7


def test_linger_deadline_ties_with_an_arrival():
    """An arrival exactly at a linger deadline, and a crash inside the
    next window."""
    program = dict(
        fixed=1, per_item=1, overhead=0, jitter=[1.0], workers=1,
        max_batch=3, max_delay=2, arrivals=[(0, None), (2, None), (9, None)],
        admission=None, crash=(10, 3), followups=0, steps=[2, 4, 19, 20],
    )
    assert_sides_match(GPU_T4_DEVICE, program)


def test_shed_at_a_linger_deadline_answered_at_once():
    """A doomed arrival exactly at the linger deadline is shed with no
    overhead; its 503 and the client's follow-up run before the flush, so
    the follow-up joins the batch. Resuming the executor directly when an
    event is due at the deadline itself would flush without it."""
    program = dict(
        fixed=1, per_item=1, overhead=0, jitter=[1.0], workers=1,
        max_batch=3, max_delay=2, arrivals=[(0, None), (2, 0)],
        admission=("fifo", 0), crash=None, followups=1, steps=[],
    )
    log = assert_sides_match(GPU_T4_DEVICE, program)
    # The 503, then the first arrival and the follow-up in one batch.
    responses = [entry for entry in log if entry[0] == "response"]
    assert [(entry[1], entry[-1]) for entry in responses] == [(1, 1), (0, 2), (2, 2)]
