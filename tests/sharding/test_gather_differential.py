"""The scatter-gather aggregator against the one before it.

``reference_gather.py`` keeps the aggregator as it was before each hop
became one scheduled ``functools.partial``: a lambda and a responder
closure per leg, legs in a dict in landing order, the merge cost and the
coverage sum recomputed per fan-out, and every fan-out settled through
the general merge. It runs on ``tests/simulation/reference_simulator.py``;
the production aggregator runs on the production simulator.

Hypothesis draws fan-outs on a grid of 2**-10 s (about 1 ms), merge cost
included, so every sum of grid times is an exact float and legs, merges
and arrivals tie. Each shard leg answers a full 200, a degraded 200 or a
503, in place or some slots later, with items and scores or with none;
some fan-outs have only full, latency-only legs, the ones the fast path
settles. Coverage fractions are equal, or unequal and summing to 1 or
below; partial results are allowed or not; telemetry is on or off. Both
sides must give the client the same responses at the same instants (the
``repr`` of every field), the same ``stats()``, the same trace rows and
counters, and the same clock and pending events once drained.

Three fixed programs pin what a fault on the fast path would break
first: coverage summed in shard order over unequal fractions and maxima
taken over every leg; a degraded leg without items, which must take the
general merge; and a merge with no full leg, which passes through the
items of the degraded leg that landed first.
"""

import itertools
import json
from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sharding.gather as gather
from repro.hardware.latency_model import ShardMergeCost
from repro.obs import Telemetry
from repro.obs.export import trace_to_json
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationRequest,
    RecommendationResponse,
)
from repro.sharding.config import ShardingConfig
from repro.simulation import Simulator
from tests.sharding import reference_gather
from tests.simulation import reference_simulator

GRID = 2.0**-10
TOP_K = 3
MAX_SHARDS = 5
#: Module, simulator class and aggregator class of each side.
PRODUCTION = (gather, Simulator, gather.ScatterGatherAggregator)
REFERENCE = (
    reference_gather,
    reference_simulator.Simulator,
    reference_gather.ScatterGatherAggregator,
)

KINDS = st.sampled_from(["full", "degraded", "503"])


def legs(kinds, scored):
    """One leg per shard: its kind; whether it carries items; its service
    slots (0 = answered in place), inference, queue and batch size; and
    whether the cache answered it."""
    leg = st.tuples(
        kinds,
        scored,
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(1, 4),
        st.booleans(),
    )
    return st.lists(leg, min_size=MAX_SHARDS, max_size=MAX_SHARDS)


fanout = st.tuples(
    st.integers(0, 8),
    # Full and latency-only, as the fast path takes them; latency-only
    # of any kind, as cluster pods answer; any, as shard scorers answer.
    legs(st.just("full"), st.just(False))
    | legs(KINDS, st.just(False))
    | legs(KINDS, st.booleans()),
)

programs = st.fixed_dictionaries(
    {
        "shards": st.integers(2, MAX_SHARDS),
        "allow_partial": st.booleans(),
        "telemetry": st.booleans(),
        # Coverage weights per shard and a share of the catalog that no
        # shard covers (0: the fractions sum to 1); None = equal slices.
        "weights": st.none()
        | st.tuples(
            st.lists(st.integers(1, 9), min_size=MAX_SHARDS, max_size=MAX_SHARDS),
            st.just(0) | st.integers(1, 2),
        ),
        "network": st.lists(st.integers(0, 3), min_size=1, max_size=5),
        "merge": st.integers(0, 2),
        "fanouts": st.lists(fanout, min_size=1, max_size=6),
    }
)


def leg_response(sub, shard, now, leg):
    """What shard ``shard`` answers to ``sub`` under ``leg``."""
    kind, scored, _service, inference, queue, batch, cache_hit = leg
    items = scores = None
    if kind == "full" and scored:
        # Every shard's ids are its own; scores tie across shards.
        items = np.arange(TOP_K, dtype=np.int64) + 100 * shard
        scores = np.array(
            [float((sub.session_id + shard + i) % 3) for i in range(TOP_K)]
        )
    elif kind == "degraded" and scored:
        # A fallback tier's popularity top-k differs per shard.
        items = np.arange(TOP_K, dtype=np.int64) + 1000 * (shard + 1)
    return RecommendationResponse(
        request_id=sub.request_id,
        status=HTTP_SERVICE_UNAVAILABLE if kind == "503" else HTTP_OK,
        completed_at=now,
        latency_s=now - sub.sent_at,
        inference_s=inference * GRID,
        queue_s=queue * GRID,
        batch_size=batch,
        items=items,
        scores=scores,
        degraded=kind == "degraded",
        cache_hit=cache_hit,
    )


def execute(side, program):
    """Drive one side through ``program``; return everything observable."""
    module, simulator_cls, aggregator_cls = side
    sim = simulator_cls()
    shards = program["shards"]
    fractions = None
    if program["weights"] is not None:
        weights, uncovered = program["weights"]
        total = sum(weights[:shards]) + uncovered
        fractions = [weight / total for weight in weights[:shards]]
    telemetry = None
    if program["telemetry"]:
        telemetry = Telemetry().bind(sim, start_sampler=False)
    fanouts = program["fanouts"]

    def shard_submit(shard):
        def submit(sub, respond):
            leg = fanouts[sub.session_id][1][shard]
            service = leg[2]
            if service == 0:
                respond(leg_response(sub, shard, sim.now, leg))
            else:
                sim.call_in(
                    service * GRID,
                    lambda: respond(leg_response(sub, shard, sim.now, leg)),
                )

        return submit

    network = itertools.cycle(program["network"])
    merge_cost = partial(
        ShardMergeCost, base_s=program["merge"] * GRID, per_candidate_s=0.0
    )
    with mock.patch.object(module, "ShardMergeCost", merge_cost):
        aggregator = aggregator_cls(
            simulator=sim,
            config=ShardingConfig(
                shards=shards, allow_partial=program["allow_partial"]
            ),
            shard_submits=[shard_submit(shard) for shard in range(shards)],
            network_delay=lambda: next(network) * GRID,
            top_k=TOP_K,
            coverage_fractions=fractions,
            telemetry=telemetry,
        )
    log = []

    def respond(response):
        log.append(("response", repr(sim.now), repr(response)))

    for index, (slot, _legs) in enumerate(fanouts):
        request = RecommendationRequest(
            request_id=index,
            session_id=index,
            session_items=np.array([1, 2], dtype=np.int64),
            sent_at=slot * GRID,
        )
        sim.call_at(
            slot * GRID,
            lambda request=request: aggregator.scatter(request, respond),
        )
    log.append(("drained", repr(sim.run()), sim.pending_events))
    log.append(("stats", aggregator.stats()))
    if telemetry is not None:
        log.append(("trace", trace_to_json(telemetry.trace)))
        log.append(("metrics", json.dumps(telemetry.metrics.snapshot())))
    return log


def assert_sides_match(program):
    production = execute(PRODUCTION, program)
    assert production == execute(REFERENCE, program)
    return production


@given(programs)
@settings(max_examples=200, deadline=None)
def test_aggregator_matches_reference(program):
    assert_sides_match(program)


def plain_fanouts(count, shards=MAX_SHARDS):
    """``count`` fan-outs at slot 0 whose legs are all full and
    latency-only, each shard slower and busier than the one before."""
    legs = [("full", False, s, s, s, s + 1, False) for s in range(shards)]
    return [(0, legs)] * count


def test_full_latency_only_fanout_over_unequal_fractions():
    """The fast path's coverage is the shards' fractions summed in shard
    order, and its maxima come from the last, slowest leg."""
    program = dict(
        shards=3, allow_partial=True, telemetry=True,
        weights=([1, 2, 7, 1], 0), network=[1, 2], merge=1,
        fanouts=plain_fanouts(2),
    )
    log = assert_sides_match(program)
    responses = [entry for entry in log if entry[0] == "response"]
    assert len(responses) == 2
    assert "coverage=1.0" in responses[0][2]
    assert "inference_s=0.001953125, queue_s=0.001953125, batch_size=3" in (
        responses[0][2]
    )


def test_degraded_legs_pass_the_first_landed_items_through():
    """With no full leg, the merge answers the items of the degraded leg
    that landed first, which is not shard 0's."""
    degraded = [("degraded", True, 3 - s, 0, 0, 1, False) for s in range(2)]
    program = dict(
        shards=2, allow_partial=True, telemetry=False, weights=None,
        network=[0], merge=0, fanouts=[(0, degraded)],
    )
    log = assert_sides_match(program)
    (response,) = [entry for entry in log if entry[0] == "response"]
    assert "items=array([2000, 2001, 2002])" in response[2]


def test_a_degraded_latency_only_leg_takes_the_general_merge():
    """A degraded 200 carries no items either, but it covers none of the
    catalog: the fan-out answers a partial, degraded 200."""
    legs = [
        ("full", False, 1, 1, 1, 1, False),
        ("degraded", False, 1, 0, 0, 1, False),
    ]
    program = dict(
        shards=2, allow_partial=True, telemetry=False, weights=None,
        network=[1], merge=0, fanouts=[(0, legs)],
    )
    log = assert_sides_match(program)
    (response,) = [entry for entry in log if entry[0] == "response"]
    assert "degraded=True, coverage=0.5" in response[2]
