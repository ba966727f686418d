"""Property: the chaos grammar round-trips for every event kind.

``ChaosSchedule.spec_string()`` is what spec files persist and what the
CLI re-parses; ``parse(spec_string(s)) == s`` must hold for arbitrary
schedules — all five event kinds, every option combination, including
``None`` ("none") optionals, string-valued options (a :class:`ZoneOutage`
zone name, which ``format(value, 'g')`` used to reject with a TypeError),
every finite float and integers past ``1e6``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.chaos import (
    ChaosSchedule,
    CrashStorm,
    NetworkDelay,
    PodCrash,
    SlowNode,
    ZoneOutage,
)


def _finite(lo, hi=None, exclude_min=False):
    """Every finite float in ``[lo, hi]``."""
    return st.floats(
        min_value=lo, max_value=hi, exclude_min=exclude_min,
        allow_nan=False, allow_infinity=False,
    )


#: Integers well past 1e6, where ``'g'`` formatting switches to exponents.
indices = st.integers(0, 10**12)

times = _finite(0.0)
optional_restart = st.one_of(st.none(), _finite(0.0))
optional_duration = st.one_of(st.none(), _finite(0.0))
#: Zone names must avoid the grammar's structural characters (,:@=) and
#: whitespace — the charset real placements use (z0, eu-west-1b, ...).
zone_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,11}", fullmatch=True)

crashes = st.builds(
    PodCrash,
    at_s=times,
    pod_index=indices,
    restart_after_s=optional_restart,
    shard=st.one_of(st.none(), indices),
)
storms = st.builds(
    CrashStorm,
    at_s=times,
    count=st.integers(1, 10**12),
    stagger_s=_finite(0.0),
    restart_after_s=optional_restart,
)
slow_nodes = st.builds(
    SlowNode,
    at_s=times,
    pod_index=indices,
    factor=_finite(0.0, exclude_min=True),
    duration_s=optional_duration,
)
net_delays = st.builds(
    NetworkDelay,
    at_s=times,
    extra_s=_finite(0.0),
    duration_s=optional_duration,
)
zone_outages = st.builds(
    ZoneOutage,
    at_s=times,
    zone=zone_names,
    restart_after_s=optional_restart,
)

events = st.one_of(crashes, storms, slow_nodes, net_delays, zone_outages)
schedules = st.builds(
    ChaosSchedule, events=st.lists(events, max_size=8).map(tuple)
)


class TestChaosGrammarRoundTrip:
    @given(schedule=schedules)
    @settings(max_examples=300, deadline=None)
    def test_parse_spec_string_identity(self, schedule):
        assert ChaosSchedule.parse(schedule.spec_string()) == schedule

    @given(schedule=schedules)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_a_fixed_point(self, schedule):
        """One round trip reaches the canonical string: re-serializing the
        parsed schedule reproduces it character for character."""
        text = schedule.spec_string()
        assert ChaosSchedule.parse(text).spec_string() == text

    def test_known_kind_examples(self):
        """One worked example per kind (the docstring grammar)."""
        text = (
            "crash@150:pod=0:restart=20,"
            "storm@200:count=3:stagger=1:restart=none,"
            "slow@100:pod=1:factor=3:dur=30,"
            "netdelay@50:add=0.005:dur=30,"
            "zone@60:name=z0:restart=25"
        )
        schedule = ChaosSchedule.parse(text)
        assert [e.kind for e in schedule.events] == [
            "crash", "storm", "slow", "netdelay", "zone",
        ]
        assert ChaosSchedule.parse(schedule.spec_string()) == schedule
