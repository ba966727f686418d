"""Discrete-event simulator core."""

import gc
import math

import pytest

from repro.simulation import PARK, At, RandomStreams, Signal, Simulator
from tests.simulation import event_state


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_in(2.0, lambda: order.append("b"))
        sim.call_in(1.0, lambda: order.append("a"))
        sim.call_in(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        sim = Simulator()
        order = []
        sim.call_in(1.0, lambda: order.append(1))
        sim.call_in(1.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(0.5, lambda: None)

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.call_in(10.0, lambda: fired.append(True))
        stopped_at = sim.run(until=5.0)
        assert stopped_at == 5.0
        assert not fired
        sim.run()
        assert fired

    def test_negative_delay_clamped(self):
        sim = Simulator()
        fired = []
        sim.call_in(-1.0, lambda: fired.append(True))
        sim.run()
        assert fired

    def test_nan_time_rejected(self):
        """Regression: ``nan < now`` is False, so a NaN time used to enter
        the heap and fire out of order (2.0, NaN, 1.0, 3.0 fired with the
        clock at 1.0, 2.0, nan, 3.0)."""
        sim = Simulator()
        fired_at = []
        sim.call_at(2.0, lambda: fired_at.append(sim.now))
        with pytest.raises(ValueError, match="in the past"):
            sim.call_at(float("nan"), lambda: fired_at.append(sim.now))
        sim.call_at(1.0, lambda: fired_at.append(sim.now))
        sim.call_at(3.0, lambda: fired_at.append(sim.now))
        assert sim.pending_events == 3
        sim.run()
        assert fired_at == [1.0, 2.0, 3.0]

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_in(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nan_sleep_rejected(self):
        """A process sleeping NaN seconds fails like ``call_in(nan)``: the
        clamp before ``call_at`` must not turn NaN into 0."""
        sim = Simulator()

        def sleeper():
            yield float("nan")

        sim.spawn(sleeper())
        with pytest.raises(ValueError, match="in the past"):
            sim.run()
        assert sim.pending_events == 0


class TestProcesses:
    def test_sleep_advances_clock(self):
        sim = Simulator()
        times = []

        def process():
            times.append(sim.now)
            yield 1.5
            times.append(sim.now)
            yield 0.5
            times.append(sim.now)

        sim.spawn(process())
        sim.run()
        assert times == [0.0, 1.5, 2.0]

    def test_two_processes_interleave(self):
        sim = Simulator()
        log = []

        def ticker(name, period):
            for _ in range(3):
                yield period
                log.append((name, sim.now))

        sim.spawn(ticker("fast", 1.0))
        sim.spawn(ticker("slow", 2.5))
        sim.run()
        assert log == [
            ("fast", 1.0),
            ("fast", 2.0),
            ("slow", 2.5),
            ("fast", 3.0),
            ("slow", 5.0),
            ("slow", 7.5),
        ]

    def test_invalid_yield_type_raises(self):
        sim = Simulator()

        def bad():
            yield "soon"

        sim.spawn(bad())
        with pytest.raises(TypeError):
            sim.run()


class TestSkippingAWait:
    def test_next_event_time_is_the_earliest_live_event(self):
        sim = Simulator()
        assert sim.next_event_time() == math.inf
        early = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        assert sim.next_event_time() == 1.0
        sim.cancel(early)
        assert sim.next_event_time() == 2.0
        assert sim.pending_events == 1

    def test_next_event_time_is_capped_at_until(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(sim.next_event_time()))
        sim.call_at(3.0, lambda: None)
        sim.run(until=1.5)
        assert seen == [1.5]
        # No run is active any more: the cap is gone.
        assert sim.next_event_time() == 3.0

    def test_at_resumes_on_the_exact_instant(self):
        sim = Simulator()
        target = 0.0
        for _ in range(10):
            target += 0.001
        times = []

        def process():
            yield At(target)
            times.append(sim.now)
            yield At(0.0)

        sim.spawn(process())
        with pytest.raises(ValueError):
            sim.run()
        # Ten 1 ms steps, added one at a time, overshoot 0.01 by one ULP.
        assert times == [target] and target != 0.01

    def test_park_waits_for_an_in_place_resume(self):
        sim = Simulator()
        log = []

        def process():
            log.append(("parked", sim.now))
            yield PARK
            log.append(("resumed", sim.now))

        resume = sim.spawn(process())
        sim.run()
        assert log == [("parked", 0.0)] and sim.pending_events == 0
        sim.call_at(2.0, lambda: (resume(), log.append(("after", sim.now))))
        sim.run()
        assert log == [("parked", 0.0), ("resumed", 2.0), ("after", 2.0)]


class TestClose:
    """``close`` ends a run: every suspended process is closed where it
    waits and every pending event is dropped."""

    def test_close_ends_a_parked_and_a_sleeping_process(self):
        sim = Simulator()
        log = []

        def parked():
            log.append("parked")
            yield PARK
            log.append("resumed")

        def sleeper():
            yield 5.0
            log.append("woke")

        processes = [parked(), sleeper()]
        resume = sim.spawn(processes[0])
        sim.spawn(processes[1])
        sim.run(until=1.0)
        sim.close()
        assert [p.gi_frame for p in processes] == [None, None]  # closed
        resume()  # resuming a closed process does nothing
        sim.run()
        assert log == ["parked"] and sim.now == 1.0

    def test_close_drops_pending_events(self):
        sim = Simulator()
        fired = []
        event = sim.call_in(1.0, lambda: fired.append(True))
        sim.close()
        assert sim.pending_events == 0
        assert event_state.cancelled(event)
        sim.cancel(event)  # still a no-op
        assert sim.run() == 0.0 and not fired

    def test_a_second_close_does_nothing(self):
        sim = Simulator()

        def process():
            yield PARK

        sim.spawn(process())
        sim.call_in(1.0, lambda: None)
        sim.close()
        sim.close()
        assert sim.pending_events == 0 and sim.now == 0.0

    def test_processes_leave_no_reference_cycle(self):
        sim = Simulator()

        def finished():
            yield 1.0

        def parked():
            yield PARK

        sim.spawn(finished())
        sim.spawn(parked())
        gc.collect()
        gc.disable()
        try:
            sim.run()
            sim.close()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSignals:
    def test_process_waits_for_signal(self):
        sim = Simulator()
        signal = Signal("test")
        log = []

        def waiter():
            payload = yield signal
            log.append((sim.now, payload))

        sim.spawn(waiter())
        sim.call_in(4.0, lambda: signal.fire("hello"))
        sim.run()
        assert log == [(4.0, "hello")]

    def test_multiple_waiters_all_resume(self):
        sim = Simulator()
        signal = Signal()
        resumed = []

        def waiter(name):
            yield signal
            resumed.append(name)

        sim.spawn(waiter("a"))
        sim.spawn(waiter("b"))
        sim.call_in(1.0, signal.fire)
        sim.run()
        assert sorted(resumed) == ["a", "b"]

    def test_waiting_on_fired_signal_resumes_immediately(self):
        sim = Simulator()
        signal = Signal()
        signal.fire("done")
        log = []

        def waiter():
            payload = yield signal
            log.append(payload)

        sim.spawn(waiter())
        sim.run()
        assert log == ["done"]

    def test_double_fire_is_noop(self):
        signal = Signal()
        signal.fire("first")
        signal.fire("second")
        assert signal.payload == "first"


class TestRandomStreams:
    def test_streams_are_stable_per_name(self):
        streams = RandomStreams(7)
        a = streams.stream("loadgen")
        b = streams.stream("loadgen")
        assert a is b

    def test_streams_independent_across_names(self):
        streams = RandomStreams(7)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not (a == b).all()

    def test_reproducible_across_instances(self):
        a = RandomStreams(7).stream("x").random(5)
        b = RandomStreams(7).stream("x").random(5)
        assert (a == b).all()

    def test_fork_changes_streams(self):
        base = RandomStreams(7)
        forked = base.fork(1)
        a = base.stream("x").random(5)
        b = forked.stream("x").random(5)
        assert not (a == b).all()


class TestEventCancellation:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        log = []
        handle = sim.call_in(1.0, lambda: log.append("cancelled"))
        sim.call_in(2.0, lambda: log.append("kept"))
        sim.cancel(handle)
        sim.run()
        assert log == ["kept"]

    def test_cancelled_event_does_not_extend_run(self):
        """A cancelled timer must not advance the clock to its deadline."""
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        handle = sim.call_in(100.0, lambda: None)
        sim.cancel(handle)
        assert sim.run() == 1.0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.call_in(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.call_in(1.0, lambda: fired.append(True))
        sim.run()
        sim.cancel(handle)
        assert fired == [True]
        # The accounting must not go negative: a later event still counts.
        sim.call_in(1.0, lambda: None)
        assert sim.pending_events == 1

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.call_in(1.0, lambda: None)
        drop = sim.call_in(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.cancel(drop)
        assert sim.pending_events == 1
        assert event_state.cancelled(keep) is False

    def test_cancel_releases_callback(self):
        sim = Simulator()
        handle = sim.call_in(1.0, lambda: None)
        sim.cancel(handle)
        assert handle[2] is None  # the callback slot
