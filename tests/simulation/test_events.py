"""Direct unit coverage for ``simulation/events.py`` and event
cancellation — Signal semantics and the O(1) cancelled-heap-entry
machinery the simulator's determinism rests on."""

from repro.simulation import Signal, Simulator
from tests.simulation import event_state


class TestSignal:
    def test_fire_resumes_all_waiters(self):
        signal = Signal("s")
        resumed = []
        signal.add_waiter(lambda: resumed.append("a"))
        signal.add_waiter(lambda: resumed.append("b"))
        signal.fire()
        assert resumed == ["a", "b"]
        assert signal.fired

    def test_waiter_added_after_fire_resumes_immediately(self):
        signal = Signal()
        signal.fire(payload=42)
        resumed = []
        signal.add_waiter(lambda: resumed.append(True))
        assert resumed == [True]

    def test_double_fire_is_a_noop_and_keeps_first_payload(self):
        signal = Signal()
        signal.fire(payload="first")
        signal.fire(payload="second")
        assert signal.payload == "first"

    def test_payload_delivered_to_yielding_process(self):
        sim = Simulator()
        signal = Signal("data")
        received = []

        def waiter():
            value = yield signal
            received.append(value)

        def firer():
            yield 1.0
            signal.fire(payload={"answer": 21})

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert received == [{"answer": 21}]

    def test_repr_shows_state(self):
        signal = Signal("named")
        assert "pending" in repr(signal)
        signal.fire()
        assert "fired" in repr(signal)


class TestEventCancellation:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        fired = []
        handle = sim.call_in(1.0, lambda: fired.append(True))
        sim.cancel(handle)
        sim.run()
        assert not fired

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.call_in(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        # Double-cancel must not double-count the dead heap entry —
        # pending_events would go negative and run() would mis-skip.
        assert sim._cancelled_events == 1
        assert sim.pending_events == 0
        sim.run()
        assert sim._cancelled_events == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        handle = sim.call_in(1.0, lambda: None)
        sim.run()
        assert event_state.fired(handle)
        sim.cancel(handle)
        assert not event_state.cancelled(handle)
        assert sim._cancelled_events == 0

    def test_cancelled_timer_does_not_advance_the_clock(self):
        sim = Simulator()
        fired_at = []
        sim.call_in(1.0, lambda: fired_at.append(sim.now))
        dead = sim.call_in(50.0, lambda: fired_at.append(sim.now))
        sim.cancel(dead)
        end = sim.run()
        # The dead timer is discarded without the clock ever reaching 50.
        assert fired_at == [1.0]
        assert end == 1.0

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        handles = [sim.call_in(float(i + 1), lambda: None) for i in range(4)]
        assert sim.pending_events == 4
        sim.cancel(handles[0])
        sim.cancel(handles[2])
        assert sim.pending_events == 2

    def test_cancel_releases_the_callback_closure(self):
        sim = Simulator()
        handle = sim.call_in(1.0, lambda: None)
        sim.cancel(handle)
        assert handle[2] is None  # the callback slot
