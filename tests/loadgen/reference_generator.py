"""The load generator's main loop before the poll elision: one 1 ms
event per backpressure poll.

Kept verbatim as the reference that ``test_poll_elision_differential.py``
checks the production generator against, but for the stall counter's
``inc``: the counter now reads ``backpressure_stalls`` itself.
``ReferenceLoadGenerator`` overrides only ``_run``; everything else is the
production generator's.
It runs on ``tests/simulation/reference_simulator.py``;
``ReferenceSimulator`` adds the production ``cancel`` call on top, which
the production request plumbing uses for its client timeouts.
"""

from repro.loadgen.generator import LoadGenerator
from tests.simulation import reference_simulator


class ReferenceSimulator(reference_simulator.Simulator):
    def cancel(self, handle) -> None:
        handle.cancel()


class ReferenceLoadGenerator(LoadGenerator):
    def _run(self):
        started_at = self.simulator.now
        deadline = started_at + self.duration_s
        while self.simulator.now < deadline:
            tick_start = self.simulator.now
            tick_end = tick_start + 1.0
            r_c = self.schedule.rate_at(tick_start - started_at, self.duration_s)

            sent_this_tick = 0
            while sent_this_tick < r_c and self.simulator.now < tick_end:
                # Backpressure: don't exceed r_c requests in flight.
                stalled = False
                while self.pending >= r_c:
                    if self.simulator.now >= tick_end or self.simulator.now >= deadline:
                        stalled = True
                        break
                    self.backpressure_stalls += 1
                    yield self.BACKPRESSURE_WAIT_S
                if stalled or self.simulator.now >= deadline:
                    break
                self._send_one()
                sent_this_tick += 1
                # Evenly spread the remaining sends over the rest of the tick.
                remaining_sends = r_c - sent_this_tick
                if remaining_sends > 0:
                    time_left = tick_end - self.simulator.now
                    if time_left > 0:
                        yield time_left / (remaining_sends + 1)
            if self.simulator.now < tick_end:
                yield tick_end - self.simulator.now
        self.finished = True
