"""Algorithm 2 — the backpressure-aware load generator.

Operates in one-second ticks. Each tick sends ``r_c = TIMEPROP_RAMPUP(...)``
requests, evenly spread over the tick. A pending-request counter implements
backpressure: whenever ``pending >= r_c`` the generator pauses in
one-millisecond steps instead of piling more load onto a struggling server,
moving on to the next tick when the current one runs out of time. This lets
experiments terminate gracefully and reveals the throughput threshold where
a deployment stops keeping up — the paper's design goal for overload
handling.

Requests replay synthetic sessions in order (next click only after the
previous response, via :class:`~repro.loadgen.session_replay.SessionReplayQueue`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np

from repro.loadgen.rampup import timeprop_rampup
from repro.loadgen.retry import RetryPolicy
from repro.loadgen.session_replay import SessionReplayQueue
from repro.metrics.collector import MetricsCollector
from repro.serving.request import (
    HTTP_GATEWAY_TIMEOUT,
    RecommendationRequest,
    RecommendationResponse,
)
from repro.simulation import At, Simulator

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry

SubmitFn = Callable[[RecommendationRequest, Callable[[RecommendationResponse], None]], None]


class _Call:
    """One logical request's client state, across all its attempts and
    hedges: one settle, plus the cancellable timers covering it.

    Its bound methods are the callbacks the request hands out (response,
    timeout and hedge), so no callback refers to itself: a settled call
    holds no reference cycle and is freed by reference counting.
    """

    __slots__ = (
        "generator", "request", "session_id", "sent_at", "root_span",
        "done", "attempt", "hedged", "timeout", "hedge", "hedge_span",
    )

    def __init__(self, generator, request, session_id, sent_at, root_span):
        self.generator = generator
        self.request = request
        self.session_id = session_id
        self.sent_at = sent_at
        self.root_span = root_span
        self.done = False
        self.attempt = 0
        self.hedged = False
        self.timeout = None
        self.hedge = None
        self.hedge_span = None

    def _cancel_timers(self) -> None:
        """Cancel the pending timeout and hedge timers."""
        simulator = self.generator.simulator
        if self.timeout is not None:
            simulator.cancel(self.timeout)
            self.timeout = None
        if self.hedge is not None:
            simulator.cancel(self.hedge)
            self.hedge = None

    def _settle_spans(self, status: int) -> None:
        """Finish the open hedge span with the final status."""
        self.hedge_span.finish(status=status)
        self.hedge_span = None

    def on_response(self, response: RecommendationResponse) -> None:
        if self.done:
            return  # the client already settled; connection is gone
        generator = self.generator
        policy = generator.retry_policy
        if (
            policy is not None
            and policy.retryable(response.status)
            and self.attempt < policy.max_retries
        ):
            generator._schedule_retry(self, response)
            return
        self.done = True
        if self.timeout is not None or self.hedge is not None:
            self._cancel_timers()
        generator.pending -= 1
        sent_at = self.sent_at
        if policy is not None and self.attempt > 0:
            if response.ok:
                generator.retry_successes += 1
            elif policy.retryable(response.status):
                generator.retry_exhausted += 1
            # End-to-end latency spans all attempts, not just the last
            # wire exchange (the service stamps from first send, but a
            # bare-server submit target may not).
            response.latency_s = response.completed_at - sent_at
        generator.collector.record(sent_at, response)
        if self.root_span is not None:
            attrs = {}
            if self.attempt:
                attrs["retries"] = self.attempt
            if self.hedged:
                attrs["hedged"] = True
            self.root_span.finish(
                status=response.status,
                batch_size=response.batch_size,
                **attrs,
            )
        if self.hedge_span is not None:
            self._settle_spans(response.status)
        generator.sessions.complete(self.session_id)

    def on_timeout(self) -> None:
        if self.done:
            return
        self.done = True
        self.timeout = None
        if self.hedge is not None:
            self._cancel_timers()
        generator = self.generator
        generator.pending -= 1
        generator.timeouts += 1
        if self.root_span is not None:
            self.root_span.finish(status=HTTP_GATEWAY_TIMEOUT)
        if self.hedge_span is not None:
            self._settle_spans(HTTP_GATEWAY_TIMEOUT)
        now = generator.simulator.now
        sent_at = self.sent_at
        generator.collector.record(
            sent_at,
            RecommendationResponse(
                request_id=self.request.request_id,
                status=HTTP_GATEWAY_TIMEOUT,
                completed_at=now,
                latency_s=now - sent_at,
            ),
        )
        # The visitor moved on; the session continues regardless.
        generator.sessions.complete(self.session_id)

    def on_hedge(self) -> None:
        self.generator._send_hedge(self)


class LoadGenerator:
    """Replays sessions against a submit() target inside the simulator."""

    #: Backpressure poll interval (Algorithm 2 line 12: "wait 1 millisecond").
    BACKPRESSURE_WAIT_S = 0.001

    def __init__(
        self,
        simulator: Simulator,
        submit: SubmitFn,
        session_source: Iterator[np.ndarray],
        target_rps: float,
        duration_s: float,
        collector: Optional[MetricsCollector] = None,
        schedule=None,
        request_timeout_s: Optional[float] = None,
        telemetry: Optional["Telemetry"] = None,
        retry_policy: Optional[RetryPolicy] = None,
        retry_rng: Optional[np.random.Generator] = None,
        slo_deadline_s: Optional[float] = None,
    ):
        self.simulator = simulator
        self.submit = submit
        self.sessions = SessionReplayQueue(session_source)
        self.target_rps = float(target_rps)
        self.duration_s = float(duration_s)
        self.collector = collector or MetricsCollector()
        if schedule is None:
            from repro.loadgen.schedules import RampSchedule

            schedule = RampSchedule(self.target_rps)
        self.schedule = schedule

        #: Optional client-side timeout: give up waiting after this long
        #: (late responses are dropped, like a closed HTTP connection).
        self.request_timeout_s = request_timeout_s
        #: Optional retry/hedging behaviour; ``None`` = every error is
        #: terminal (the pre-resilience client). Jitter draws come from
        #: ``retry_rng`` (a dedicated seeded stream) and only when a retry
        #: actually fires, so a failure-free run stays bit-identical.
        self.retry_policy = retry_policy
        self.retry_rng = retry_rng
        #: Per-request SLO: each request is stamped with an absolute
        #: ``deadline_s = sent_at + slo_deadline_s`` so deadline-aware
        #: admission control downstream can shed doomed work. ``None`` =
        #: no deadline stamped (the paper's client).
        self.slo_deadline_s = slo_deadline_s
        self.pending = 0
        self.sent = 0
        self.backpressure_stalls = 0
        self.timeouts = 0
        #: Resilience tallies (wire-level extras beyond ``sent``).
        self.retries = 0
        self.hedges = 0
        self.retry_successes = 0
        self.retry_exhausted = 0
        self._next_request_id = 0
        self.finished = False

        #: Optional telemetry handle; None = zero instrumentation overhead.
        self.telemetry = telemetry
        if telemetry is not None:
            metrics = telemetry.metrics
            metrics.gauge(
                "loadgen_pending", fn=lambda: self.pending, unit="requests",
                help="in-flight requests awaiting a response or timeout",
            )
            metrics.counter(
                "loadgen_sent_total", fn=lambda: self.sent, unit="requests",
                help="requests handed to the submit target",
            )
            metrics.counter(
                "loadgen_timeouts_total", fn=lambda: self.timeouts,
                unit="requests",
                help="requests abandoned client-side after request_timeout_s",
            )
            metrics.counter(
                "loadgen_backpressure_stalls_total",
                fn=lambda: self.backpressure_stalls, unit="stalls",
                help="1 ms backpressure pauses (Algorithm 2 line 12)",
            )
            if retry_policy is not None:
                metrics.counter(
                    "loadgen_retries_total", fn=lambda: self.retries,
                    unit="requests",
                    help="retry attempts after a retryable error response",
                )
                metrics.counter(
                    "loadgen_hedges_total", fn=lambda: self.hedges,
                    unit="requests",
                    help="hedged duplicate requests sent after hedge_after_s",
                )
                metrics.counter(
                    "loadgen_retry_exhausted_total",
                    fn=lambda: self.retry_exhausted, unit="requests",
                    help="requests that stayed failed after the retry budget",
                )

    def start(self) -> None:
        self.simulator.spawn(self._run())

    # -- request plumbing ---------------------------------------------------

    def _send_one(self) -> None:
        session_id, prefix = self.sessions.next_click()
        sent_at = self.simulator.now
        request = RecommendationRequest(
            request_id=self._next_request_id,
            session_id=session_id,
            session_items=prefix,
            sent_at=sent_at,
            deadline_s=(
                None
                if self.slo_deadline_s is None
                else sent_at + self.slo_deadline_s
            ),
        )
        self._next_request_id += 1
        self.pending += 1
        self.sent += 1
        self.collector.note_sent(sent_at)

        root_span = None
        if self.telemetry is not None:
            root_span = self.telemetry.trace.begin(
                "request", request.request_id, session_id=int(session_id)
            )
        call = _Call(self, request, session_id, sent_at, root_span)
        if self.request_timeout_s is not None:
            call.timeout = self.simulator.call_in(
                self.request_timeout_s, call.on_timeout
            )
        policy = self.retry_policy
        if policy is not None and policy.hedge_after_s is not None:
            call.hedge = self.simulator.call_in(
                policy.hedge_after_s, call.on_hedge
            )

        self.submit(request, call.on_response)

    # -- resilience plumbing ------------------------------------------------

    def _schedule_retry(self, call: _Call, response: RecommendationResponse) -> None:
        """Resubmit ``call``'s request after the policy's (jittered) backoff."""
        call.attempt += 1
        attempt = call.attempt
        self.retries += 1
        delay = self.retry_policy.backoff_s(attempt, self.retry_rng)
        backoff_span = None
        if self.telemetry is not None:
            backoff_span = self.telemetry.trace.begin(
                "retry_backoff",
                call.request.request_id,
                attempt=attempt,
                status=response.status,
            )

        def resend() -> None:
            if call.done:
                return  # the client timeout fired mid-backoff
            if backoff_span is not None:
                backoff_span.finish()
            # Same request object: ``sent_at`` stays at the first attempt,
            # so delivered latencies remain end-to-end across retries. The
            # ClusterIP rotation advances per submit, so the retry lands on
            # the next pod rather than hammering the crashed one.
            self.submit(call.request, call.on_response)

        self.simulator.call_in(delay, resend)

    def _send_hedge(self, call: _Call) -> None:
        """Send one duplicate of a slow request; first response settles."""
        if call.done or call.hedged:
            return
        call.hedged = True
        call.hedge = None
        self.hedges += 1
        request = call.request
        hedge = RecommendationRequest(
            request_id=self._next_request_id,
            session_id=request.session_id,
            session_items=request.session_items,
            sent_at=request.sent_at,
            # The hedge races the original under the same SLO clock.
            deadline_s=request.deadline_s,
        )
        self._next_request_id += 1
        if self.telemetry is not None:
            call.hedge_span = self.telemetry.trace.begin(
                "request",
                hedge.request_id,
                session_id=int(request.session_id),
                hedge_of=request.request_id,
            )
        self.submit(hedge, call.on_response)

    # -- Algorithm 2 main loop -----------------------------------------------

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
                    now = self.simulator.now
                    if now >= tick_end or now >= deadline:
                        stalled = True
                        break
                    # Only a response or a client timeout changes
                    # ``pending``, and each arrives as an event: the polls
                    # strictly before the next due event, the tick end and
                    # the deadline would each find the same backlog and
                    # stall again. Count them and resume at the first poll
                    # that could see a change, on the float the 1 ms steps
                    # would reach.
                    bound = min(self.simulator.next_event_time(), tick_end, deadline)
                    wait_s = self.BACKPRESSURE_WAIT_S
                    stalls = 1
                    poll = now + wait_s
                    while poll < bound:
                        stalls += 1
                        poll += wait_s
                    self.backpressure_stalls += stalls
                    yield At(poll)
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
