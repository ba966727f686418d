"""Client retries with backoff, hedged requests, and their determinism."""

import numpy as np
import pytest

from repro.loadgen import LoadGenerator, RetryPolicy
from repro.metrics.collector import MetricsCollector
from repro.serving.request import (
    HTTP_OK,
    HTTP_SERVICE_UNAVAILABLE,
    RecommendationResponse,
)
from repro.simulation import Simulator


def sessions():
    while True:
        yield np.array([1, 2, 3], dtype=np.int64)


class ScriptedServer:
    """Answers 503 for the first ``failures_per_request`` submits of each
    logical request id, then 200 after ``delay_s``."""

    def __init__(self, simulator, failures_per_request=0, delay_s=0.002):
        self.simulator = simulator
        self.failures_per_request = failures_per_request
        self.delay_s = delay_s
        self.attempts = {}

    def submit(self, request, respond):
        seen = self.attempts.get(request.request_id, 0)
        self.attempts[request.request_id] = seen + 1
        status = (
            HTTP_SERVICE_UNAVAILABLE
            if seen < self.failures_per_request
            else HTTP_OK
        )

        def reply():
            respond(
                RecommendationResponse(
                    request_id=request.request_id,
                    status=status,
                    completed_at=self.simulator.now,
                    latency_s=self.simulator.now - request.sent_at,
                )
            )

        self.simulator.call_in(self.delay_s, reply)


def run(server_factory, policy=None, target_rps=20, duration_s=5,
        timeout_s=None, seed=0):
    sim = Simulator()
    server = server_factory(sim)
    collector = MetricsCollector()
    generator = LoadGenerator(
        sim, server.submit, sessions(), target_rps=target_rps,
        duration_s=duration_s, collector=collector,
        request_timeout_s=timeout_s, retry_policy=policy,
        retry_rng=np.random.default_rng(seed) if policy else None,
    )
    generator.start()
    sim.run()
    return generator, collector, server


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_s=0.1, multiplier=2.0,
                             max_backoff_s=0.5, jitter=0.0)
        delays = [policy.backoff_s(n) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_only_shrinks_and_is_deterministic(self):
        policy = RetryPolicy(base_backoff_s=0.1, jitter=0.5)
        a = [policy.backoff_s(1, np.random.default_rng(7)) for _ in range(3)]
        b = [policy.backoff_s(1, np.random.default_rng(7)) for _ in range(3)]
        assert a == b
        assert all(0.05 <= delay <= 0.1 for delay in a)

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_backoff_s=0.1, jitter=0.5)
        assert policy.backoff_s(1, None) == 0.1

    def test_parse_round_trip(self):
        policy = RetryPolicy.parse("max=5,base=0.02,cap=2,mult=3,jitter=0.1,hedge=0.25")
        assert policy.max_retries == 5
        assert policy.hedge_after_s == 0.25
        assert RetryPolicy.parse(policy.spec_string()) == policy

    def test_empty_spec_is_defaults(self):
        assert RetryPolicy.parse("") == RetryPolicy()

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError):
            RetryPolicy.parse("max")
        with pytest.raises(ValueError):
            RetryPolicy.parse("nope=3")
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    @pytest.mark.parametrize("text, message", [
        ("nope=3",
         "unknown retry spec key 'nope'; "
         "known: ['base', 'cap', 'hedge', 'jitter', 'max', 'mult']"),
        ("max", "bad retry spec item 'max'; expected key=value"),
        ("max=x", "invalid literal for int() with base 10: 'x'"),
        ("base=x", "could not convert string to float: 'x'"),
    ])
    def test_exact_messages(self, text, message):
        with pytest.raises(ValueError) as info:
            RetryPolicy.parse(text)
        assert str(info.value) == message

    def test_spec_string_writes_every_set_key(self):
        assert RetryPolicy().spec_string() == (
            "max=3,base=0.05,cap=1,mult=2,jitter=0.5"
        )
        assert RetryPolicy(hedge_after_s=0.2).spec_string().endswith(",hedge=0.2")
        assert RetryPolicy(base_backoff_s=0.0333333333).spec_string() == (
            "max=3,base=0.0333333333,cap=1,mult=2,jitter=0.5"
        )

    def test_retryable_statuses(self):
        policy = RetryPolicy()
        assert policy.retryable(HTTP_SERVICE_UNAVAILABLE)
        assert not policy.retryable(HTTP_OK)


class TestGeneratorRetries:
    def test_transient_503s_recover(self):
        generator, collector, server = run(
            lambda sim: ScriptedServer(sim, failures_per_request=1),
            policy=RetryPolicy(max_retries=3, base_backoff_s=0.01, jitter=0.0),
        )
        assert collector.errors == 0
        assert generator.retries == generator.sent
        assert generator.retry_successes == generator.sent
        assert generator.retry_exhausted == 0

    def test_latency_spans_all_attempts(self):
        """Recorded latency covers backoff + retry, not just the last wire
        exchange."""
        _g, collector, _s = run(
            lambda sim: ScriptedServer(sim, failures_per_request=1, delay_s=0.001),
            policy=RetryPolicy(max_retries=1, base_backoff_s=0.05, jitter=0.0),
            target_rps=5, duration_s=2,
        )
        # reply(1ms) + backoff(50ms) + reply(1ms) ~= 52 ms end to end.
        assert collector.percentile_ms(50) > 40.0

    def test_budget_exhausts_against_hard_outage(self):
        policy = RetryPolicy(max_retries=2, base_backoff_s=0.01, jitter=0.0)
        generator, collector, server = run(
            lambda sim: ScriptedServer(sim, failures_per_request=99),
            policy=policy,
        )
        assert collector.ok == 0
        assert collector.errors == generator.sent
        assert generator.retry_exhausted == generator.sent
        # Every request burned exactly 1 + max_retries attempts.
        assert all(n == 3 for n in server.attempts.values())

    def test_no_policy_means_terminal_errors(self):
        generator, collector, server = run(
            lambda sim: ScriptedServer(sim, failures_per_request=1),
        )
        assert collector.errors == generator.sent
        assert generator.retries == 0
        assert all(n == 1 for n in server.attempts.values())

    def test_requests_conserved_with_retries(self):
        generator, collector, _s = run(
            lambda sim: ScriptedServer(sim, failures_per_request=2),
            policy=RetryPolicy(max_retries=1, base_backoff_s=0.01, jitter=0.0),
        )
        assert collector.total == generator.sent
        assert generator.pending == 0

    def test_timeout_mid_backoff_settles_once(self):
        generator, collector, _s = run(
            lambda sim: ScriptedServer(sim, failures_per_request=99, delay_s=0.001),
            policy=RetryPolicy(max_retries=3, base_backoff_s=0.2, jitter=0.0),
            timeout_s=0.05,
        )
        assert generator.timeouts == generator.sent
        assert collector.total == generator.sent
        assert generator.pending == 0


class TestHedging:
    def test_hedge_settles_on_first_response(self):
        policy = RetryPolicy(max_retries=0, hedge_after_s=0.01)
        generator, collector, server = run(
            lambda sim: ScriptedServer(sim, delay_s=0.1), policy=policy,
            target_rps=5, duration_s=3,
        )
        assert generator.hedges > 0
        # One recorded outcome per logical request despite the duplicates.
        assert collector.total == generator.sent
        assert collector.errors == 0
        assert generator.pending == 0

    def test_fast_responses_send_no_hedges(self):
        policy = RetryPolicy(max_retries=0, hedge_after_s=0.5)
        generator, _c, server = run(
            lambda sim: ScriptedServer(sim, delay_s=0.001), policy=policy,
        )
        assert generator.hedges == 0
        # No duplicate wire requests either.
        assert all(n == 1 for n in server.attempts.values())


class TestRetryDeterminism:
    def _latencies(self, policy):
        captured = []

        def factory(sim):
            server = ScriptedServer(sim, failures_per_request=0, delay_s=0.003)
            real = server.submit

            def spying_submit(request, respond):
                def spy(response):
                    captured.append(response.latency_s)
                    respond(response)

                real(request, spy)

            server.submit = spying_submit
            return server

        run(factory, policy=policy)
        return captured

    def test_unused_policy_is_bit_identical_to_none(self):
        """With zero failures the retry machinery must not draw a single
        random number or move a single event: exact same latencies."""
        baseline = self._latencies(None)
        with_policy = self._latencies(
            RetryPolicy(max_retries=3, jitter=0.9)
        )
        assert baseline == with_policy
