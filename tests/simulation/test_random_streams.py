"""Direct unit coverage for ``simulation/random_streams.py``.

The load-bearing property is *stream isolation*: drawing from one named
stream never perturbs another. That is what keeps experiment results
stable when actors are added or events reorder — and, since the parallel
execution backend re-derives each run's streams in worker processes, it
is also what makes serial and mp sweeps bit-identical.

The block-drawn :class:`LognormalJitter` must return, draw for draw, what
scalar ``Generator.lognormal(0.0, sigma)`` calls return on the same
stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import LognormalJitter, RandomStreams


def draws(streams, name, n=8):
    return streams.stream(name).random(n).tolist()


class TestDeterminism:
    def test_same_seed_same_streams(self):
        assert draws(RandomStreams(7), "workload") == draws(
            RandomStreams(7), "workload"
        )

    def test_different_seeds_differ(self):
        assert draws(RandomStreams(7), "workload") != draws(
            RandomStreams(8), "workload"
        )

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        assert draws(streams, "a") != draws(streams, "b")

    def test_stream_is_stable_across_calls(self):
        streams = RandomStreams(7)
        assert streams.stream("cluster") is streams.stream("cluster")

    def test_seed_property(self):
        assert RandomStreams(123).seed == 123


class TestIsolation:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        interleaved=st.lists(
            st.sampled_from(["cluster", "network", "retry"]),
            max_size=6,
        ),
    )
    def test_drawing_from_one_stream_never_perturbs_another(
        self, seed, interleaved
    ):
        # Baseline: only the observed stream is consumed.
        baseline = draws(RandomStreams(seed), "workload")
        # Perturbed: arbitrary other streams are consumed first and
        # in between — the observed stream must not notice.
        streams = RandomStreams(seed)
        for name in interleaved:
            streams.stream(name).random(3)
        first_half = streams.stream("workload").random(4).tolist()
        for name in reversed(interleaved):
            streams.stream(name).integers(0, 100, 5)
        second_half = streams.stream("workload").random(4).tolist()
        assert first_half + second_half == baseline

    def test_creation_order_does_not_matter(self):
        forward = RandomStreams(42)
        backward = RandomStreams(42)
        forward.stream("a"), forward.stream("b")
        backward.stream("b"), backward.stream("a")
        assert draws(forward, "a") == draws(backward, "a")
        assert draws(forward, "b") == draws(backward, "b")


class TestFork:
    def test_fork_is_deterministic(self):
        assert draws(RandomStreams(7).fork(3), "cluster") == draws(
            RandomStreams(7).fork(3), "cluster"
        )

    def test_fork_salts_differ(self):
        parent = RandomStreams(7)
        assert draws(parent.fork(1), "cluster") != draws(
            parent.fork(2), "cluster"
        )

    def test_fork_is_independent_of_parent_consumption(self):
        # Hermeticity: a fork derives from the parent's *seed*, not its
        # stream state, so however much the parent consumed beforehand,
        # the forked family is identical. The parallel execution backend
        # relies on this — a worker process re-derives a run's streams
        # without replaying the parent's history (docs/parallelism.md).
        fresh = RandomStreams(7)
        consumed = RandomStreams(7)
        consumed.stream("cluster").random(100)
        consumed.stream("workload").random(100)
        assert draws(consumed.fork(5), "cluster") == draws(
            fresh.fork(5), "cluster"
        )

    def test_forks_do_not_collide_with_parent_streams(self):
        parent = RandomStreams(7)
        assert draws(parent.fork(0), "cluster") != draws(parent, "cluster")


BLOCK = LognormalJitter.BLOCK

#: The sigmas the program draws with (device noise, network legs, Actix
#: and TorchServe overheads), zero, and arbitrary ones up to where exp
#: overflows to inf.
sigmas = st.one_of(
    st.sampled_from([0.0, 0.08, 0.3, 0.35, 0.45]),
    st.floats(min_value=0.0, max_value=1000.0),
)


class TestLognormalJitter:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        length=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK]),
        pattern=st.lists(sigmas, min_size=1, max_size=8),
    )
    def test_draws_equal_scalar_lognormal(self, seed, length, pattern):
        jitter = LognormalJitter(np.random.default_rng(seed))
        reference = np.random.default_rng(seed)
        for index in range(length):
            sigma = pattern[index % len(pattern)]
            expected = float(reference.lognormal(0.0, sigma))
            assert jitter.draw(sigma) == expected, (index, sigma)

    @pytest.mark.parametrize("sigma", [-0.1, -0.0, -np.inf])
    def test_negative_sigma_raises_and_draws_nothing(self, sigma):
        jitter = LognormalJitter(np.random.default_rng(3))
        with pytest.raises(ValueError, match="sigma < 0"):
            np.random.default_rng(3).lognormal(0.0, sigma)
        with pytest.raises(ValueError, match="sigma < 0"):
            jitter.draw(sigma)
        assert jitter.draw(0.3) == float(
            np.random.default_rng(3).lognormal(0.0, 0.3)
        )
