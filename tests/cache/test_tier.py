"""Cache config grammar, session-prefix keys, tiers, and singleflight."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import SessionKeyer, prefix_tuple
from repro.cache.policy import MISSING
from repro.cache.tier import CacheConfig, RecommendationCache, RemoteCacheTier


class TestCacheConfigGrammar:
    def test_defaults(self):
        config = CacheConfig.parse("")
        assert config == CacheConfig()
        assert config.enabled

    def test_full_spec(self):
        config = CacheConfig.parse(
            "lfu,capacity=512,window=4,ttl=30,remote=65536,rttl=120"
        )
        assert config.policy == "lfu"
        assert config.capacity == 512
        assert config.window == 4
        assert config.ttl_s == 30.0
        assert config.remote_capacity == 65536
        assert config.remote_ttl_s == 120.0

    def test_bare_policy_name(self):
        assert CacheConfig.parse("segmented").policy == "segmented"

    @pytest.mark.parametrize(
        "text",
        ["arc", "capacity=-1", "window=0", "ttl=-5", "size=10", "policy=weird"],
    )
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(ValueError):
            CacheConfig.parse(text)

    @pytest.mark.parametrize(
        "text",
        ["", "lfu", "segmented,capacity=9,window=3", "ttl=0,remote=100,rttl=0"],
    )
    def test_spec_string_round_trips(self, text):
        config = CacheConfig.parse(text)
        assert CacheConfig.parse(config.spec_string()) == config

    @pytest.mark.parametrize("text, message", [
        ("cap=3",
         "unknown cache spec key 'cap'; "
         "known: ['capacity', 'policy', 'remote', 'rttl', 'ttl', 'window']"),
        ("mru", "unknown cache policy 'mru'; choose from lru, lfu, segmented"),
        ("policy=mru", "unknown cache policy 'mru'; choose from lru, lfu, segmented"),
        ("capacity=x", "invalid literal for int() with base 10: 'x'"),
        ("ttl=x", "could not convert string to float: 'x'"),
    ])
    def test_exact_messages(self, text, message):
        with pytest.raises(ValueError) as info:
            CacheConfig.parse(text)
        assert str(info.value) == message

    def test_spec_string_skips_defaults(self):
        assert CacheConfig().spec_string() == "lru"
        assert CacheConfig.parse("policy=lfu,rttl=30,capacity=9").spec_string() == (
            "lfu,capacity=9,rttl=30"
        )

    def test_zero_capacity_both_tiers_is_disabled(self):
        assert not CacheConfig(capacity=0).enabled
        assert CacheConfig(capacity=0, remote_capacity=8).enabled
        assert CacheConfig(capacity=8, remote_capacity=0).enabled


class TestSessionPrefixKeys:
    def test_key_is_last_window_clicks(self):
        assert prefix_tuple([1, 2, 3, 4, 5], window=3) == (3, 4, 5)
        assert prefix_tuple([1, 2], window=8) == (1, 2)
        assert prefix_tuple(np.array([7, 8, 9], dtype=np.int64), window=2) == (8, 9)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.int32, np.int64, None]),
        clicks=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=40),
    )
    def test_integer_prefixes_are_plain_ints(self, data, dtype, clicks):
        """Integer arrays and lists key exactly as an ``int()`` per click did."""
        session = clicks if dtype is None else np.asarray(clicks, dtype=dtype)
        window = data.draw(st.integers(1, len(clicks) + 2))
        items = np.asarray(session).reshape(-1)
        tail = items[-window:] if items.shape[0] > window else items
        key = prefix_tuple(session, window)
        assert key == tuple(int(item) for item in tail)
        assert all(type(item) is int for item in key)

    def test_same_suffix_same_key(self):
        """Sessions that diverge before the window share one cache entry."""
        keyer = SessionKeyer("v1", window=2)
        assert keyer.key_for([1, 2, 9, 10]) == keyer.key_for([5, 6, 9, 10])
        assert keyer.key_for([9, 10]) == keyer.key_for([1, 2, 9, 10])

    def test_version_scopes_the_key(self):
        """Redeploying a new artifact must change every key."""
        keyer = SessionKeyer("models/gru-v1.pt", window=4)
        before = keyer.key_for([1, 2, 3])
        keyer.set_version("models/gru-v2.pt")
        assert keyer.key_for([1, 2, 3]) != before


class TestRecommendationCache:
    def make(self, **overrides):
        config = CacheConfig(**{"capacity": 8, "window": 4, **overrides})
        return RecommendationCache(config, version="v1")

    def test_requires_enabled_config(self):
        with pytest.raises(ValueError):
            RecommendationCache(CacheConfig(capacity=0), version="v1")

    def test_fill_then_hit(self):
        cache = self.make()
        key = cache.key_for([1, 2, 3])
        assert cache.lookup_local(key, 0.0) is MISSING
        cache.fill(key, "answer", 0.0)
        assert cache.lookup_local(key, 1.0) == "answer"
        assert cache.hits_local == 1 and cache.fills == 1

    def test_cached_none_is_a_hit(self):
        """Latency-only runs cache None recommendations; None != MISSING."""
        cache = self.make()
        key = cache.key_for([1, 2])
        cache.fill(key, None, 0.0)
        assert cache.lookup_local(key, 0.0) is None
        assert cache.hits_local == 1

    def test_redeploy_invalidates(self):
        cache = self.make()
        key = cache.key_for([1, 2, 3])
        cache.fill(key, "stale", 0.0)
        cache.set_version("v2")
        assert cache.lookup_local(cache.key_for([1, 2, 3]), 0.0) is MISSING

    def test_singleflight_accounting(self):
        cache = self.make()
        key = cache.key_for([4, 5, 6])
        assert not cache.flight_exists(key)
        cache.begin_flight(key)
        assert cache.flight_exists(key) and cache.in_flight() == 1
        cache.join_flight(key, ("req-a", "respond-a", 1.0))
        cache.join_flight(key, ("req-b", "respond-b", 2.0))
        waiters = cache.finish_flight(key)
        assert [w[0] for w in waiters] == ["req-a", "req-b"]
        assert not cache.flight_exists(key)
        assert cache.misses == 1 and cache.coalesced == 2

    def test_hit_rate_ignores_coalesced(self):
        cache = self.make()
        key = cache.key_for([1])
        cache.begin_flight(key)
        cache.join_flight(key, ("r", "cb", 0.0))
        cache.fill(key, "x", 0.0)
        cache.lookup_local(key, 0.0)
        assert cache.lookups == 2  # one miss + one hit; follower not counted
        assert cache.hit_rate() == 0.5

    def test_stats_keys_are_stable(self):
        stats = self.make().stats()
        assert set(stats) == {
            "hits_local", "hits_remote", "misses", "fills",
            "coalesced", "evictions", "expirations",
        }


class TestRemoteTier:
    def test_shared_store_and_backfill_accounting(self):
        config = CacheConfig(capacity=4, remote_capacity=64)
        remote = RemoteCacheTier(config)
        pod_a = RecommendationCache(config, version="v1", remote=remote)
        pod_b = RecommendationCache(config, version="v1", remote=remote)
        key = pod_a.key_for([1, 2, 3])
        pod_a.fill(key, "shared", 0.0)  # fills local A and the remote
        assert pod_b.lookup_local(key, 0.0) is MISSING
        assert pod_b.lookup_remote(key, 0.0) == "shared"
        assert pod_b.hits_remote == 1 and remote.hits == 1

    def test_remote_only_configuration(self):
        config = CacheConfig(capacity=0, remote_capacity=32)
        cache = RecommendationCache(
            config, version="v1", remote=RemoteCacheTier(config)
        )
        assert cache.local is None
        key = cache.key_for([1])
        cache.fill(key, "x", 0.0)
        assert cache.lookup_local(key, 0.0) is MISSING
        assert cache.lookup_remote(key, 0.0) == "x"

    def test_remote_requires_capacity(self):
        with pytest.raises(ValueError):
            RemoteCacheTier(CacheConfig(capacity=8, remote_capacity=0))
