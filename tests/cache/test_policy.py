"""Property-based tests on the eviction policies.

Random op sequences drive each policy and the invariants every bounded
TTL-aware store must keep: capacity is never exceeded, expired entries
never come back, live entries within capacity are readable, and the
LRU/LFU victim-selection orders hold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policy import (
    MISSING,
    LFUPolicy,
    LRUPolicy,
    POLICIES,
    SegmentedPolicy,
    make_policy,
)

# A random op: (kind, key). Keys from a small space so collisions and
# re-puts actually happen; values derive from (key, op index).
ops = st.lists(
    st.tuples(st.sampled_from(["get", "put"]), st.integers(0, 30)),
    min_size=1,
    max_size=200,
)
capacities = st.integers(1, 12)
policy_names = st.sampled_from(POLICIES)


class TestBoundedStoreInvariants:
    @given(policy_names, capacities, ops)
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, name, capacity, sequence):
        policy = make_policy(name, capacity)
        now = 0.0
        for index, (kind, key) in enumerate(sequence):
            now += 0.25
            if kind == "put":
                policy.put(key, (key, index), now)
            else:
                policy.get(key, now)
            assert len(policy) <= capacity

    @given(policy_names, capacities, ops)
    @settings(max_examples=60, deadline=None)
    def test_get_returns_what_was_put_or_missing(self, name, capacity, sequence):
        """A hit always yields the latest value stored for that key."""
        policy = make_policy(name, capacity)
        latest = {}
        now = 0.0
        for index, (kind, key) in enumerate(sequence):
            now += 0.25
            if kind == "put":
                policy.put(key, (key, index), now)
                latest[key] = (key, index)
            else:
                value = policy.get(key, now)
                if value is not MISSING:
                    assert value == latest[key]

    @given(policy_names, ops)
    @settings(max_examples=40, deadline=None)
    def test_ttl_expiry_against_virtual_clock(self, name, sequence):
        """No entry is ever readable >= TTL after its last put."""
        ttl = 10.0
        policy = make_policy(name, capacity=64, ttl_s=ttl)
        stamps = {}
        now = 0.0
        for kind, key in sequence:
            now += 3.0
            if kind == "put":
                policy.put(key, key * 7, now)
                stamps[key] = now
            else:
                value = policy.get(key, now)
                if key in stamps and now - stamps[key] >= ttl:
                    assert value is MISSING
        # Far enough in the future, everything is expired.
        later = now + ttl
        for key in stamps:
            assert policy.get(key, later) is MISSING
        assert policy.expirations > 0 or not stamps

    @given(policy_names, capacities, ops)
    @settings(max_examples=40, deadline=None)
    def test_eviction_counter_matches_displacements(self, name, capacity, sequence):
        """Size-change accounting: every insertion is either still resident
        or shows up in the eviction counter (no TTL in play here)."""
        policy = make_policy(name, capacity)
        insertions = 0
        now = 0.0
        for kind, key in sequence:
            if kind != "put":
                continue
            now += 0.25
            if key not in policy._entries:
                insertions += 1
            policy.put(key, key, now)
        assert len(policy) + policy.evictions == insertions


class TestLRUOrdering:
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_survivors_are_most_recently_used(self, keys):
        """After any access pattern, the resident set is exactly the last
        ``capacity`` distinct keys touched."""
        capacity = 5
        policy = LRUPolicy(capacity)
        now = 0.0
        for key in keys:
            now += 1.0
            if policy.get(key, now) is MISSING:
                policy.put(key, key, now)
        expected = []
        for key in reversed(keys):
            if key not in expected:
                expected.append(key)
            if len(expected) == capacity:
                break
        for key in expected:
            assert policy.get(key, now) == key

    def test_eviction_order_is_least_recent_first(self):
        policy = LRUPolicy(3)
        for key in (1, 2, 3):
            policy.put(key, key, 0.0)
        policy.get(1, 1.0)  # 1 is now most recent; 2 is the LRU victim
        policy.put(4, 4, 2.0)
        assert policy.get(2, 3.0) is MISSING
        assert policy.get(1, 3.0) == 1


class TestLFUOrdering:
    def test_hot_key_survives_scan(self):
        """A frequently used key outlives a stream of one-hit wonders."""
        policy = LFUPolicy(4)
        policy.put("hot", 1, 0.0)
        for _ in range(5):
            policy.get("hot", 0.0)
        for cold in range(100):
            policy.put(cold, cold, 1.0)
        assert policy.get("hot", 2.0) == 1

    def test_victim_is_minimum_frequency_least_recent(self):
        policy = LFUPolicy(3)
        policy.put("a", 1, 0.0)
        policy.put("b", 2, 0.0)
        policy.put("c", 3, 0.0)
        policy.get("a", 1.0)
        policy.get("c", 1.0)  # b has the lone minimum frequency
        policy.put("d", 4, 2.0)
        assert policy.get("b", 3.0) is MISSING
        assert policy.get("a", 3.0) == 1
        assert policy.get("c", 3.0) == 3

    def test_reput_keeps_frequency(self):
        """Refreshing a value must not reset the popularity signal."""
        policy = LFUPolicy(2)
        policy.put("a", 1, 0.0)
        for _ in range(3):
            policy.get("a", 0.0)
        policy.put("a", 10, 1.0)  # refresh
        policy.put("b", 2, 1.0)
        policy.put("c", 3, 1.0)  # must evict b (freq 1), not a (freq 4)
        assert policy.get("a", 2.0) == 10
        assert policy.get("b", 2.0) is MISSING

    @given(st.lists(st.integers(0, 10), min_size=5, max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_lfu_internal_consistency(self, keys):
        """Bucket bookkeeping stays consistent under arbitrary traffic."""
        policy = LFUPolicy(4)
        now = 0.0
        for key in keys:
            now += 0.5
            if policy.get(key, now) is MISSING:
                policy.put(key, key, now)
        total_bucketed = sum(len(b) for b in policy._buckets.values())
        assert total_bucketed == len(policy._entries) == len(policy)


class TestSegmented:
    def test_one_hit_wonders_do_not_displace_main(self):
        """Keys with reuse live in main; a scan of fresh keys only churns
        the small probation segment."""
        policy = SegmentedPolicy(20)  # small=2, main=18
        for key in ("x", "y"):
            policy.put(key, key, 0.0)
            policy.get(key, 0.0)  # mark reused while probationary
        for cold in range(200):  # long one-hit-wonder scan
            policy.put(f"cold-{cold}", cold, 1.0)
        assert policy.get("x", 2.0) == "x"
        assert policy.get("y", 2.0) == "y"

    def test_ghost_readmission_goes_to_main(self):
        policy = SegmentedPolicy(10)  # small=1
        policy.put("a", 1, 0.0)
        policy.put("b", 2, 0.0)  # evicts a from small -> ghost
        assert policy.get("a", 0.0) is MISSING
        policy.put("a", 1, 1.0)  # second miss: straight to main
        assert "a" in policy._main
        assert policy.get("a", 1.0) == 1

    def test_full_main_evicts_fifo_with_a_second_chance(self):
        policy = SegmentedPolicy(10)  # small=1, main=9
        keys = [f"k{index}" for index in range(11)]

        def promote(key):
            # Read while probationary: the next put moves it to main.
            policy.put(key, key, 0.0)
            policy.get(key, 0.0)

        for key in keys[:10]:
            promote(key)
        policy.get("k0", 1.0)  # k0 earns a second chance in main
        promote("k10")  # k9 joins a full main: its FIFO head must go
        assert list(policy._main) == keys[2:10] + ["k0"]
        assert policy.evictions == 1
        assert policy.get("k1", 2.0) is MISSING
        assert policy.get("k0", 2.0) == "k0"


class TestMakePolicy:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            make_policy("arc", 16)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_policy("lru", 0)
        with pytest.raises(ValueError):
            make_policy("lru", 16, ttl_s=-1.0)
