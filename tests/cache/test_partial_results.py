"""Partial / degraded results must never poison the cache tiers.

Two regressions guarded here (docs/availability.md):

1. Cross-shard poisoning via the shared remote tier: every shard of a
   deployment shares one ``RemoteCacheTier``, so without shard-scoped
   cache versions, shard A's slice result answers shard B's leg for the
   same session prefix — a spurious "full coverage" hit built from the
   wrong catalog slice.
2. A degraded answer written into a tier would keep being served for a
   whole TTL after the overload that produced it has cleared. Only an
   executed leader fills: a leader shed to the fallback tier settles
   its flight without a fill, and partial merges happen in the
   aggregator, which has no cache. On an overloaded run with a fallback
   tier, every miss therefore either fills or is shed, never both.
"""

import numpy as np

from repro.cache.policy import MISSING
from repro.cache.tier import CacheConfig, RecommendationCache, RemoteCacheTier
from repro.core.experiment import ExperimentRunner
from repro.core.infra_test import run_infra_test
from repro.hardware import CPU_E2, LatencyModel
from repro.serving import ActixProfile, EtudeInferenceServer
from repro.serving.actix import shard_scoped_version
from repro.serving.request import HTTP_OK, RecommendationRequest
from repro.simulation import Simulator
from repro.tensor.ops import CostRecord, CostTrace
from tests.golden.test_trace_digests import INFRA_TESTS, SCENARIOS


class FakeShardScorer:
    """Stands in for ``repro.sharding.merge.ShardScorer``: same duck type
    (``shard_index`` / ``shards`` / ``recommend_with_scores``), but returns a
    fixed slice so the test can tell which shard actually answered."""

    def __init__(self, shard_index, shards):
        self.shard_index = shard_index
        self.shards = shards

    def recommend_with_scores(self, session_items):
        base = 100 * self.shard_index
        items = np.arange(base, base + 3, dtype=np.int64)
        scores = np.array([3.0, 2.0, 1.0])
        return items, scores

    def recommend(self, session_items):
        return self.recommend_with_scores(session_items)[0]


def make_profile():
    trace = CostTrace()
    trace.append(CostRecord(op="linear", param_bytes=1e6, write_bytes=1e5))
    return LatencyModel(CPU_E2.device).profile(trace)


def make_request(request_id, now=0.0):
    return RecommendationRequest(
        request_id=request_id,
        session_id=request_id,
        session_items=np.array([1, 2, 3], dtype=np.int64),
        sent_at=now,
    )


def make_shard_server(sim, shard_index, shards, remote, config, seed=0):
    return EtudeInferenceServer(
        sim,
        CPU_E2.device,
        make_profile(),
        np.random.default_rng(seed),
        profile=ActixProfile(cache=config),
        model=FakeShardScorer(shard_index, shards),
        name=f"shard{shard_index}",
        artifact_version="models/v1.pt",
        remote_cache=remote,
    )


class TestShardScopedVersions:
    def test_plain_model_keeps_the_artifact_version(self):
        assert shard_scoped_version("v1", object()) == "v1"
        assert shard_scoped_version("v1", None) == "v1"

    def test_shard_scorers_get_disjoint_versions(self):
        versions = {
            shard_scoped_version("v1", FakeShardScorer(index, 4))
            for index in range(4)
        }
        assert len(versions) == 4
        assert all(v.startswith("v1#shard") for v in versions)

    def test_remote_tier_never_crosses_shards(self):
        """The poisoning regression, at the cache layer: one shared remote
        tier, same session prefix, two shard-scoped caches — shard 1 must
        MISS on shard 0's fill."""
        config = CacheConfig(capacity=8, remote_capacity=64)
        remote = RemoteCacheTier(config)
        cache_a = RecommendationCache(
            config,
            version=shard_scoped_version("v1", FakeShardScorer(0, 2)),
            remote=remote,
        )
        cache_b = RecommendationCache(
            config,
            version=shard_scoped_version("v1", FakeShardScorer(1, 2)),
            remote=remote,
        )
        session = [1, 2, 3]
        cache_a.fill(cache_a.key_for(session), "slice-0", 0.0)
        assert cache_b.lookup_remote(cache_b.key_for(session), 0.0) is MISSING

    def test_shard_replicas_still_share_within_a_shard(self):
        """Scoping is per shard, not per pod: two replicas of the same
        shard must keep backfilling each other through the remote tier."""
        config = CacheConfig(capacity=8, remote_capacity=64)
        remote = RemoteCacheTier(config)
        replica_a = RecommendationCache(
            config,
            version=shard_scoped_version("v1", FakeShardScorer(1, 2)),
            remote=remote,
        )
        replica_b = RecommendationCache(
            config,
            version=shard_scoped_version("v1", FakeShardScorer(1, 2)),
            remote=remote,
        )
        session = [1, 2, 3]
        replica_a.fill(replica_a.key_for(session), "slice-1", 0.0)
        assert replica_b.lookup_remote(replica_b.key_for(session), 0.0) == "slice-1"

    def test_end_to_end_each_shard_serves_its_own_slice(self):
        """Same session through both shard servers sharing one remote
        tier: each must answer from its own catalog slice. Without
        shard-scoped versions, shard 1 hits shard 0's remote entry and
        returns items 0..2 instead of 100..102."""
        sim = Simulator()
        config = CacheConfig(capacity=8, remote_capacity=64, window=4)
        remote = RemoteCacheTier(config)
        server_a = make_shard_server(sim, 0, 2, remote, config)
        server_b = make_shard_server(sim, 1, 2, remote, config, seed=1)
        responses = {}

        def sender():
            server_a.submit(make_request(0, sim.now), lambda r: responses.__setitem__("a", r))
            yield 0.5
            server_b.submit(make_request(1, sim.now), lambda r: responses.__setitem__("b", r))

        sim.spawn(sender())
        sim.run()
        assert responses["a"].status == HTTP_OK
        assert responses["b"].status == HTTP_OK
        assert list(responses["a"].items) == [0, 1, 2]
        assert list(responses["b"].items) == [100, 101, 102]
        # And the second shard really executed (no spurious remote hit).
        assert not responses["b"].cache_hit

    def test_cluster_shards_get_disjoint_keyspaces(self, deployments):
        """A sharded cluster deployment scopes each pod's cache version to
        its shard: the replicas of a shard share one keyspace, shards do
        not, and no shard's fill overwrites another's remote entry."""
        result = ExperimentRunner(seed=11).run(SCENARIOS["t4-sharded-cached"])
        (deployment,) = deployments
        versions = {}
        for pod in deployment.pods:
            versions.setdefault(pod.shard, set()).add(
                pod.server.cache.keyer.version
            )
        assert [len(shard) for shard in versions.values()] == [1] * 4
        assert len(set().union(*versions.values())) == 4
        assert result.cache["remote_entries"] == result.cache["fills"]


class TestDegradedResultsNeverFill:
    def test_every_miss_fills_or_is_shed(self):
        """The golden overload run with a cache and a fallback tier: each
        miss leads one flight, which either ran inference and filled the
        tiers or was shed and answered from the fallback tier. A shed
        leader whose degraded answer also filled would count twice."""
        result = run_infra_test(**INFRA_TESTS["infra-actix-overload-cache-ivf"])
        overload, cache = result.overload, result.cache
        shed = (
            overload["shed_deadline"]
            + overload["shed_codel"]
            + overload["shed_queue_full"]
        )
        assert overload["degraded_served"] > 0 and shed > 0
        assert cache["fills"] + shed == cache["misses"]
