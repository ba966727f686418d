"""The FEATURES table: every optional spec dimension, checked one way.

For each row: its text coerces to the config, a config passes through
as itself, the spec file writes it as pinned text and round-trips it, an
unset dimension stays out of the written document, and each off value is
stored as None. Each CONFLICTS pair is rejected when a spec is built,
with its message.
"""

from dataclasses import fields, replace

import pytest

from repro.ann.config import RetrievalConfig
from repro.cache.tier import CacheConfig
from repro.cluster.chaos import ChaosSchedule, PodCrash
from repro.cluster.routing import RoutingPolicy
from repro.core.spec import CONFLICTS, FEATURES, ExperimentSpec, HardwareSpec
from repro.core.specfile import spec_from_dict, spec_to_dict
from repro.loadgen.retry import RetryPolicy
from repro.scheduler.config import SchedulerConfig
from repro.serving.admission import AdmissionPolicy
from repro.serving.fallback import FallbackConfig
from repro.sharding.config import ShardingConfig
from repro.tenancy.config import TenancyConfig, TenantConfig


def spec(**overrides):
    base = dict(
        model="stamp", catalog_size=10_000, target_rps=40,
        hardware=HardwareSpec("CPU", 1), duration_s=20.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


#: field -> (sample text, the value it must coerce to).
SAMPLES = {
    "retry": (
        "max=3,base=0.02,cap=1,jitter=0.25,hedge=0.2",
        RetryPolicy(
            max_retries=3, base_backoff_s=0.02, max_backoff_s=1.0,
            jitter=0.25, hedge_after_s=0.2,
        ),
    ),
    "chaos": (
        "crash@10:restart=5",
        ChaosSchedule(events=(PodCrash(at_s=10.0, restart_after_s=5.0),)),
    ),
    "slo_deadline_s": ("0.05", 0.05),
    "admission": (
        "lifo,slack=0.005,depth=128",
        AdmissionPolicy(discipline="lifo", slack_s=0.005, lifo_threshold=128),
    ),
    "fallback": (
        "budget=0.003,topk=10", FallbackConfig(budget_s=0.003, top_k=10)
    ),
    "routing": (
        "rr,eject=5,cooldown=30,lag=2",
        RoutingPolicy(eject_after=5, cooldown_s=30.0, endpoint_lag_s=2.0),
    ),
    "cache": (
        "segmented,capacity=2048,ttl=30,remote=65536",
        CacheConfig(
            policy="segmented", capacity=2048, ttl_s=30.0,
            remote_capacity=65536,
        ),
    ),
    "sharding": (
        "4,partial=off", ShardingConfig(shards=4, allow_partial=False)
    ),
    "retrieval": (
        "ivf:nlist=32,nprobe=4", RetrievalConfig(kind="ivf", nlist=32, nprobe=4)
    ),
    "scheduler": (
        "cpu=2,short=6", SchedulerConfig(cpu_replicas=2, short_session=6)
    ),
    "zones": ("3", 3),
    "tenants": (
        "a=stamp:3,slo=60;b=narm:1,canary=0.1;fair=32",
        TenancyConfig(
            tenants=(
                TenantConfig("a", "stamp", 3.0, slo_ms=60.0),
                TenantConfig("b", "narm", 1.0, canary_fraction=0.1),
            ),
            fair_depth=32,
        ),
    ),
}

#: field -> what the spec file stores for its sample: the text users read
#: and diff, so a change to it is a change of interface.
WRITTEN = {
    "retry": "max=3,base=0.02,cap=1,mult=2,jitter=0.25,hedge=0.2",
    "chaos": "crash@10:pod=0:restart=5",
    "slo_deadline_s": 0.05,
    "admission": "lifo,slack=0.005,depth=128",
    "fallback": "budget=0.003,topk=10",
    "routing": "rr,eject=5,cooldown=30,lag=2",
    "cache": "segmented,capacity=2048,ttl=30,remote=65536",
    "sharding": "4,partial=off",
    "retrieval": "ivf:nlist=32,nprobe=4",
    "scheduler": "cpu=2,short=6",
    "zones": 3,
    "tenants": "a=stamp:3,slo=60;b=narm:1,canary=0.1;fair=32",
}

#: (field, a value that means "off") for every dimension with an off state.
OFF_VALUES = [
    ("cache", "capacity=0"),
    ("cache", CacheConfig(capacity=0)),
    ("sharding", "1"),
    ("sharding", 1),
    ("sharding", ShardingConfig(shards=1)),
    ("retrieval", "exact"),
    ("retrieval", "off"),
    ("retrieval", "none"),
    ("retrieval", RetrievalConfig(kind="exact")),
    ("scheduler", "off"),
    ("scheduler", "none"),
    ("scheduler", SchedulerConfig(cpu_replicas=0, tune=False)),
    ("tenants", ""),
    ("tenants", TenancyConfig()),
]

#: ExperimentSpec's required and always-set fields: not opt-in dimensions.
CORE_FIELDS = {
    "model", "catalog_size", "target_rps", "hardware", "duration_s",
    "execution", "top_k", "workload", "seed", "collect_series",
}

ROWS = pytest.mark.parametrize(
    "feature", FEATURES, ids=[feature.field for feature in FEATURES]
)


def written(feature, value):
    """The spec-file form of one dimension's value."""
    return value if feature.parse in (int, float) else value.spec_string()


class TestFeatureTable:
    def test_every_optional_field_has_one_row(self):
        """A new ExperimentSpec field without a FEATURES row fails here."""
        optional = {f.name for f in fields(ExperimentSpec)} - CORE_FIELDS
        assert sorted(f.field for f in FEATURES) == sorted(optional)
        assert set(SAMPLES) == set(WRITTEN) == optional

    def test_keys_and_flags_are_unique(self):
        assert len({f.key for f in FEATURES}) == len(FEATURES)
        assert len({f.flag for f in FEATURES}) == len(FEATURES)


class TestEveryDimension:
    @ROWS
    def test_text_coerces_to_the_config(self, feature):
        text, expected = SAMPLES[feature.field]
        coerced = spec(**{feature.field: text})
        assert getattr(coerced, feature.field) == expected

    @ROWS
    def test_config_passes_through(self, feature):
        _text, expected = SAMPLES[feature.field]
        given = spec(**{feature.field: expected})
        assert getattr(given, feature.field) is expected

    @ROWS
    def test_specfile_round_trip(self, feature):
        text, expected = SAMPLES[feature.field]
        original = spec(**{feature.field: text})
        document = spec_to_dict(original)
        assert document[feature.key] == written(feature, expected)
        assert document[feature.key] == WRITTEN[feature.field]
        restored, _slo = spec_from_dict(document)
        assert restored == original

    @ROWS
    def test_unset_dimension_is_left_out(self, feature):
        assert feature.key not in spec_to_dict(spec())

    @pytest.mark.parametrize("field, value", OFF_VALUES)
    def test_off_value_stores_none(self, field, value):
        off = spec(**{field: value})
        assert getattr(off, field) is None
        assert off == spec()

    def test_single_zone_is_the_default_spec(self):
        assert spec(zones=1) == spec()

    def test_bare_int_is_a_shard_count(self):
        assert spec(sharding=4).sharding == ShardingConfig(shards=4)

    def test_single_zone_is_left_out(self):
        assert "zones" not in spec_to_dict(spec(zones=1))


#: Each declared conflict, in check order, with the exact message that
#: rejects it (user-facing text: a change to it is a change of interface).
MESSAGES = {
    ("scheduler", "sharding"):
        "the heterogeneous scheduler does not compose with catalog sharding: "
        "CPU pods must hold the full catalog to answer any request the "
        "dispatcher sends them",
    ("tenants", "sharding"):
        "a tenant fleet does not compose with catalog sharding: every pod "
        "must host every tenant's full catalog",
    ("tenants", "scheduler"):
        "a tenant fleet does not compose with the heterogeneous scheduler's "
        "auxiliary pool",
    ("tenants", "retrieval"):
        "a tenant fleet does not compose with ANN retrieval: per-tenant "
        "index builds are not modeled",
}

#: A value that turns on each dimension a conflict names.
ON = {"scheduler": "cpu=1", "sharding": "2", "tenants": "a=stamp:1",
      "retrieval": "ivf"}

#: An off value of each of those dimensions.
OFF = {"scheduler": "off", "sharding": 1, "tenants": "", "retrieval": "exact"}


class TestConflicts:
    def test_table_holds_the_pairs_in_order(self):
        assert [(first, second) for first, second, _m in CONFLICTS] == list(
            MESSAGES
        )

    @pytest.mark.parametrize(
        "first, second, message", CONFLICTS,
        ids=[f"{a}-{b}" for a, b, _m in CONFLICTS],
    )
    def test_spec_build_and_replace_reject_the_pair(self, first, second, message):
        assert message == MESSAGES[first, second]
        with pytest.raises(ValueError) as built:
            spec(**{first: ON[first], second: ON[second]})
        assert str(built.value) == message
        with pytest.raises(ValueError) as replaced:
            replace(spec(**{first: ON[first]}), **{second: ON[second]})
        assert str(replaced.value) == message

    @pytest.mark.parametrize(
        "first, second, _message", CONFLICTS,
        ids=[f"{a}-{b}" for a, b, _m in CONFLICTS],
    )
    def test_an_off_side_does_not_conflict(self, first, second, _message):
        assert spec(**{first: ON[first], second: OFF[second]}) == spec(
            **{first: ON[first]}
        )
        assert spec(**{first: OFF[first], second: ON[second]}) == spec(
            **{second: ON[second]}
        )
