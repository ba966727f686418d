"""Property: ``parse(c.spec_string()) == c`` for every compact-grammar config.

Spec files persist ``spec_string()`` and the CLI re-parses it, so a
written spec must read back as the same experiment. The property runs
over every finite float and over integers past ``1e6``: the shared
formatter (``repro.grammar.format_value``) writes integers in full and
floats with every digit they need. The chaos schedule's property, over
every event kind, is in ``tests/cluster/test_chaos_roundtrip.py``.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ann.config import RetrievalConfig
from repro.cache.policy import POLICIES
from repro.cache.tier import CacheConfig
from repro.cluster.routing import DISCIPLINES as ROUTING_DISCIPLINES
from repro.cluster.routing import RoutingPolicy
from repro.exec.config import BackendConfig
from repro.grammar import format_value
from repro.loadgen.retry import RetryPolicy
from repro.scheduler.config import SchedulerConfig
from repro.serving.admission import DISCIPLINES as ADMISSION_DISCIPLINES
from repro.serving.admission import AdmissionPolicy
from repro.serving.fallback import FallbackConfig
from repro.sharding.config import ShardingConfig
from repro.tenancy.config import TenancyConfig, TenantConfig


def floats(min_value=0.0, max_value=None, exclude_min=False):
    return st.floats(
        min_value=min_value, max_value=max_value, exclude_min=exclude_min,
        allow_nan=False, allow_infinity=False,
    )


positive = floats(exclude_min=True)
counts = st.integers(0, 10**12)

routing = st.builds(
    RoutingPolicy,
    discipline=st.sampled_from(ROUTING_DISCIPLINES),
    eject_after=st.one_of(st.none(), st.integers(1, 10**12)),
    cooldown_s=positive,
    endpoint_lag_s=floats(),
)
admission = st.builds(
    AdmissionPolicy,
    discipline=st.sampled_from(ADMISSION_DISCIPLINES),
    slack_s=floats(),
    lifo_threshold=counts,
    codel_target_s=positive,
    codel_interval_s=positive,
)
cache = st.builds(
    CacheConfig,
    capacity=counts,
    policy=st.sampled_from(POLICIES),
    window=st.integers(1, 10**12),
    ttl_s=floats(),
    remote_capacity=counts,
    remote_ttl_s=floats(),
)
fallback = st.builds(
    FallbackConfig, budget_s=positive, top_k=st.integers(1, 10**12)
)
sharding = st.builds(
    ShardingConfig, shards=st.integers(1, 10**12), allow_partial=st.booleans()
)
# The exact scan carries no index knobs: only its default form reads back.
retrieval = st.just(RetrievalConfig()) | st.builds(
    RetrievalConfig,
    kind=st.just("ivf"),
    nlist=st.one_of(st.none(), st.integers(1, 10**12)),
    nprobe=st.integers(1, 10**12),
)
# Every serial config is written ``serial``, which reads back with 0 workers.
backend = st.just(BackendConfig("serial", 0)) | st.builds(
    BackendConfig, kind=st.just("mp"), workers=counts
)


@st.composite
def retry(draw):
    base, cap = sorted((draw(floats()), draw(floats())))
    return RetryPolicy(
        max_retries=draw(counts),
        base_backoff_s=base,
        max_backoff_s=cap,
        multiplier=draw(floats(1.0)),
        jitter=draw(floats(0.0, 1.0)),
        hedge_after_s=draw(st.one_of(st.none(), positive)),
    )


scheduler = st.builds(
    SchedulerConfig,
    cpu_replicas=counts,
    cpu_instance=st.from_regex(r"[A-Za-z][A-Za-z0-9-]{0,11}", fullmatch=True),
    short_session=counts,
    slack_s=floats(),
    max_batch=st.integers(1, 10**12),
    linger_s=floats(),
    tune=st.booleans(),
    epoch_s=positive,
    target_p_ms=positive,
    quantile=floats(0.0, 100.0, exclude_min=True),
    tolerance=positive,
)


@st.composite
def tenant(draw, name):
    shadow = draw(st.booleans())
    return TenantConfig(
        name=name,
        model=draw(st.from_regex(r"[a-z][a-z0-9_]{0,9}", fullmatch=True)),
        weight=draw(floats(0.0, 1.0) if shadow else positive),
        slo_ms=draw(st.one_of(st.none(), positive)),
        shadow=shadow,
        canary_fraction=(
            0.0 if shadow else draw(st.floats(0.0, 1.0, exclude_max=True))
        ),
        burst=draw(positive),
        rollout_at_s=draw(st.one_of(st.none(), floats())),
    )


@st.composite
def tenancy(draw):
    names = draw(st.lists(
        st.from_regex(r"[a-z][a-z0-9_-]{0,7}", fullmatch=True),
        max_size=4, unique=True,
    ))
    tenants = tuple(draw(tenant(name)) for name in names)
    assume(not tenants or any(not t.shadow for t in tenants))
    return TenancyConfig(
        tenants=tenants, fair_depth=draw(st.integers(1, 10**12))
    )


class TestSpecStringRoundTrip:
    @given(config=st.one_of(
        routing, admission, cache, fallback, retry(), sharding, retrieval,
        backend,
    ))
    @settings(max_examples=600, deadline=None)
    def test_key_value_configs(self, config):
        assert type(config).parse(config.spec_string()) == config

    def test_every_serial_backend_is_written_serial(self):
        for workers in (0, 1):
            assert BackendConfig("serial", workers).spec_string() == "serial"

    @given(config=scheduler)
    @settings(max_examples=200, deadline=None)
    def test_scheduler(self, config):
        # The off form carries no knobs: it reads back as the default off.
        assume(config.enabled)
        assert SchedulerConfig.parse(config.spec_string()) == config

    @given(config=tenancy())
    @settings(max_examples=100, deadline=None)
    def test_tenancy(self, config):
        assert TenancyConfig.parse(config.spec_string()) == config


class TestFormatValue:
    def test_short_forms_stay_short(self):
        assert format_value(20.0) == "20"
        assert format_value(0.005) == "0.005"
        assert format_value(1e-7) == "1e-07"

    def test_integers_are_written_in_full(self):
        assert format_value(1_000_000) == "1000000"
        assert format_value(True) == "1"

    def test_floats_keep_every_digit_they_need(self):
        assert format_value(12.3456789) == "12.3456789"
        assert format_value(60.1234567) == "60.1234567"
        assert float(format_value(0.1 + 0.2)) == 0.1 + 0.2

    def test_text_is_unchanged(self):
        assert format_value("z0") == "z0"
