"""The registry's workload memo: exact, and bounded to one pool.

:meth:`AssetRegistry.workload` keeps the last item pool it built and the
generator state right after that build. A generator it serves must draw
exactly what ``SyntheticWorkloadGenerator(statistics, seed)`` draws, on a
hit and after another key was built, and the memo must never keep a
second pool alive.
"""

import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import ExperimentRunner
from repro.core.registry import AssetRegistry
from repro.core.spec import ExperimentSpec, HardwareSpec
from repro.workload import SyntheticWorkloadGenerator, WorkloadStatistics
from repro.workload.powerlaw import EmpiricalCDF

#: Sessions ``iter_sessions`` draws at a time.
BATCH = 4096
MAX_CATALOG = 200_000


def draws(generator, clicks):
    """The first three ``iter_sessions`` batches, then a click log, then
    the generator's state."""
    sessions = list(itertools.islice(generator.iter_sessions(), 3 * BATCH))
    log = generator.generate_clicks(clicks)
    return (
        np.array([len(session) for session in sessions]),
        np.concatenate(sessions),
        log.session_ids,
        log.item_ids,
        log.steps,
        generator._rng.bit_generator.state,
    )


def assert_same(got, expected):
    *arrays, state = got
    *expected_arrays, expected_state = expected
    for array, expected_array in zip(arrays, expected_arrays):
        np.testing.assert_array_equal(array, expected_array)
    assert state == expected_state


def variant(seed, statistics, field):
    """A key that differs from (seed, statistics) in ``field`` alone."""
    if field == "seed":
        return (seed + 1) % 2**31, statistics
    if field == "catalog_size":
        catalog = statistics.catalog_size
        changed = catalog + 1 if catalog < MAX_CATALOG else catalog - 1
    elif field == "max_session_length":
        changed = statistics.max_session_length // 2
    else:
        changed = getattr(statistics, field) + 0.25
    return seed, replace(statistics, **{field: changed})


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    catalog=st.integers(1, MAX_CATALOG),
    alpha_clicks=st.floats(1.05, 3.0),
    alpha_length=st.floats(1.05, 3.0),
    field=st.sampled_from(
        ["seed", "catalog_size", "alpha_clicks", "alpha_length", "max_session_length"]
    ),
    clicks=st.integers(1, 5_000),
)
def test_a_served_generator_draws_what_a_fresh_build_draws(
    seed, catalog, alpha_clicks, alpha_length, field, clicks
):
    statistics = WorkloadStatistics(catalog, alpha_length, alpha_clicks)
    other_seed, other = variant(seed, statistics, field)
    expected = draws(SyntheticWorkloadGenerator(statistics, seed), clicks)
    expected_other = draws(SyntheticWorkloadGenerator(other, other_seed), clicks)

    warm = AssetRegistry()
    # The build; its draws advance its own generator, never the memo's.
    assert_same(draws(warm.workload(statistics, seed), clicks), expected)
    assert_same(draws(warm.workload(statistics, seed), clicks), expected)

    between = AssetRegistry()
    between.workload(statistics, seed)
    assert_same(draws(between.workload(other, other_seed), clicks), expected_other)
    assert_same(draws(between.workload(statistics, seed), clicks), expected)


#: Two runs whose workload keys differ only in the spec seed.
SPEC = ExperimentSpec("gru4rec", 20_000, 100, HardwareSpec("CPU", 1), duration_s=2.0)


def test_the_memo_holds_one_read_only_pool(monkeypatch):
    pools = []
    #: Per build: which earlier pools were still alive when it started.
    alive_at_build = []

    build = EmpiricalCDF.from_power_law.__func__

    def watched_build(cls, distribution, num_items, rng):
        alive_at_build.append([ref() is not None for ref in pools])
        item_cdf = build(cls, distribution, num_items, rng)
        pools.append(weakref.ref(item_cdf._item_pool))
        return item_cdf

    monkeypatch.setattr(EmpiricalCDF, "from_power_law", classmethod(watched_build))
    runner = ExperimentRunner(registry=AssetRegistry(), seed=5)
    for seed in (1, 1, 2):
        assert runner.run(replace(SPEC, seed=seed)).ok_requests > 0

    # One build per key: the second run of seed 1 hit the memo, and the
    # first pool was dropped before the second key's build began.
    assert alive_at_build == [[], [False]]
    first, second = pools
    assert first() is None
    item_cdf = runner.registry._workload[1]
    assert second() is item_cdf._item_pool
    for table in (
        item_cdf._item_pool,
        item_cdf._class_offsets,
        item_cdf._class_sizes,
        item_cdf._class_cdf,
    ):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]
