"""Power-law samplers and the two-stage empirical CDF."""

import tracemalloc

import numpy as np
import pytest

from repro.workload.powerlaw import BoundedPowerLaw, EmpiricalCDF


class TestBoundedPowerLaw:
    def test_pmf_normalized(self):
        dist = BoundedPowerLaw(2.0, x_min=1, x_max=100)
        assert dist.pmf().sum() == pytest.approx(1.0)

    def test_pmf_decays_as_power(self):
        dist = BoundedPowerLaw(2.0, x_min=1, x_max=1000)
        pmf = dist.pmf()
        # P(2)/P(1) = 2^-2
        assert pmf[1] / pmf[0] == pytest.approx(0.25, rel=1e-6)

    def test_samples_within_support(self):
        dist = BoundedPowerLaw(1.5, x_min=2, x_max=50)
        samples = dist.sample(10_000, np.random.default_rng(0))
        assert samples.min() >= 2 and samples.max() <= 50

    def test_sample_distribution_matches_pmf(self):
        dist = BoundedPowerLaw(2.0, x_min=1, x_max=10)
        samples = dist.sample(200_000, np.random.default_rng(1))
        observed = np.bincount(samples, minlength=11)[1:] / 200_000
        np.testing.assert_allclose(observed, dist.pmf(), atol=0.01)

    def test_mean_matches_empirical(self):
        dist = BoundedPowerLaw(1.8, x_min=1, x_max=80)
        samples = dist.sample(100_000, np.random.default_rng(2))
        assert samples.mean() == pytest.approx(dist.mean(), rel=0.05)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BoundedPowerLaw(0.0)
        with pytest.raises(ValueError):
            BoundedPowerLaw(2.0, x_min=5, x_max=2)
        with pytest.raises(ValueError):
            BoundedPowerLaw(2.0, x_min=0)


class TestEmpiricalCDF:
    def test_proportional_sampling(self):
        counts = np.array([1.0, 3.0, 6.0])
        cdf = EmpiricalCDF(counts)
        draws = cdf.sample(100_000, np.random.default_rng(0))
        freq = np.bincount(draws, minlength=3) / 100_000
        np.testing.assert_allclose(freq, counts / counts.sum(), atol=0.01)

    def test_zero_count_items_never_drawn(self):
        counts = np.array([0.0, 5.0, 0.0, 5.0])
        draws = EmpiricalCDF(counts).sample(10_000, np.random.default_rng(1))
        assert set(np.unique(draws)) <= {1, 3}

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            EmpiricalCDF(np.array([]))
        with pytest.raises(ValueError):
            EmpiricalCDF(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            EmpiricalCDF(np.array([-1.0, 2.0]))

    def test_from_power_law_equivalent_marginals(self):
        """The direct construction matches explicit count sampling."""
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        dist = BoundedPowerLaw(1.5, x_min=1, x_max=100)
        explicit = EmpiricalCDF(dist.sample(50_000, rng_a).astype(np.float64))
        direct = EmpiricalCDF.from_power_law(dist, 50_000, rng_b)
        draws_a = explicit.sample(100_000, np.random.default_rng(4))
        draws_b = direct.sample(100_000, np.random.default_rng(4))
        # Item identities differ (exchangeable), but the popularity profile
        # must match: compare sorted per-item draw counts.
        pop_a = np.sort(np.bincount(draws_a, minlength=50_000))[::-1][:100]
        pop_b = np.sort(np.bincount(draws_b, minlength=50_000))[::-1][:100]
        np.testing.assert_allclose(pop_a, pop_b, rtol=0.25, atol=3)

    def test_len(self):
        assert len(EmpiricalCDF(np.ones(7))) == 7


class TestItemPool:
    """The item pool is built once, in place: same ids, one C-sized array."""

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("num_items", [1, 17, 50_000])
    def test_pool_is_the_seeded_permutation(self, seed, num_items):
        dist = BoundedPowerLaw(1.5, x_min=1, x_max=100)
        cdf = EmpiricalCDF.from_power_law(dist, num_items, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        rng.multinomial(num_items, dist.pmf())
        expected = rng.permutation(num_items).astype(np.int64)
        assert cdf._item_pool.dtype == np.int64
        np.testing.assert_array_equal(cdf._item_pool, expected)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_class_grouped_pool_keeps_values_and_dtype(self, seed):
        counts = np.random.default_rng(seed).integers(0, 9, size=5_000).astype(float)
        counts[0] = 1.0
        cdf = EmpiricalCDF(counts)
        _values, inverse = np.unique(counts, return_inverse=True)
        expected = np.argsort(inverse, kind="stable").astype(np.int64)
        assert cdf._item_pool.dtype == np.int64
        np.testing.assert_array_equal(cdf._item_pool, expected)

    def test_building_the_pool_allocates_one_pool(self):
        dist = BoundedPowerLaw(1.5, x_min=1, x_max=100)
        tracemalloc.start()
        try:
            cdf = EmpiricalCDF.from_power_law(
                dist, 2_000_000, np.random.default_rng(1)
            )
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cdf._item_pool.nbytes
