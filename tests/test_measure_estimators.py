"""Unit tests for binning analysis and jackknife."""

import numpy as np
import pytest

from repro.measure import binned_statistics, jackknife
from repro.stats import StreamingAccumulator


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestBinnedStatistics:
    def test_mean_unbiased(self, rng):
        x = rng.normal(loc=3.0, size=4096)
        est = binned_statistics(x, n_bins=16)
        assert est.mean == pytest.approx(np.mean(x[: 16 * 256]), abs=1e-12)

    def test_error_scale_iid(self, rng):
        """For iid samples the binned error must be ~ sigma / sqrt(n)."""
        x = rng.normal(size=8192)
        est = binned_statistics(x, n_bins=32)
        expected = 1.0 / np.sqrt(8192)
        assert est.error == pytest.approx(expected, rel=0.5)

    def test_correlated_series_has_larger_error(self, rng):
        """Binning must expose autocorrelation: an AR(1) series' true
        error greatly exceeds the naive sqrt(var/n) estimate."""
        n = 8192
        x = np.empty(n)
        x[0] = 0.0
        eta = rng.normal(size=n)
        for i in range(1, n):
            x[i] = 0.95 * x[i - 1] + eta[i]
        naive = x.std(ddof=1) / np.sqrt(n)
        est = binned_statistics(x, n_bins=16)
        assert est.error > 3 * naive

    def test_array_valued(self, rng):
        x = rng.normal(size=(256, 5))
        est = binned_statistics(x, n_bins=8)
        assert est.mean.shape == (5,)
        assert est.error.shape == (5,)

    def test_few_samples_shrinks_bins(self):
        est = binned_statistics(np.arange(5.0), n_bins=16)
        assert est.n_bins == 2

    def test_single_sample(self):
        est = binned_statistics(np.array([2.5]))
        assert est.mean == 2.5 and est.error == np.inf

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            binned_statistics(np.array([]))

    def test_scalar_property(self, rng):
        est = binned_statistics(rng.normal(size=64))
        assert isinstance(est.scalar, float)
        est_arr = binned_statistics(rng.normal(size=(64, 2)))
        with pytest.raises(ValueError):
            est_arr.scalar


class TestJackknife:
    def test_linear_function_matches_binning(self, rng):
        x = rng.normal(loc=1.5, size=1024)
        jk = jackknife(x, lambda m: m, n_bins=16)
        direct = binned_statistics(x, n_bins=16)
        assert jk.mean == pytest.approx(float(direct.mean), rel=1e-10)
        assert jk.error == pytest.approx(float(direct.error), rel=0.2)

    def test_nonlinear_ratio(self, rng):
        """Jackknife a ratio <a>/<b>; must recover the true ratio."""
        a = rng.normal(loc=2.0, scale=0.1, size=2048)
        b = rng.normal(loc=4.0, scale=0.1, size=2048)
        samples = np.stack([a, b], axis=1)
        jk = jackknife(samples, lambda m: m[0] / m[1], n_bins=16)
        assert jk.mean == pytest.approx(0.5, abs=0.01)
        assert 0 < jk.error < 0.01

    def test_too_few_samples(self):
        jk = jackknife(np.array([1.0]), lambda m: m * 2)
        assert jk.mean == 2.0 and jk.error == np.inf


class TestAutocorrelationTime:
    def test_iid_is_half(self, rng):
        from repro.measure import integrated_autocorrelation_time

        tau = integrated_autocorrelation_time(rng.normal(size=16384))
        assert tau == pytest.approx(0.5, abs=0.15)

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_ar1_known_value(self, rng, rho):
        """AR(1): tau_int = (1/2)(1 + rho)/(1 - rho)."""
        from repro.measure import integrated_autocorrelation_time

        n = 60000
        x = np.empty(n)
        x[0] = 0.0
        eta = rng.normal(size=n)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + eta[i]
        tau = integrated_autocorrelation_time(x)
        expected = 0.5 * (1 + rho) / (1 - rho)
        assert tau == pytest.approx(expected, rel=0.25)

    def test_constant_series(self):
        from repro.measure import integrated_autocorrelation_time

        assert integrated_autocorrelation_time(np.ones(100)) == 0.5

    def test_validation(self, rng):
        from repro.measure import integrated_autocorrelation_time

        with pytest.raises(ValueError):
            integrated_autocorrelation_time(np.ones((10, 2)))
        with pytest.raises(ValueError):
            integrated_autocorrelation_time(np.ones(3))

    def test_consistent_with_binning(self, rng):
        """err_binned^2 ~ (2 tau) * var / n: the two estimators must
        agree on the effective sample count within a factor ~2."""
        from repro.measure import integrated_autocorrelation_time

        n = 32768
        x = np.empty(n)
        x[0] = 0.0
        eta = rng.normal(size=n)
        for i in range(1, n):
            x[i] = 0.8 * x[i - 1] + eta[i]
        tau = integrated_autocorrelation_time(x)
        est = binned_statistics(x, n_bins=32)
        err_pred = np.sqrt(2 * tau * x.var(ddof=1) / n)
        assert float(est.error) == pytest.approx(err_pred, rel=0.5)


class TestAccumulator:
    """The one measurement accumulator, seen through the interface the
    collector, controller and checkpoint code use."""

    def test_collect_and_reduce(self, rng):
        acc = StreamingAccumulator()
        for _ in range(32):
            acc.add("x", rng.normal())
            acc.add("v", rng.normal(size=3))
        out = acc.reduce(n_bins=8)
        assert out["x"].n_samples == 32
        assert out["v"].mean.shape == (3,)

    def test_series_ordering(self):
        acc = StreamingAccumulator(track=["t"])
        for i in range(5):
            acc.add("t", float(i))
        np.testing.assert_array_equal(acc.series("t"), np.arange(5.0))

    def test_missing_name_raises(self):
        with pytest.raises(KeyError):
            StreamingAccumulator().series("nope")

    def test_extend(self):
        a, b = StreamingAccumulator(track=["x"]), StreamingAccumulator()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.extend(b)
        assert a.n_samples("x") == 2
        assert float(a.estimate("x").mean) == 1.5
        assert a.n_samples("y") == 1
