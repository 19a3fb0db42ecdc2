"""Property tests: streaming log-binning vs the retained-series analysis.

The contract under test (docs/analysis.md): the log-binned accumulator
fed a sample stream must report the mean :func:`binned_statistics` finds
in the same series exactly and, when the sample count is n_bins * 2^k,
the same binned error to floating-point roundoff — while holding only
O(log n) state.
"""

import numpy as np
import pytest

from repro.measure import binned_statistics
from repro.measure.estimators import integrated_autocorrelation_time
from repro.stats import (
    LogBinningAccumulator,
    StreamingAccumulator,
    StreamingError,
)


def ar1(n, rho=0.7, seed=0, shape=()):
    """A correlated series — binning must actually do something."""
    rng = np.random.default_rng(seed)
    x = np.empty((n,) + shape)
    x[0] = rng.standard_normal(shape)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + rng.standard_normal(shape)
    return x


class TestLogBinning:
    def test_mean_matches_every_sample(self):
        data = ar1(777, seed=1)
        acc = LogBinningAccumulator()
        for v in data:
            acc.add(v)
        assert acc.n_samples == 777
        np.testing.assert_allclose(acc.mean, data.mean(), rtol=0, atol=1e-13)

    def test_error_matches_posthoc_at_aligned_count(self):
        # n = 16 * 2^5: level-5 bin boundaries coincide with the
        # post-hoc 16-bin analysis exactly.
        data = ar1(16 * 32, seed=2)
        acc = LogBinningAccumulator()
        for v in data:
            acc.add(v)
        est = acc.estimate(n_bins=16)
        ref = binned_statistics(data, n_bins=16)
        assert est.n_bins == ref.n_bins == 16
        np.testing.assert_allclose(float(est.mean), float(ref.mean), atol=1e-13)
        np.testing.assert_allclose(
            float(est.error), float(ref.error), rtol=1e-10
        )

    def test_array_observables(self):
        data = ar1(16 * 8, seed=3, shape=(3, 2))
        acc = LogBinningAccumulator(shape=(3, 2))
        for v in data:
            acc.add(v)
        est = acc.estimate(n_bins=16)
        ref = binned_statistics(data, n_bins=16)
        np.testing.assert_allclose(est.mean, ref.mean, atol=1e-13)
        np.testing.assert_allclose(est.error, ref.error, rtol=1e-10)

    def test_state_is_logarithmic(self):
        acc = LogBinningAccumulator()
        for v in ar1(4096, seed=4):
            acc.add(v)
        # 4096 samples, but only ~log2(4096) levels of O(1) state each.
        assert acc.n_levels <= int(np.log2(4096)) + 1

    def test_shape_mismatch_rejected(self):
        acc = LogBinningAccumulator(shape=(2,))
        with pytest.raises(ValueError, match="shape"):
            acc.add(3.0)

    def test_merge_matches_concatenation_mean(self):
        a_data, b_data = ar1(300, seed=5), ar1(200, seed=6)
        a = LogBinningAccumulator()
        b = LogBinningAccumulator()
        for v in a_data:
            a.add(v)
        for v in b_data:
            b.add(v)
        a.merge(b)
        both = np.concatenate([a_data, b_data])
        assert a.n_samples == 500
        np.testing.assert_allclose(a.mean, both.mean(), atol=1e-12)

    def test_state_round_trip_bit_exact(self):
        acc = LogBinningAccumulator()
        for v in ar1(333, seed=7):  # odd count: pending half-bins exist
            acc.add(v)
        clone = LogBinningAccumulator.from_state(
            acc.state_meta(), acc.state_arrays()
        )
        # Continue both from the restored state: identical floats.
        for v in ar1(100, seed=8):
            acc.add(v)
            clone.add(v)
        np.testing.assert_array_equal(acc.mean, clone.mean)
        np.testing.assert_array_equal(
            acc.estimate().error, clone.estimate().error
        )


class TestStreamingAccumulator:
    def feed(self, acc, n=256, seed=9):
        num = ar1(n, seed=seed)
        for v in num:
            acc.add("density", 1.0 + 0.01 * v)
            acc.add("sign", 1.0)
            acc.add("nk", np.full((2, 2), v))
        return num

    def test_reduce_parity_with_posthoc(self):
        """reduce() against the binning analysis of the fed series."""
        stream = StreamingAccumulator()
        num = self.feed(stream)
        series = {
            "density": 1.0 + 0.01 * num,
            "sign": np.ones(256),
            "nk": np.repeat(num, 4).reshape(256, 2, 2),
        }
        s = stream.reduce(n_bins=16)
        assert set(s) == set(series)
        for name, x in series.items():
            p = binned_statistics(x, n_bins=16)
            np.testing.assert_allclose(
                np.asarray(s[name].mean), np.asarray(p.mean), atol=1e-12
            )
            np.testing.assert_allclose(
                np.asarray(s[name].error), np.asarray(p.error), rtol=1e-9
            )

    def test_series_requires_tracking(self):
        acc = StreamingAccumulator(track=["density"])
        self.feed(acc)
        assert acc.series("density").shape == (256,)
        with pytest.raises(StreamingError, match="not retained"):
            acc.series("sign")
        with pytest.raises(KeyError):
            acc.series("never_recorded")

    def test_reset_keeps_registry(self):
        acc = StreamingAccumulator(track=["density"])
        self.feed(acc)
        dropped = acc.reset()
        assert dropped == 256
        assert set(acc.names()) == {"density", "sign", "nk"}
        assert acc.n_samples("density") == 0
        assert acc.tracked_names == ("density",)

    def test_state_round_trip(self):
        acc = StreamingAccumulator(track=["density"])
        self.feed(acc, n=123)
        clone = StreamingAccumulator()
        clone.restore_state(acc.state_meta(), acc.state_arrays())
        assert clone.tracked_names == acc.tracked_names
        np.testing.assert_array_equal(
            clone.series("density"), acc.series("density")
        )
        for name in acc.names():
            np.testing.assert_array_equal(
                np.asarray(clone.estimate(name).mean),
                np.asarray(acc.estimate(name).mean),
            )


class TestAutocorrelationFFT:
    """The FFT rewrite must agree with the textbook direct sum exactly."""

    @staticmethod
    def direct_tau(samples, window_factor=6.0):
        x = np.asarray(samples, dtype=np.float64)
        x = x - x.mean()
        n = x.size
        var = float(x @ x) / n
        if var == 0.0:
            return 0.5
        tau = 0.5
        for t in range(1, n // 2):
            rho = float(x[:-t] @ x[t:]) / ((n - t) * var)
            tau += rho
            if t >= window_factor * tau:
                break
        return max(tau, 0.5)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_matches_direct_sum(self, rho):
        data = ar1(600, rho=rho, seed=11)
        fft_tau = integrated_autocorrelation_time(data)
        ref_tau = self.direct_tau(data)
        np.testing.assert_allclose(fft_tau, ref_tau, rtol=1e-10)

    def test_iid_near_half(self):
        data = np.random.default_rng(12).standard_normal(4000)
        assert abs(integrated_autocorrelation_time(data) - 0.5) < 0.2

    def test_correlated_exceeds_iid(self):
        tau = integrated_autocorrelation_time(ar1(4000, rho=0.9, seed=13))
        # AR(1): tau_int = (1+rho)/(2(1-rho)) = 9.5 for rho = 0.9
        assert tau > 4.0

    def test_constant_series(self):
        assert integrated_autocorrelation_time(np.ones(64)) == 0.5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            integrated_autocorrelation_time(np.zeros((8, 2)))
        with pytest.raises(ValueError):
            integrated_autocorrelation_time(np.zeros(3))
