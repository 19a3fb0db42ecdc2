"""Sign-corrected ratio estimators and cross-chain R-hat diagnostics."""

import numpy as np
import pytest

from repro.measure import binned_statistics
from repro.stats import (
    StreamingAccumulator,
    propagate_ratio_error,
    rhat_from_estimates,
    sign_corrected_results,
)
from tests.oracles.ratio import sign_corrected_ratio, split_rhat


class TestJackknifeRatio:
    def test_constant_sign_reduces_to_binning(self):
        """At half filling (<s> = 1) the jackknife ratio must coincide
        with the plain binning analysis — same mean, same error."""
        rng = np.random.default_rng(0)
        num = 1.0 + 0.05 * rng.standard_normal(320)
        est = sign_corrected_ratio(num, np.ones(320), n_bins=16)
        ref = binned_statistics(num, n_bins=16)
        np.testing.assert_allclose(float(est.mean), float(ref.mean), atol=1e-12)
        np.testing.assert_allclose(
            float(est.error), float(ref.error), rtol=1e-10
        )

    def test_recovers_known_ratio(self):
        rng = np.random.default_rng(1)
        sign = rng.choice([1.0, -1.0], size=4000, p=[0.8, 0.2])  # <s> = 0.6
        true_obs = 0.7
        num = true_obs * sign + 0.02 * rng.standard_normal(4000)
        est = sign_corrected_ratio(num, sign)
        assert abs(float(est.mean) - true_obs) < 5 * float(est.error)
        assert float(est.error) < 0.05

    def test_array_numerator(self):
        rng = np.random.default_rng(2)
        sign = np.ones(160)
        num = rng.standard_normal((160, 3))
        est = sign_corrected_ratio(num, sign)
        ref = binned_statistics(num)
        assert np.shape(est.mean) == (3,)
        np.testing.assert_allclose(est.mean, ref.mean, atol=1e-12)

    def test_hard_sign_problem_refused(self):
        sign = np.tile([1.0, -1.0], 50)  # <s> = 0 exactly
        with pytest.raises(ValueError, match="sign"):
            sign_corrected_ratio(np.ones(100), sign)

    def test_length_mismatch_refused(self):
        with pytest.raises(ValueError, match="samples"):
            sign_corrected_ratio(np.ones(10), np.ones(11))

    def test_tiny_series_gets_inf_error(self):
        est = sign_corrected_ratio(np.ones(3), np.ones(3))
        assert np.isinf(float(est.error))
        assert float(est.mean) == 1.0


class TestPropagation:
    def test_bounds_the_jackknife_reference(self):
        """With a positively correlated (numerator, sign) pair the
        dropped covariance term makes the propagated error conservative
        against the exact jackknife ratio of the same series, and the two
        means agree within that error."""
        rng = np.random.default_rng(10)
        sign = rng.choice([1.0, -1.0], size=4096, p=[0.85, 0.15])
        num = 0.7 * sign + 0.02 * rng.standard_normal(4096)
        ref = sign_corrected_ratio(num, sign)
        est = propagate_ratio_error(
            binned_statistics(num), binned_statistics(sign)
        )
        assert float(est.error) >= float(ref.error)
        assert abs(float(est.mean) - float(ref.mean)) < float(est.error)

    def test_exact_at_zero_sign_variance(self):
        num = binned_statistics(2.0 + np.random.default_rng(3).standard_normal(64))
        sgn = binned_statistics(np.ones(64))
        est = propagate_ratio_error(num, sgn)
        np.testing.assert_allclose(float(est.mean), float(num.mean))
        np.testing.assert_allclose(float(est.error), float(num.error))

    def test_sign_noise_inflates_error(self):
        rng = np.random.default_rng(4)
        num = binned_statistics(1.0 + 0.01 * rng.standard_normal(256))
        noisy_sign = binned_statistics(
            rng.choice([1.0, -1.0], size=256, p=[0.75, 0.25])
        )
        est = propagate_ratio_error(num, noisy_sign)
        assert float(est.error) > float(num.error)

    def test_hard_sign_problem_refused(self):
        num = binned_statistics(np.ones(32))
        zero_sign = binned_statistics(np.tile([1.0, -1.0], 16))
        with pytest.raises(ValueError, match="sign"):
            propagate_ratio_error(num, zero_sign)


class TestSignCorrectedResults:
    def fill(self, acc, n=256, seed=5):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            s = 1.0
            acc.add("sign", s)
            acc.add("density", s * (1.0 + 0.01 * rng.standard_normal()))

    def test_posthoc_and_streaming_agree_at_constant_sign(self):
        """The accumulator's propagated ratio against the jackknife ratio
        of the same series: identical at constant sign (256 = 16 * 2^4
        samples, so the bins line up)."""
        stream = StreamingAccumulator(track=["sign", "density"])
        self.fill(stream)
        s = sign_corrected_results(stream)
        p = sign_corrected_ratio(
            stream.series("density"), stream.series("sign")
        )
        assert set(s) == {"sign", "density"}
        np.testing.assert_allclose(
            float(p.mean), float(s["density"].mean), atol=1e-12
        )
        np.testing.assert_allclose(
            float(p.error), float(s["density"].error), rtol=1e-9
        )

    def test_without_sign_returns_raw(self):
        acc = StreamingAccumulator()
        acc.add("density", 1.0)
        acc.add("density", 2.0)
        out = sign_corrected_results(acc)
        assert set(out) == {"density"}
        assert float(out["density"].mean) == 1.5


class TestRhat:
    def test_honest_chains_near_one(self):
        rng = np.random.default_rng(6)
        chains = [rng.standard_normal(500) for _ in range(4)]
        r = split_rhat(chains)
        assert 0.95 < r < 1.05

    def test_disagreeing_chains_flagged(self):
        rng = np.random.default_rng(7)
        chains = [
            rng.standard_normal(500),
            5.0 + rng.standard_normal(500),
        ]
        assert split_rhat(chains) > 1.5

    def test_intra_chain_drift_flagged(self):
        t = np.linspace(0, 5, 600)
        chains = [t + 0.1 * np.random.default_rng(8).standard_normal(600)]
        assert split_rhat(chains) > 1.5

    def test_too_short_is_nan(self):
        assert np.isnan(split_rhat([np.arange(5.0)]))

    def test_estimate_variant_tracks_split_rhat(self):
        """The moment-based R-hat over per-chain estimates reads the
        same verdict as split-R-hat over the chains' series."""
        rng = np.random.default_rng(11)
        honest = [rng.standard_normal(512) for _ in range(4)]
        shifted = honest[:2] + [3.0 + rng.standard_normal(512)]
        for chains, agree in ((honest, True), (shifted, False)):
            ests = [binned_statistics(c) for c in chains]
            assert (split_rhat(chains) < 1.05) is agree
            assert (rhat_from_estimates(ests) < 1.6) is agree

    def test_estimate_variant(self):
        rng = np.random.default_rng(9)
        ests = [
            binned_statistics(rng.standard_normal(400)) for _ in range(4)
        ]
        assert 0.9 < rhat_from_estimates(ests) < 1.6
        shifted = ests[:2] + [binned_statistics(9.0 + rng.standard_normal(400))]
        assert rhat_from_estimates(shifted) > 2.0
        assert np.isnan(rhat_from_estimates(ests[:1]))
