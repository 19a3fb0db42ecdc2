"""Statistical estimators: binning analysis and jackknife resampling.

Monte Carlo samples along a Markov chain are autocorrelated, so the naive
standard error underestimates the true uncertainty. The standard remedy
(used by QUEST) is *binning*: group consecutive samples into bins, treat
bin means as (approximately) independent, and quote the error of the bin
means. Jackknife over bins handles nonlinear functions of averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BinnedEstimate",
    "binned_statistics",
    "integrated_autocorrelation_time",
    "jackknife",
]


@dataclass(frozen=True)
class BinnedEstimate:
    """Mean and one-sigma error of a (possibly array-valued) observable."""

    mean: np.ndarray
    error: np.ndarray
    n_bins: int
    n_samples: int

    @property
    def scalar(self) -> float:
        """The mean as a float (raises for array observables)."""
        if np.ndim(self.mean) != 0:
            raise ValueError(
                f"observable is array-valued (shape "
                f"{np.shape(self.mean)}); index into .mean/.error instead "
                "of asking for a scalar"
            )
        return float(self.mean)

    @property
    def relative_error(self):
        """``|error / mean|`` — 0-d float for scalars, array otherwise.

        Safe at zero mean: a zero mean with a nonzero error yields inf
        (the relative error genuinely diverges), a zero mean with zero
        error yields 0.0, and no RuntimeWarning is emitted either way.
        """
        mean = np.asarray(self.mean, dtype=np.float64)
        err = np.asarray(self.error, dtype=np.float64)
        zero = mean == 0.0
        rel = np.abs(err) / np.where(zero, 1.0, np.abs(mean))
        rel = np.where(zero, np.where(err == 0.0, 0.0, np.inf), rel)
        return float(rel) if rel.ndim == 0 else rel

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if np.ndim(self.mean) == 0:
            return f"{float(self.mean):.6f} +- {float(self.error):.6f}"
        return (
            f"<array{np.shape(self.mean)} observable over "
            f"{self.n_bins} bins; use .mean/.error>"
        )


def binned_statistics(samples: np.ndarray, n_bins: int = 16) -> BinnedEstimate:
    """Binning analysis of a sample series (axis 0 = Monte Carlo time).

    Trailing samples that do not fill a whole bin are dropped. With fewer
    samples than ``2 * n_bins`` the bin count shrinks so each bin holds at
    least two samples; with a single sample the error is reported as inf.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n == 0:
        raise ValueError("no samples")
    if n == 1:
        return BinnedEstimate(
            mean=samples[0],
            error=np.full_like(samples[0], np.inf, dtype=np.float64),
            n_bins=1,
            n_samples=1,
        )
    n_bins = max(2, min(n_bins, n // 2))
    per_bin = n // n_bins
    used = n_bins * per_bin
    shaped = samples[:used].reshape((n_bins, per_bin) + samples.shape[1:])
    bin_means = shaped.mean(axis=1)
    mean = bin_means.mean(axis=0)
    # Standard error of the mean of the bin means.
    var = bin_means.var(axis=0, ddof=1)
    err = np.sqrt(var / n_bins)
    return BinnedEstimate(mean=mean, error=err, n_bins=n_bins, n_samples=n)


def integrated_autocorrelation_time(
    samples: np.ndarray, window_factor: float = 6.0
) -> float:
    """Integrated autocorrelation time with Sokal's automatic window.

    .. math::

        \\tau_{int} = \\tfrac{1}{2} + \\sum_{t=1}^{W} \\rho(t)

    where the window W is the smallest t with ``t >= window_factor *
    tau_int(t)`` (self-consistent truncation; Sokal's recipe). For iid
    samples tau = 1/2; the effective sample count is ``n / (2 tau)``,
    and a binned error bar is honest once bins exceed ~2 tau. Scalar
    series only.

    The autocovariances for every lag come from one FFT round trip
    (Wiener-Khinchin: zero-pad to >= 2n so the circular correlation
    equals the linear one), turning the former O(n * W) direct-sum
    loop into O(n log n) regardless of how wide the self-consistent
    window ends up; the windowed summation itself is unchanged, so the
    result matches the direct sum to floating-point roundoff.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("autocorrelation needs a scalar series")
    n = x.size
    if n < 4:
        raise ValueError("series too short")
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    # acov[t] = sum_i x[i] x[i+t], every lag at once
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n]
    var = acov[0] / n
    if var == 0.0:
        return 0.5  # constant series: iid-like by convention
    tau = 0.5
    for t in range(1, n // 2):
        rho = acov[t] / ((n - t) * var)  # same unbiased normalization
        tau += rho
        if t >= window_factor * tau:
            break
    return max(tau, 0.5)


def jackknife(
    samples: np.ndarray,
    func: Callable[[np.ndarray], np.ndarray],
    n_bins: int = 16,
) -> BinnedEstimate:
    """Jackknife estimate of ``func(mean(samples))`` with bias-corrected error.

    ``func`` receives the mean over Monte Carlo time (axis 0) of a sample
    block and may return a scalar or array. Used for nonlinear combinations
    such as sign-weighted ratios or structure-factor ratios.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n < 2:
        full = np.asarray(func(samples.mean(axis=0)))
        return BinnedEstimate(
            mean=full, error=np.full_like(full, np.inf, dtype=np.float64),
            n_bins=1, n_samples=n,
        )
    n_bins = max(2, min(n_bins, n // 2))
    per_bin = n // n_bins
    used = n_bins * per_bin
    shaped = samples[:used].reshape((n_bins, per_bin) + samples.shape[1:])
    bin_sums = shaped.sum(axis=1)
    total = bin_sums.sum(axis=0)
    full_mean = np.asarray(func(total / used))
    # Leave-one-bin-out estimates.
    thetas = np.array(
        [
            func((total - bin_sums[b]) / (used - per_bin))
            for b in range(n_bins)
        ]
    )
    theta_bar = thetas.mean(axis=0)
    var = (n_bins - 1) / n_bins * np.sum((thetas - theta_bar) ** 2, axis=0)
    bias_corrected = n_bins * full_mean - (n_bins - 1) * theta_bar
    return BinnedEstimate(
        mean=bias_corrected, error=np.sqrt(var), n_bins=n_bins, n_samples=n
    )

