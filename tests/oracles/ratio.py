"""Reference estimators over explicit sample series.

A run keeps log-binned estimates, not series, so its sign-corrected
ratios and cross-chain R-hat come from estimates alone
(:func:`repro.stats.propagate_ratio_error`,
:func:`repro.stats.rhat_from_estimates`). These are the series-based
analyses they are checked against: the leave-one-bin-out jackknife over
joint (numerator, sign) series, exact for the nonlinear ratio, and the
classic split-R-hat.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.measure import BinnedEstimate
from repro.stats.ratio import SIGN_FLOOR

__all__ = ["sign_corrected_ratio", "split_rhat"]


def sign_corrected_ratio(
    numerator: np.ndarray,
    sign: np.ndarray,
    n_bins: int = 16,
) -> BinnedEstimate:
    """Jackknife estimate of ``<O s> / <s>`` from joint sample series.

    ``numerator`` holds the sign-weighted samples (Monte Carlo time on
    axis 0, scalar or array valued); ``sign`` the matching sign series.
    Bins both consistently, forms leave-one-bin-out ratios, and returns
    the bias-corrected jackknife mean with the jackknife error.
    """
    num = np.asarray(numerator, dtype=np.float64)
    sgn = np.asarray(sign, dtype=np.float64)
    if sgn.ndim != 1:
        raise ValueError("sign series must be scalar")
    if num.shape[0] != sgn.shape[0]:
        raise ValueError(
            f"numerator has {num.shape[0]} samples but sign has "
            f"{sgn.shape[0]}"
        )
    n = num.shape[0]
    if n == 0:
        raise ValueError("no samples")
    mean_sign = float(sgn.mean())
    if abs(mean_sign) < SIGN_FLOOR:
        raise ValueError(
            f"mean sign {mean_sign:g} is numerically zero; the "
            "sign-corrected ratio is undefined (hard sign problem)"
        )
    if n < 4:
        full = num.mean(axis=0) / mean_sign
        return BinnedEstimate(
            mean=np.asarray(full),
            error=np.full_like(np.asarray(full), np.inf, dtype=np.float64),
            n_bins=1,
            n_samples=n,
        )
    n_bins = max(2, min(n_bins, n // 2))
    per_bin = n // n_bins
    used = n_bins * per_bin
    num_bins = num[:used].reshape((n_bins, per_bin) + num.shape[1:]).sum(axis=1)
    sgn_bins = sgn[:used].reshape(n_bins, per_bin).sum(axis=1)
    num_total = num_bins.sum(axis=0)
    sgn_total = sgn_bins.sum()
    full = num_total / sgn_total
    # Leave-one-bin-out ratios.
    loo_sgn = sgn_total - sgn_bins
    if np.any(np.abs(loo_sgn) < SIGN_FLOOR * used):
        raise ValueError(
            "a leave-one-bin-out sign average is numerically zero; "
            "too few effective samples for a sign-corrected ratio"
        )
    shape_tail = (1,) * (num.ndim - 1)
    thetas = (num_total - num_bins) / loo_sgn.reshape((n_bins,) + shape_tail)
    theta_bar = thetas.mean(axis=0)
    var = (n_bins - 1) / n_bins * np.sum((thetas - theta_bar) ** 2, axis=0)
    bias_corrected = n_bins * full - (n_bins - 1) * theta_bar
    return BinnedEstimate(
        mean=np.asarray(bias_corrected),
        error=np.sqrt(var),
        n_bins=n_bins,
        n_samples=n,
    )


def split_rhat(chains: Sequence[np.ndarray]) -> float:
    """Split-R-hat over independent chains' scalar sample series.

    Each chain is split in half (so intra-chain drift shows up as
    between-"chain" variance), then the classic potential scale
    reduction ``sqrt((W (n-1)/n + B/n) / W)`` is computed over the
    2m half-chains. Values near 1 indicate convergence; > ~1.05 means
    the chains disagree beyond their internal fluctuations. Returns NaN
    when there is not enough data (any half shorter than 4 samples).
    """
    halves = []
    for chain in chains:
        x = np.asarray(chain, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("split_rhat needs scalar series")
        half = x.size // 2
        if half < 4:
            return float("nan")
        halves.append(x[:half])
        halves.append(x[half: 2 * half])
    n = min(h.size for h in halves)
    halves = [h[:n] for h in halves]
    m = len(halves)
    if m < 2:
        return float("nan")
    means = np.array([h.mean() for h in halves])
    variances = np.array([h.var(ddof=1) for h in halves])
    w = float(variances.mean())
    b = n * float(means.var(ddof=1))
    if w == 0.0:
        return 1.0 if b == 0.0 else float("inf")
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))
