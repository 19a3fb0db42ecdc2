"""Sign-corrected estimators and cross-chain convergence diagnostics.

Away from half filling the fermion sign is not identically +1 and every
physical expectation value is a *ratio* of Monte Carlo averages,
``<O> = <O s> / <s>``. The measurement layer records the sign-weighted
numerators; this module owns the division and — crucially — the error
propagation, which the old ``MeasurementCollector.results`` docstring
left to the caller ("divide by the sign estimate" with no error bar).

One propagation path: :func:`propagate_ratio_error` combines two
:class:`~repro.measure.BinnedEstimate` objects without their sample
series, dropping the numerator-sign covariance term (conservative;
exact at half filling where the sign variance is zero). Every run,
checkpoint report and merged catalog uses it.
:func:`sign_corrected_ratio` — the leave-one-bin-out jackknife over
joint (numerator, sign) series, exact for the nonlinear ratio — is the
analysis of an explicit pair of series and the reference the
propagated ratio is tested against.

Cross-chain convergence: :func:`rhat_from_estimates` is the
moment-based R-hat over per-chain binned estimates (ensemble chains,
campaign replicas); :func:`split_rhat` is the classic split-R-hat over
explicit series, its reference.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..measure.estimators import BinnedEstimate

__all__ = [
    "propagate_ratio_error",
    "rhat_from_estimates",
    "sign_corrected_ratio",
    "sign_corrected_results",
    "split_rhat",
]

#: |<s>| below this is a hard sign problem: the ratio is statistically
#: meaningless and we refuse to quote one.
SIGN_FLOOR = 1e-12


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


def propagate_ratio_error(
    numerator: BinnedEstimate, sign: BinnedEstimate
) -> BinnedEstimate:
    """Sign-corrected estimate from two binned estimates (no series).

    Linear (delta-method) propagation of ``r = n/s``::

        sigma_r^2 = (sigma_n / s)^2 + (n sigma_s / s^2)^2

    The numerator-sign covariance term is dropped — unavailable without
    the joint series — which makes the error *conservative* for the
    usual positively-correlated case, and exact at half filling where
    ``sigma_s = 0``. Runs and catalog merges use this path.
    """
    s = float(np.asarray(sign.mean))
    if abs(s) < SIGN_FLOOR:
        raise ValueError(
            f"mean sign {s:g} is numerically zero; the sign-corrected "
            "ratio is undefined (hard sign problem)"
        )
    s_err = float(np.asarray(sign.error))
    mean = np.asarray(numerator.mean, dtype=np.float64) / s
    err = np.sqrt(
        (np.asarray(numerator.error, dtype=np.float64) / s) ** 2
        + (mean * s_err / s) ** 2
    )
    return BinnedEstimate(
        mean=mean,
        error=err,
        n_bins=min(numerator.n_bins, sign.n_bins),
        n_samples=numerator.n_samples,
    )


def sign_corrected_results(
    accumulator, n_bins: int = 16
) -> Dict[str, BinnedEstimate]:
    """Sign-corrected estimates of every observable in an accumulator.

    Linear propagation from the log-binned estimates; the ``"sign"``
    entry itself stays the raw sign estimate. Without a recorded sign
    the raw estimates are returned unchanged (nothing to correct).
    """
    names = list(accumulator.names())
    if "sign" not in names or not accumulator.n_samples("sign"):
        return accumulator.reduce(n_bins=n_bins)
    sign_est = accumulator.estimate("sign", n_bins=n_bins)
    out: Dict[str, BinnedEstimate] = {"sign": sign_est}
    for name in names:
        if name == "sign" or not accumulator.n_samples(name):
            continue
        out[name] = propagate_ratio_error(
            accumulator.estimate(name, n_bins=n_bins), sign_est
        )
    return out


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


def rhat_from_estimates(estimates: Sequence[BinnedEstimate]) -> float:
    """Moment-based R-hat when only per-chain binned estimates survive.

    Compares the between-chain spread of the chain means against the
    chains' own (autocorrelation-aware) squared standard errors::

        R = sqrt( (W_se + B_mean) / W_se )

    with ``W_se`` the mean squared per-chain standard error and
    ``B_mean`` the variance of the chain means. Like split-R-hat it is
    ~1 for honest chains and grows when chains disagree beyond their
    quoted errors; unlike split-R-hat it cannot see *intra*-chain
    drift, so it complements (not replaces) equilibration detection.
    Scalar estimates only; NaN with fewer than two chains.
    """
    if len(estimates) < 2:
        return float("nan")
    means = np.array([float(np.asarray(e.mean)) for e in estimates])
    ses = np.array([float(np.asarray(e.error)) for e in estimates])
    if not np.all(np.isfinite(ses)):
        return float("nan")
    w = float(np.mean(ses**2))
    b = float(means.var(ddof=1))
    if w == 0.0:
        return 1.0 if b == 0.0 else float("inf")
    return float(np.sqrt((w + b) / w))
