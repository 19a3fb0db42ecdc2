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

Cross-chain convergence: :func:`rhat_from_estimates` is the
moment-based R-hat over per-chain binned estimates (ensemble chains,
campaign replicas).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..measure.estimators import BinnedEstimate

__all__ = [
    "propagate_ratio_error",
    "rhat_from_estimates",
    "sign_corrected_results",
]

#: |<s>| below this is a hard sign problem: the ratio is statistically
#: meaningless and we refuse to quote one.
SIGN_FLOOR = 1e-12


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
