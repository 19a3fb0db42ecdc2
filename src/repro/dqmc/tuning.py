"""Production helpers: chemical-potential calibration.

Away from half filling the density is an *output* of a DQMC run, not an
input; studies at fixed doping (e.g. the cuprate phase diagram) must
first find the ``mu`` that delivers the target density. This module does
the standard bisection: density is monotone in mu (compressibility is
non-negative), so a bracketing search over short calibration runs
converges in ~log2(range/tol) runs.

Away from mu = 0 the model has a sign problem; the calibration runs use
the sign-weighted density <rho * s> / <s>, which is only defined while
<sign> stays away from 0. A collapsed sign is a hard error
(:class:`SignProblemError`) — the uncorrected sign-weighted density is a
*different observable*, and bisecting on it silently converges to the
wrong mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..hamiltonian import HubbardModel, free_greens_function
from ..linalg import chain_conditioning_report
from ..measure import total_density
from .simulation import Simulation

__all__ = [
    "MuCalibration",
    "CalibrationError",
    "SignProblemError",
    "calibrate_mu",
]

#: |<sign>| at or below this is treated as a collapsed sign: the
#: sign-corrected density <rho s>/<s> amplifies its Monte Carlo noise by
#: 1/<s> past any usable precision.
SIGN_FLOOR = 1e-3


@dataclass
class MuCalibration:
    """Outcome of a chemical-potential search."""

    mu: float
    density: float
    target: float
    n_runs: int
    mean_sign: float
    history: List[tuple]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"mu = {self.mu:+.5f} -> rho = {self.density:.4f} "
            f"(target {self.target:.4f}, {self.n_runs} runs, "
            f"<sign> = {self.mean_sign:+.3f})"
        )


class SignProblemError(RuntimeError):
    """The average sign collapsed below :data:`SIGN_FLOOR` during a
    calibration run, so no unbiased density estimate exists there.

    Attributes
    ----------
    mu:
        The chemical potential of the offending run.
    mean_sign:
        The collapsed ``<sign>`` that triggered the error.
    history:
        ``(mu, density, sign)`` triples of every calibration run so far
        (attached by :func:`calibrate_mu`; empty when raised directly).
    """

    def __init__(self, mu: float, mean_sign: float):
        self.mu = mu
        self.mean_sign = mean_sign
        self.history: List[tuple] = []
        super().__init__(
            f"sign problem at mu = {mu:.4f}: |<sign>| = "
            f"{abs(mean_sign):.2e} <= {SIGN_FLOOR:g}; the sign-corrected "
            "density <rho s>/<s> is undefined here — shrink mu_range, "
            "raise the temperature, or increase sweeps"
        )


class CalibrationError(RuntimeError):
    """Bisection exhausted ``max_runs`` without meeting the tolerance.

    Carries everything needed to *resume* instead of restarting:

    Attributes
    ----------
    history:
        ``(mu, density, sign)`` triples of every run performed.
    bracket:
        The final ``(lo, hi)`` mu interval — pass it as ``mu_range`` to
        a follow-up :func:`calibrate_mu` call to continue the search.
    best:
        Best-so-far :class:`MuCalibration` (the run whose density landed
        closest to the target), usable directly when its miss is
        tolerable.
    """

    def __init__(
        self,
        message: str,
        history: List[tuple],
        bracket: Tuple[float, float],
        best: Optional[MuCalibration],
    ):
        self.history = history
        self.bracket = bracket
        self.best = best
        super().__init__(message)


def _density_at(model: HubbardModel, mu: float, sweeps: int, seed: int):
    m = model.with_(mu=mu)
    if m.u == 0.0:
        # exact, no Monte Carlo needed
        g = free_greens_function(m.kinetic_matrix(), m.beta)
        return total_density(g, g), 1.0
    sim = Simulation(m, seed=seed, cluster_size=_cluster_for(m),
                     measure_arrays=False)
    res = sim.run(
        warmup_sweeps=max(5, sweeps // 4), measurement_sweeps=sweeps
    )
    dens = res.observables["density"].scalar
    sign = res.mean_sign
    # sign-corrected density <rho * s> / <s>; a collapsed <s> means no
    # unbiased estimate exists — refuse loudly rather than bisect on the
    # (biased) sign-weighted density.
    if abs(sign) <= SIGN_FLOOR:
        raise SignProblemError(mu=mu, mean_sign=sign)
    return dens / sign, sign


def _cluster_for(model: HubbardModel) -> int:
    """Cluster size for a calibration run: the conditioning report's
    suggested k, the divisor of ``n_slices`` nearest the safe target.

    A prime L yields an over-budget k = L rather than k = 1 (which
    re-stratifies every slice, an order of magnitude slower per
    calibration run); that is fine at calibration accuracy.
    """
    return chain_conditioning_report(model).suggested_cluster_size


def calibrate_mu(
    model: HubbardModel,
    target_density: float,
    mu_range: tuple = (-6.0, 6.0),
    tol: float = 0.01,
    sweeps: int = 60,
    seed: int = 0,
    max_runs: int = 24,
) -> MuCalibration:
    """Find mu with ``|rho(mu) - target| <= tol`` by bisection.

    Parameters
    ----------
    model:
        Template model; its ``mu`` field is ignored.
    target_density:
        Desired rho in (0, 2).
    mu_range:
        Bracketing interval; must actually bracket the target (checked).
    tol:
        Density tolerance.
    sweeps:
        Measurement sweeps per calibration run (short on purpose).
    max_runs:
        Hard cap on calibration runs. Exceeding it raises
        :class:`CalibrationError` carrying the history, the final
        bracket and the best-so-far result, so the search can be
        *resumed* (``mu_range=exc.bracket``) instead of restarted —
        usually it means tol is below the Monte Carlo noise of
        ``sweeps``.

    Raises
    ------
    SignProblemError
        When any calibration run's ``|<sign>|`` collapses below
        :data:`SIGN_FLOOR` (history attached).
    CalibrationError
        On non-convergence within ``max_runs``.
    """
    if not 0.0 < target_density < 2.0:
        raise ValueError("target density must lie in (0, 2)")
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if lo >= hi:
        raise ValueError("mu_range must be increasing")

    history: List[tuple] = []
    runs = 0

    def rho(mu: float):
        nonlocal runs
        runs += 1
        try:
            d, s = _density_at(model, mu, sweeps, seed + runs)
        except SignProblemError as exc:
            exc.history = list(history)
            raise
        history.append((mu, d, s))
        return d, s

    def best_so_far() -> Optional[MuCalibration]:
        if not history:
            return None
        mu_b, d_b, s_b = min(
            history, key=lambda h: abs(h[1] - target_density)
        )
        return MuCalibration(
            mu=mu_b, density=d_b, target=target_density,
            n_runs=runs, mean_sign=s_b, history=list(history),
        )

    d_lo, _ = rho(lo)
    d_hi, _ = rho(hi)
    if not d_lo - tol <= target_density <= d_hi + tol:
        raise ValueError(
            f"mu_range does not bracket the target: rho({lo}) = {d_lo:.3f}, "
            f"rho({hi}) = {d_hi:.3f}, target {target_density}"
        )

    mu_mid, d_mid = lo, d_lo
    while runs < max_runs:
        mu_mid = 0.5 * (lo + hi)
        d_mid, s_mid = rho(mu_mid)
        if abs(d_mid - target_density) <= tol:
            return MuCalibration(
                mu=mu_mid, density=d_mid, target=target_density,
                n_runs=runs, mean_sign=s_mid, history=history,
            )
        if d_mid < target_density:
            lo = mu_mid
        else:
            hi = mu_mid
    raise CalibrationError(
        f"calibration did not converge in {max_runs} runs "
        f"(last: mu = {mu_mid:.4f}, rho = {d_mid:.4f}, "
        f"bracket [{lo:.4f}, {hi:.4f}]); resume with mu_range=exc.bracket "
        "or raise sweeps/tol",
        history=history,
        bracket=(lo, hi),
        best=best_so_far(),
    )
