"""Chain-conditioning diagnostics and the cluster-size choice.

The paper fixes k = l = 10 by experience. These helpers make the choice
principled: the grading a chain accumulates per slice is governed by the
*spread* of the B-matrix singular values, which for the Hubbard slice
propagator is bounded through

    cond(B_l) <= exp(2 nu) * cond(exp(-dtau K))
              =  exp(2 nu) * exp(dtau * (e_max - e_min))

so a cluster of k slices (or k consecutive wraps) mixes scales spanning
up to ``cond(B)^k``. Requiring that span to stay a safety margin below
1/eps gives the largest safe k — and the same bound governs the wrap
count, which is why QUEST ties them together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = [
    "slice_condition_bound",
    "max_safe_cluster_size",
    "divisors",
    "divisor_near",
    "ConditioningReport",
    "chain_conditioning_report",
]

#: Double-precision unit roundoff.
EPS = float(np.finfo(np.float64).eps)


def slice_condition_bound(nu: float, dtau: float, bandwidth: float) -> float:
    """Upper bound on ``cond(B_l)`` for one slice propagator.

    Parameters
    ----------
    nu:
        HS coupling (the V factor spans ``exp(+-nu)``).
    dtau, bandwidth:
        Trotter step and the spectral width ``e_max - e_min`` of K
        (8t for the 2D square lattice at mu = 0).
    """
    return math.exp(2.0 * nu) * math.exp(dtau * bandwidth)


def max_safe_cluster_size(
    nu: float,
    dtau: float,
    bandwidth: float,
    safety_digits: float = 3.0,
) -> int:
    """Largest k with ``cond(B)^k <= eps^{-1} / 10^{safety_digits}``.

    ``safety_digits`` reserves accuracy headroom: with the default 3,
    the intra-cluster dynamic range stays below ~1e13 so the cluster
    product still carries ~3 significant digits in its smallest scales.
    This margin recovers the paper's empirical k = 10 exactly at its
    production parameters (U = 2, dtau = 0.2). Always at least 1.
    """
    per_slice = math.log(slice_condition_bound(nu, dtau, bandwidth))
    budget = -math.log(EPS) - safety_digits * math.log(10.0)
    if per_slice <= 0:
        return 10**6  # free fermions: no grading at all
    return max(1, int(budget / per_slice))


def divisors(n: int) -> List[int]:
    """All positive divisors of ``n``, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [d for d in range(1, n + 1) if n % d == 0]


def divisor_near(n: int, target: int, cap: Optional[int] = None) -> int:
    """The divisor of ``n`` nearest ``target`` (ties prefer the smaller,
    better-conditioned choice).

    Divisors are preferred from the window ``2 <= d <= cap`` (``cap``
    is the conditioning-safe bound); only when that window contains no
    divisor at all — prime ``n_slices``, say, where the choices are 1
    and n — does the search fall back to every divisor, so a prime L
    yields L (one big, slightly over-budget cluster) instead of the
    pathological k = 1.
    """
    divs = divisors(n)
    preferred = [d for d in divs if d >= 2 and (cap is None or d <= cap)]
    pool = preferred or divs
    return min(pool, key=lambda d: (abs(d - target), d))


@dataclass(frozen=True)
class ConditioningReport:
    """What the chain's grading looks like and what parameters it allows.

    ``max_safe_cluster_size`` is the conditioning bound itself;
    ``suggested_cluster_size`` is the divisor of L the engine can use
    nearest ``min(10, bound)``.
    """

    nu: float
    dtau: float
    bandwidth: float
    slice_cond_bound: float
    max_safe_cluster_size: int
    suggested_cluster_size: int

    def describe(self) -> str:
        return (
            f"per-slice cond(B) <= {self.slice_cond_bound:.3g}; "
            f"safe cluster/wrap size k <= {self.max_safe_cluster_size} "
            f"(suggested k = {self.suggested_cluster_size})"
        )


def chain_conditioning_report(model) -> ConditioningReport:
    """Conditioning analysis of a :class:`~repro.HubbardModel`.

    The spectral width of K is computed exactly (one eigh of an N x N
    symmetric matrix, done once). The suggested k aims at the paper's
    empirical 10 — beyond that the QR-count savings flatten (see the
    cluster-size ablation) while the error budget keeps shrinking, so
    there is no reason to push it — and must divide L.
    """
    w = np.linalg.eigvalsh(model.kinetic_matrix())
    bandwidth = float(w[-1] - w[0])
    nu = model.nu
    safe = max_safe_cluster_size(nu, model.dtau, bandwidth)
    return ConditioningReport(
        nu=nu,
        dtau=model.dtau,
        bandwidth=bandwidth,
        slice_cond_bound=slice_condition_bound(nu, model.dtau, bandwidth),
        max_safe_cluster_size=safe,
        suggested_cluster_size=divisor_near(
            model.n_slices, target=min(10, safe), cap=safe
        ),
    )
