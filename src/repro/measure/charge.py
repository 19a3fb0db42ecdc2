"""Charge (density-density) correlations and structure factor.

The charge channel complements the spin channel of paper Fig 7: at half
filling with repulsive U the *spin* correlations grow while *charge*
fluctuations are suppressed (charge gap), a standard cross-check that a
Hubbard simulation is in the right regime.

.. math::

    C_{nn}(r) = \\frac{1}{N} \\sum_{r'}
        \\big( \\langle n_{r+r'} n_{r'} \\rangle
             - \\langle n_{r+r'} \\rangle \\langle n_{r'} \\rangle \\big)

with ``n = n_+ + n_-``. Wick for a fixed HS sample: same-spin pairs
carry the exchange contraction, opposite-spin pairs factorize (but the
*connected* part subtracts the global mean-density product, sample-
averaged by the estimator downstream).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..lattice import SquareLattice, fourier_two_point
from .equal_time import density_per_spin, same_spin_exchange

__all__ = [
    "charge_density_correlation",
    "charge_structure_factor",
]


def charge_density_correlation(
    lattice: SquareLattice,
    g_up: np.ndarray,
    g_dn: np.ndarray,
    exchange: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Per-sample connected ``C_nn(r)``, indexed by displacement.

    "Connected" here subtracts the product of the *sample's* site
    densities — the standard per-configuration estimator; the Monte
    Carlo average then converges to the textbook connected correlator up
    to O(1/sweeps) cross-correlation terms that vanish in the average.
    ``exchange`` is the pair of same-spin exchange vectors (up, down)
    when the caller already formed them (as for
    :func:`~repro.measure.spin.spin_zz_correlation`).
    """
    tt = lattice.translation_table
    dens = density_per_spin(g_up) + density_per_spin(g_dn)

    # disconnected piece <n_a><n_b>, subtracted at the end
    out = (dens[tt] * dens[None, :]).mean(axis=1)
    # exchange contractions, same spin only
    if exchange is None:
        exchange = [same_spin_exchange(lattice, g) for g in (g_up, g_dn)]
    for x in exchange:
        out -= x
    out[0] += np.diag(g_up).mean() + np.diag(g_dn).mean()
    # connect: subtract the sample's mean-density square
    out -= dens.mean() ** 2
    return out


def charge_structure_factor(
    lattice: SquareLattice, cnn: np.ndarray, q_index: int | None = None
) -> float:
    """``N(q) = sum_r e^{-i q r} C_nn(r)`` at one momentum.

    Defaults to the zone-corner ``q = (pi, pi)`` (requires even
    extents), mirroring the AF spin structure factor so the two channels
    are directly comparable.
    """
    ck = fourier_two_point(lattice, cnn)
    if q_index is None:
        if lattice.lx % 2 or lattice.ly % 2:
            raise ValueError("(pi, pi) requires even lattice dimensions")
        q_index = lattice.index(lattice.lx // 2, lattice.ly // 2)
    return float(ck[q_index])
