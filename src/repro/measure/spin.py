"""z-component spin-spin correlations (paper Fig 7) and structure factors.

.. math::

    C_{zz}(r) = \\frac{1}{N} \\sum_{r'}
        \\langle (n_{r+r',+} - n_{r+r',-}) (n_{r',+} - n_{r',-}) \\rangle

For a fixed HS configuration the two spin species are independent
determinants, so Wick's theorem gives per sample

.. math::

    \\langle n_{a\\sigma} n_{b\\sigma} \\rangle =
        n_a n_b + (\\delta_{ab} - G_\\sigma(b,a)) G_\\sigma(a,b),
    \\qquad
    \\langle n_{a+} n_{b-} \\rangle = n_{a+} n_{b-}

and the cross terms carry no contraction. At half filling with U > 0 the
result is the antiferromagnetic chessboard of Fig 7: ``C_zz > 0`` on the
same sublattice, ``< 0`` on the opposite one.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..lattice import SquareLattice, fourier_two_point
from .equal_time import density_per_spin, same_spin_exchange

__all__ = [
    "spin_zz_correlation",
    "af_structure_factor",
    "longest_distance_correlation",
    "correlation_grid",
]


def spin_zz_correlation(
    lattice: SquareLattice,
    g_up: np.ndarray,
    g_dn: np.ndarray,
    exchange: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Per-sample ``C_zz(r)`` indexed by displacement site index.

    ``C_zz(0)`` is the local moment ``<m_z^2>``; the r = (lx/2, ly/2)
    entry is the longest-distance correlation used for bulk-limit
    extrapolation in the paper's Sec. V-A discussion. ``exchange`` is
    the pair of :func:`~repro.measure.equal_time.same_spin_exchange`
    vectors (up, down) when the caller already formed them.
    """
    tt = lattice.translation_table  # tt[r, b] = b + r
    m = density_per_spin(g_up) - density_per_spin(g_dn)

    # Disconnected moment-moment part: (1/N) sum_b m_{b+r} m_b.
    out = (m[tt] * m[None, :]).mean(axis=1)

    # Same-spin contractions: (1/N) sum_b (delta_ab - G(b,a)) G(a,b),
    # a = b + r. The delta contributes only at r = 0.
    if exchange is None:
        exchange = [same_spin_exchange(lattice, g) for g in (g_up, g_dn)]
    for x in exchange:
        out -= x
    out[0] += (
        np.diag(g_up).mean() + np.diag(g_dn).mean()
    )  # delta_ab G(a,a) terms
    return out


def af_structure_factor(lattice: SquareLattice, czz: np.ndarray) -> float:
    """Antiferromagnetic structure factor ``S(pi, pi) = sum_r e^{i pi.r} C_zz(r)``.

    Only defined (as the AF ordering vector) for even lattice dimensions;
    grows linearly with N in an ordered phase.
    """
    if lattice.lx % 2 or lattice.ly % 2:
        raise ValueError("(pi, pi) requires even lattice dimensions")
    ck = fourier_two_point(lattice, czz)
    return float(ck[lattice.index(lattice.lx // 2, lattice.ly // 2)])


def longest_distance_correlation(lattice: SquareLattice, czz: np.ndarray) -> float:
    """``C_zz(lx/2, ly/2)`` — the paper's bulk-order extrapolation input."""
    return float(czz[lattice.index(lattice.lx // 2, lattice.ly // 2)])


def correlation_grid(lattice: SquareLattice, czz: np.ndarray) -> np.ndarray:
    """Reshape C_zz to an (ly, lx) grid with displacement (0,0) centered.

    Axes run over displacements ``-l/2+1 .. l/2`` (after fftshift-style
    rolling), matching the paper's Fig 7 real-space maps.
    """
    grid = np.asarray(czz).reshape(lattice.ly, lattice.lx)
    return np.roll(
        grid,
        shift=(lattice.ly // 2 - 1 if lattice.ly > 1 else 0,
               lattice.lx // 2 - 1 if lattice.lx > 1 else 0),
        axis=(0, 1),
    )
