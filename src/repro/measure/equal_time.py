"""Equal-time observables from the spin-resolved Green's functions.

Every function takes dense ``g_up, g_dn`` — the equal-time Green's
functions ``G_sigma(i, j) = <c_i c_j^dagger>`` for one HS-field sample —
and returns the corresponding *per-sample* estimate. Statistical
averaging lives in :mod:`repro.measure.estimators`; keeping the two
layers separate makes each observable a pure, unit-testable function.

Conventions: ``<c_i^dagger c_j> = delta_ij - G(j, i)``, so the local
density per spin is ``1 - G(i, i)``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..lattice import MultilayerLattice, SquareLattice

Lattice = Union[SquareLattice, MultilayerLattice]

__all__ = [
    "density_per_spin",
    "total_density",
    "double_occupancy",
    "kinetic_energy",
    "greens_displacement_average",
    "same_spin_exchange",
]


def density_per_spin(g: np.ndarray) -> np.ndarray:
    """Site-resolved density ``<n_{i,sigma}> = 1 - G(i, i)``."""
    return 1.0 - np.diag(g)


def total_density(g_up: np.ndarray, g_dn: np.ndarray) -> float:
    """Mean electron density rho in [0, 2]; 1 at half filling."""
    n = g_up.shape[0]
    return float((2.0 * n - np.trace(g_up) - np.trace(g_dn)) / n)


def double_occupancy(g_up: np.ndarray, g_dn: np.ndarray) -> float:
    """Mean double occupancy ``<n_up n_dn>`` (site-averaged).

    The two spin species live in independent determinants for a fixed HS
    configuration, so the per-sample expectation factorizes exactly.
    """
    n_up = density_per_spin(g_up)
    n_dn = density_per_spin(g_dn)
    return float(np.mean(n_up * n_dn))


def kinetic_energy(
    lattice: Lattice, g_up: np.ndarray, g_dn: np.ndarray, t: float = 1.0,
    t_perp: float = 1.0,
) -> float:
    """``<H_T>`` per site.

    ``H_T = -t sum_<ij>,sigma (c_i^dag c_j + h.c.)`` and
    ``<c_i^dag c_j> = -G(j, i)`` off-diagonal, so each bond contributes
    ``+t * (G(i,j) + G(j,i))`` per spin; the sum runs over the symmetric
    adjacency, with the inter-layer bonds weighted by t_perp.
    """
    if isinstance(lattice, MultilayerLattice):
        a = t * lattice.intra_layer_adjacency + t_perp * lattice.inter_layer_adjacency
    else:
        a = t * lattice.adjacency
    total = float(np.sum(a * (g_up + g_dn)))
    return total / lattice.n_sites


def greens_displacement_average(
    lattice: SquareLattice, g: np.ndarray, transpose: bool = False
) -> np.ndarray:
    """Translation-averaged Green's function indexed by displacement.

    ``out[r] = (1/N) sum_i G(i, i + r)`` (or ``G(i + r, i)`` when
    ``transpose``), for every leading index of a ``(..., N, N)`` stack.
    This is the only O(N^2) reduction measurements need; it is one gather
    at flat positions plus a mean, no Python double loop.
    """
    n = lattice.n_sites
    flat = _displaced_positions(lattice, transpose)
    vals = np.take(g.reshape(g.shape[:-2] + (n * n,)), flat, axis=-1)
    return vals.mean(axis=-1)


def _displaced_positions(lattice: SquareLattice, transpose: bool) -> np.ndarray:
    """Flat positions ``[r, i]`` of ``(i, i + r)`` in an N x N matrix, or
    of ``(i + r, i)`` when ``transpose``."""
    n = lattice.n_sites
    tt = lattice.translation_table  # tt[r, i] = i + r
    rows = np.arange(n)[None, :]
    return tt * n + rows if transpose else rows * n + tt


def same_spin_exchange(lattice: SquareLattice, g: np.ndarray) -> np.ndarray:
    """``(1/N) sum_b G(b, a) G(a, b)`` with ``a = b + r``, per displacement.

    The same-spin Wick contraction of ``<n_a n_b>`` that both the spin
    and the charge correlation subtract, one spin sector at a time.
    """
    flat = g.reshape(-1)
    gab = np.take(flat, _displaced_positions(lattice, transpose=True))  # G(a, b)
    gba = np.take(flat, _displaced_positions(lattice, transpose=False))  # G(b, a)
    return (gba * gab).mean(axis=1)
