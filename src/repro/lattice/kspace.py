"""Momentum-space machinery: allowed momenta, symmetry paths, transforms.

The paper's Figs 5-6 plot the momentum distribution of a periodic
rectangular lattice along the high-symmetry path

    (0,0) -> (pi,pi) -> (pi,0) -> (0,0)

and as a full Brillouin-zone contour map. Allowed momenta of an lx x ly
periodic lattice are ``k = 2*pi*(nx/lx, ny/ly)``; this module enumerates
them, walks symmetry paths through the ones actually present at a given
size, and Fourier-transforms real-space two-point functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .square import SquareLattice

__all__ = [
    "BrillouinZone",
    "momentum_grid",
    "symmetry_path",
    "fourier_two_point",
    "SYMMETRY_CORNERS",
]

# The path the paper plots, as fractions of (pi, pi).
SYMMETRY_CORNERS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (np.pi, np.pi),
    (np.pi, 0.0),
    (0.0, 0.0),
)


def momentum_grid(lx: int, ly: int) -> np.ndarray:
    """All allowed momenta of an lx x ly periodic lattice.

    Returns an (lx*ly, 2) array ordered like site indices (kx fastest),
    with components folded into ``(-pi, pi]``.
    """
    nx = np.arange(lx)
    ny = np.arange(ly)
    kx = 2.0 * np.pi * nx / lx
    ky = 2.0 * np.pi * ny / ly
    kx = np.where(kx > np.pi, kx - 2.0 * np.pi, kx)
    ky = np.where(ky > np.pi, ky - 2.0 * np.pi, ky)
    kxg, kyg = np.meshgrid(kx, ky, indexing="xy")
    return np.stack([kxg.ravel(), kyg.ravel()], axis=1)


@dataclass(frozen=True)
class BrillouinZone:
    """Momentum bookkeeping for a :class:`SquareLattice`."""

    lattice: SquareLattice

    @property
    def momenta(self) -> np.ndarray:
        """(n_sites, 2) allowed momenta, indexed like sites."""
        return momentum_grid(self.lattice.lx, self.lattice.ly)

    def momentum_index(self, nx: int, ny: int) -> int:
        """Index of momentum ``2*pi*(nx/lx, ny/ly)`` (integers, wrapped)."""
        return self.lattice.index(nx, ny)

    def grid_values(self, values: np.ndarray) -> np.ndarray:
        """Reshape a site-indexed momentum array to an (ly, lx) grid whose
        axes run over monotonically increasing kx/ky in (-pi, pi].

        This is the layout contour plots (paper Fig 6) want.
        """
        lx, ly = self.lattice.lx, self.lattice.ly
        grid = np.asarray(values).reshape(ly, lx)
        # fftshift-style roll so the axes are monotone in folded momentum.
        grid = np.roll(grid, shift=-(lx // 2 + 1), axis=1)
        grid = np.roll(grid, shift=-(ly // 2 + 1), axis=0)
        return grid

    def grid_axes(self) -> Tuple[np.ndarray, np.ndarray]:
        """(kx_axis, ky_axis) matching :meth:`grid_values` ordering."""
        lx, ly = self.lattice.lx, self.lattice.ly
        kx = 2.0 * np.pi * np.arange(lx) / lx
        ky = 2.0 * np.pi * np.arange(ly) / ly
        kx = np.where(kx > np.pi, kx - 2.0 * np.pi, kx)
        ky = np.where(ky > np.pi, ky - 2.0 * np.pi, ky)
        return np.sort(kx), np.sort(ky)


def _on_segment(
    k: np.ndarray, a: Tuple[float, float], b: Tuple[float, float], tol: float
) -> bool:
    """Whether momentum k lies on the segment a->b (inclusive)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    ak = k - a
    cross = ab[0] * ak[1] - ab[1] * ak[0]
    if abs(cross) > tol:
        return False
    dot = float(ak @ ab)
    return -tol <= dot <= float(ab @ ab) + tol


def symmetry_path(
    lattice: SquareLattice,
    corners: Sequence[Tuple[float, float]] = SYMMETRY_CORNERS,
    tol: float = 1e-9,
) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """Lattice momenta along a piecewise-linear path through the BZ.

    Walks each corner-to-corner segment and collects, in order of distance
    along the path, the allowed momenta lying on it. Duplicate consecutive
    points (segment endpoints) are dropped.

    Returns
    -------
    indices:
        Momentum (site) indices along the path.
    arclength:
        Cumulative distance along the path for each point — the natural
        x-axis of a Fig 5-style plot.
    kpoints:
        (len(indices), 2) momentum coordinates.
    """
    bz = BrillouinZone(lattice)
    # Work with momenta folded to [0, 2pi) equivalents as well, so a path
    # corner like (pi, pi) matches the folded representative (-pi, -pi)...
    # Simpler: compare against all periodic images in {-2pi, 0, 2pi}^2.
    momenta = bz.momenta
    shifts = np.array(
        [(sx, sy) for sx in (-2 * np.pi, 0, 2 * np.pi) for sy in (-2 * np.pi, 0, 2 * np.pi)]
    )

    indices: List[int] = []
    arc: List[float] = []
    kpts: List[np.ndarray] = []
    dist0 = 0.0
    for a, b in zip(corners[:-1], corners[1:]):
        a_arr = np.asarray(a, dtype=float)
        b_arr = np.asarray(b, dtype=float)
        seg_len = float(np.linalg.norm(b_arr - a_arr))
        hits: List[Tuple[float, int, np.ndarray]] = []
        for idx in range(momenta.shape[0]):
            for s in shifts:
                k = momenta[idx] + s
                if _on_segment(k, a, b, tol):
                    t = float(np.linalg.norm(k - a_arr))
                    hits.append((t, idx, k))
                    break
        hits.sort(key=lambda h: h[0])
        for t, idx, k in hits:
            if indices and indices[-1] == idx and abs(dist0 + t - arc[-1]) < tol:
                continue
            indices.append(idx)
            arc.append(dist0 + t)
            kpts.append(k)
        dist0 += seg_len
    return indices, np.asarray(arc), np.asarray(kpts)


def fourier_two_point(lattice: SquareLattice, c_real: np.ndarray) -> np.ndarray:
    """Fourier transform a translation-averaged two-point function.

    Given ``c_real[r] = (1/N) sum_{r'} <f(r') g(r' + r)>`` indexed by the
    displacement site index, returns ``c_k[q] = sum_r e^{-i q . r} c_real[r]``
    for every allowed momentum, indexed like sites. The result is returned
    as the real part (the input is a correlation of Hermitian observables,
    so the imaginary part is statistical noise) — callers needing the
    complex transform can use numpy's FFT directly. Leading axes of
    ``c_real`` are batch axes, transformed in one call.
    """
    c_real = np.asarray(c_real)
    lead = c_real.shape[:-1]
    grid = c_real.reshape(lead + (lattice.ly, lattice.lx))
    # FFT convention: numpy's fft2 computes sum_r e^{-i 2pi (n.r/L)} f(r),
    # which matches c_k at momentum index (nx, ny).
    ck = np.fft.fft2(grid)
    return np.real(ck).reshape(c_real.shape)
