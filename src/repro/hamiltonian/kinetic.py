"""Kinetic propagator ``exp(-dtau * K)`` and free-fermion references.

K is real symmetric, so the matrix exponential is computed exactly through
one eigendecomposition — done once per simulation (K never changes during
sampling, paper Sec. III-A) and reused for the inverse propagator
``exp(+dtau K)`` needed by wrapping. :class:`KineticPropagator` answers
the same operator interface as the separable propagators of
:mod:`repro.hamiltonian.checkerboard` — ``apply_expk_left/right``,
``as_matrix`` / ``inverse_matrix``, ``apply_flops`` and
``device_pass_seconds`` — so the backends apply whichever one the factory
holds without asking which it is; here each application is one GEMM
against the realized exponential.

The same eigendecomposition gives the exact non-interacting (U = 0)
equal-time Green's function, the gold-standard reference the test suite
validates the whole DQMC pipeline against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

import numpy as np
import scipy.linalg as sla

from ..linalg import flops

__all__ = ["KineticPropagator", "free_greens_function", "free_dispersion_2d"]


@dataclass(frozen=True)
class KineticPropagator:
    """Holds ``exp(-dtau K)``, its inverse, and the spectrum of K, and
    applies them as dense GEMMs."""

    k_matrix: np.ndarray
    dtau: float

    def __post_init__(self) -> None:
        k = np.asarray(self.k_matrix)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("K must be square")
        if not np.allclose(k, k.T, atol=1e-12):
            raise ValueError("K must be symmetric")
        if self.dtau <= 0:
            raise ValueError("dtau must be positive")

    @cached_property
    def _eig(self) -> tuple:
        w, v = sla.eigh(np.asarray(self.k_matrix, dtype=np.float64))  # qmclint: disable=QL008 -- float64 masters; policy widths are realized via as_matrix / inverse_matrix
        return w, v

    @property
    def eigenvalues(self) -> np.ndarray:
        """Single-particle energies (eigenvalues of K)."""
        return self._eig[0]

    @cached_property
    def expk(self) -> np.ndarray:
        """``exp(-dtau K)`` — the kinetic half of every B matrix."""
        w, v = self._eig
        return (v * np.exp(-self.dtau * w)) @ v.T

    @cached_property
    def inv_expk(self) -> np.ndarray:
        """``exp(+dtau K)`` — used by wrapping's right-multiplication."""
        w, v = self._eig
        return (v * np.exp(self.dtau * w)) @ v.T

    @property
    def n(self) -> int:
        return self.k_matrix.shape[0]

    # -- the kinetic-operator interface ----------------------------------------

    @cached_property
    def _dtype_cache(self) -> Dict:
        """Narrow-dtype copies of the exponentials, by ``(inverse, dtype)``."""
        return {}

    def _realized(self, inverse: bool, dtype=None) -> np.ndarray:
        """``exp(-+dtau K)`` in ``dtype``: the float64 master, or a copy
        cast once per width and reused across rebinds."""
        master = self.inv_expk if inverse else self.expk
        if dtype is None or np.dtype(dtype) == master.dtype:
            return master
        key = (inverse, np.dtype(dtype))
        cached = self._dtype_cache.get(key)
        if cached is None:
            cached = self._dtype_cache[key] = np.asarray(master, dtype=key[1])
        return cached

    def as_matrix(self, dtype=None) -> np.ndarray:
        """``exp(-dtau K)`` in ``dtype``."""
        return self._realized(False, dtype)

    def inverse_matrix(self, dtype=None) -> np.ndarray:
        """``exp(+dtau K)`` in ``dtype``."""
        return self._realized(True, dtype)

    def apply_expk_left(self, a: np.ndarray, inverse: bool = False) -> np.ndarray:
        """``exp(-dtau K) @ a`` (``exp(+dtau K) @ a`` when ``inverse``) in
        ``a``'s dtype; ``a`` is ``(n,)``, ``(n, c)`` or any stack
        ``(..., n, c)``."""
        return np.matmul(self._realized(inverse, a.dtype), a)

    def apply_expk_right(self, a: np.ndarray, inverse: bool = False) -> np.ndarray:
        """``a @ exp(-dtau K)`` (``a @ exp(+dtau K)`` when ``inverse``)."""
        return np.matmul(a, self._realized(inverse, a.dtype))

    def apply_flops(self, ncols: int) -> int:
        """Flop count of one application to an ``(n, ncols)`` operand."""
        return flops.gemm_flops(self.n, ncols, self.n)

    def device_pass_seconds(self, model, ncols: int, dtype) -> List[float]:
        """Modelled seconds of the one GEMM a device port launches per
        application to ``ncols`` columns."""
        return [model.time_gemm(self.n, ncols, self.n, dtype=dtype)]


def free_greens_function(k_matrix: np.ndarray, beta: float) -> np.ndarray:
    """Exact U = 0 equal-time Green's function ``<c c^dagger>``.

    ``G = (I + e^{-beta K})^{-1}`` evaluated through the eigenbasis with
    the overflow-free form ``1/(1 + e^{-beta w})`` (the Fermi function of
    ``-w``), valid for any beta.
    """
    w, v = sla.eigh(np.asarray(k_matrix, dtype=np.float64))  # qmclint: disable=QL008 -- exact U=0 reference is a float64 diagnostic by definition
    # Mode occupancy <n_w> = 1/(1 + e^{beta w}), evaluated overflow-free
    # for both signs of the exponent; then <c c^dagger> = 1 - <n_w>.
    # np.where evaluates both branches, so the exponent is clipped to the
    # finite range first; the clipped branch is only selected where the
    # un-clipped value would have under/overflowed to the same limit.
    bw = np.clip(beta * w, -700.0, 700.0)
    eneg = np.exp(-np.abs(bw))
    nw = np.where(bw > 0, eneg / (1.0 + eneg), 1.0 / (1.0 + eneg))
    g_eig = 1.0 - nw
    return (v * g_eig) @ v.T


def free_dispersion_2d(kx: np.ndarray, ky: np.ndarray, t: float = 1.0, mu: float = 0.0) -> np.ndarray:
    """Tight-binding dispersion ``-2t(cos kx + cos ky) - mu``.

    The analytic band structure of the 2D square lattice; tests compare
    the eigenvalues of K against it, and examples use it to locate the
    non-interacting Fermi surface that Fig 5's U = 2 data sharpens around.
    """
    return -2.0 * t * (np.cos(kx) + np.cos(ky)) - mu
