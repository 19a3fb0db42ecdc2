"""B-matrix construction: ``B_{l,sigma} = V_{l,sigma} * exp(-dtau K)``.

The single-particle propagator of one Trotter slice (paper Eq. 2).
``V_{l,sigma}`` is diagonal, so forming B is a *row scaling* of the fixed
kinetic exponential — exactly the fine-grain operation the paper's
Algorithm 5 turns into a fused GPU kernel and QUEST OpenMP-parallelizes.
Everything here is expressed as scalings and GEMMs on the cached
``exp(+-dtau K)`` so no matrix exponential is ever recomputed during
sampling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..linalg import flops
from ..options import resolve_option
from ..lattice import SquareLattice
from .checkerboard import CheckerboardPropagator, SeparablePropagator
from .hs_field import HSField
from .hubbard import HubbardModel
from .kinetic import KineticPropagator
from .particle_hole import ParticleHoleImage, particle_hole_image

__all__ = ["KINETIC_MODES", "BMatrixFactory"]

#: the two kinetic propagators QUEST supports (paper Sec. II).
KINETIC_MODES = ("exact", "checkerboard")


class BMatrixFactory:
    """Builds and applies slice propagators for a fixed model.

    Parameters
    ----------
    model:
        The Hubbard model; fixes K, dtau and nu.

    Notes
    -----
    All methods take the HS field explicitly so one factory serves the
    whole simulation while the field evolves.
    """

    def __init__(self, model: HubbardModel, kinetic: Optional[str] = None):
        self.model = model
        self.kinetic_mode = resolve_option("kinetic", kinetic)
        self.nu = model.nu
        #: the one kinetic operator every B matrix applies: the exact
        #: Kronecker blocks or the checkerboard split on a plain rectangle,
        #: the dense exponential on multilayer / general lattices. Each
        #: answers the same interface, so backends bind it and apply it
        #: without asking which it is.
        checkerboard = self.kinetic_mode == "checkerboard"
        if checkerboard or type(model.lattice) is SquareLattice:
            # A geometry checkerboard cannot partition fails here, at
            # construction (a typed ValueError), rather than mid-sweep.
            kind = CheckerboardPropagator if checkerboard else SeparablePropagator
            self.kinetic = kind(model.lattice, t=model.t, dtau=model.dtau, mu=model.mu)
        else:
            self.kinetic = KineticPropagator(model.kinetic_matrix(), model.dtau)
        #: the map taking spin-up Green's functions to spin-down ones when
        #: the model's down sector is the particle-hole image of its up
        #: sector (``mu = 0``, bipartite hopping), else ``None``: decided
        #: here, once, on the realized float64 propagators
        self.particle_hole: Optional[ParticleHoleImage] = particle_hole_image(
            model.kinetic_matrix(), *self.exponentials()
        )

    @property
    def n(self) -> int:
        return self.model.n_sites

    @property
    def expk(self) -> np.ndarray:
        return self.kinetic.as_matrix()

    @property
    def inv_expk(self) -> np.ndarray:
        return self.kinetic.inverse_matrix()

    def exponentials(self, dtype=None):
        """``(exp(-dtau K), exp(+dtau K))`` realized in ``dtype``.

        The kinetic operator keeps its own per-dtype cache: the float64
        masters are built once, narrower widths are cast once and reused
        across rebinds (and across promotions back down the ladder).
        """
        return self.kinetic.as_matrix(dtype), self.kinetic.inverse_matrix(dtype)

    # -- kinetic-factor application ---------------------------------------------

    def apply_expk_left(
        self, a: np.ndarray, inverse: bool = False, category: str = "kinetic"
    ) -> np.ndarray:
        """``exp(-dtau K) @ a`` (``exp(+dtau K) @ a`` when ``inverse``).

        O(N (lx+ly)) flops per column through the direction blocks on a
        rectangle, the dense O(N^2)-per-column GEMM elsewhere.
        """
        ncols = a.shape[1] if a.ndim == 2 else 1
        flops.record(category, self.kinetic.apply_flops(ncols))
        return self.kinetic.apply_expk_left(a, inverse=inverse)

    def apply_expk_right(
        self, a: np.ndarray, inverse: bool = False, category: str = "kinetic"
    ) -> np.ndarray:
        """``a @ exp(-dtau K)`` (``a @ exp(+dtau K)`` when ``inverse``)."""
        nrows = a.shape[0] if a.ndim == 2 else 1
        flops.record(category, self.kinetic.apply_flops(nrows))
        return self.kinetic.apply_expk_right(a, inverse=inverse)

    # -- single-slice products -------------------------------------------------

    def b_matrix(self, field: HSField, l: int, sigma: int) -> np.ndarray:
        """Dense ``B_{l,sigma} = diag(v) @ exp(-dtau K)`` (row scaling)."""
        v = field.v_diagonal(l, sigma, self.nu)
        flops.record("bmatrix", flops.scale_flops(self.n, self.n))
        return v[:, None] * self.expk

    def b_inverse(self, field: HSField, l: int, sigma: int) -> np.ndarray:
        """Dense ``B^{-1} = exp(+dtau K) @ diag(1/v)`` (column scaling)."""
        v = field.v_diagonal(l, sigma, self.nu)
        flops.record("bmatrix", flops.scale_flops(self.n, self.n))
        return self.inv_expk / v[None, :]

    # -- apply without materializing B ------------------------------------------

    def apply_b_left(
        self, field: HSField, l: int, sigma: int, a: np.ndarray
    ) -> np.ndarray:
        """``B_{l,sigma} @ a`` as GEMM-then-row-scale.

        Matching the paper's Sec. III-A reading of step 3a: multiply by
        the well-behaved ``exp(-dtau K)`` first, then scale rows — the
        diagonal never mixes into the GEMM.
        """
        n = self.n
        flops.record("clustering", n * a.shape[1])
        v = field.v_diagonal(l, sigma, self.nu)
        out = self.apply_expk_left(a, category="clustering")
        out *= v[:, None]
        return out

    def apply_b_inv_right(
        self, field: HSField, l: int, sigma: int, a: np.ndarray
    ) -> np.ndarray:
        """``a @ B_{l,sigma}^{-1}`` as GEMM-then-column-scale.

        ``B^{-1} = exp(+dtau K) diag(1/v)``, so the diagonal acts on the
        *result's* columns: ``(a @ invexpK) / v``.
        """
        n = self.n
        flops.record("wrapping", a.shape[0] * n)
        v = field.v_diagonal(l, sigma, self.nu)
        out = self.apply_expk_right(a, inverse=True, category="wrapping")
        out /= v[None, :]
        return out

    # -- reference (unstabilized) product ---------------------------------------

    def full_product(
        self,
        field: HSField,
        sigma: int,
        slice_order: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Dense ``B_L ... B_1`` (or a custom slice order), for tests.

        ``slice_order`` lists slices from *rightmost* factor to leftmost;
        default is ``[0, 1, ..., L-1]`` giving ``B_{L-1} ... B_0`` in
        0-based indexing. This bypasses all stabilization — only use it
        where the product's condition number is known to be benign.
        """
        order = (
            np.arange(field.n_slices) if slice_order is None else np.asarray(slice_order)
        )
        out = np.eye(self.n)
        for l in order:
            out = self.apply_b_left(field, int(l), sigma, out)
        return out
