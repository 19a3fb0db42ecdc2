"""The spin-down sector as the particle-hole image of the spin-up one.

With the Ising decoupling ``V_{l,-} = V_{l,+}^{-1}``. When a diagonal
sublattice sign ``Lambda = diag(+-1)`` turns the realized kinetic
propagator into its inverse transpose, ``Lambda B_K Lambda = B_K^{-T}``
(which needs ``Lambda K Lambda = -K``: ``mu = 0`` on a bipartite hopping
graph), every spin-down slice product is the image of the spin-up one,
``A_- = Lambda A_+^{-T} Lambda``, and so

.. math::

    G_- = I - \\Lambda G_+^T \\Lambda, \\qquad
    G_-(\\tau, 0) = -\\Lambda G_+(0, \\tau)^T \\Lambda, \\qquad
    \\det M_- = \\det M_+ / \\det A_+

for every configuration, at every cluster boundary and every slice
between. ``det A_+`` is the product of the ``V_{l,+}`` diagonals,
because ``det B_K = exp(-dtau tr K) = 1`` when the diagonal of K is
zero; so ``det M_+ det M_-`` is positive. The engine then stratifies,
wraps and updates the spin-up sector alone.

:func:`particle_hole_image` is the one place the decision is taken, once
per model, by :class:`~repro.hamiltonian.BMatrixFactory`: exact and
checkerboard propagators of an even periodic rectangle at ``mu = 0``
qualify; ``mu != 0``, odd periodic extents and any hopping graph with
an odd cycle do not, and keep both sectors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ParticleHoleImage", "particle_hole_image", "sublattice_sign"]

#: Largest entry of ``Lambda B_K Lambda - B_K^{-T}``, relative to the
#: largest entry of ``B_K^{-1}``, that still counts as the identity: the
#: realized masters agree to ~1e-15; a chemical potential or a frustrated
#: bond misses by O(dtau).
REALIZED_TOL = 1e-10


def sublattice_sign(k: np.ndarray) -> Optional[np.ndarray]:
    """``lambda`` (+-1 per site) with ``diag(lambda) K diag(lambda) = -K``,
    or ``None`` when no such sign exists.

    The hopping graph (``K[i, j] != 0``, ``i != j``) is 2-coloured by a
    breadth-first walk from the lowest site of each component (which
    gets +1); the colouring is then checked against K entry by entry,
    which fails on any odd cycle and on any nonzero diagonal.
    """
    n = k.shape[0]
    lam = np.zeros(n)
    hops = k != 0.0
    np.fill_diagonal(hops, False)
    for root in range(n):
        if lam[root]:
            continue
        lam[root] = 1.0
        frontier = [root]
        while frontier:
            nxt = []
            for i in frontier:
                new = np.flatnonzero(hops[i] & (lam == 0.0))
                lam[new] = -lam[i]
                nxt.extend(new.tolist())
            frontier = nxt
    if not np.array_equal(lam[:, None] * k * lam[None, :], -k):
        return None
    return lam


def particle_hole_image(
    k: np.ndarray, expk: np.ndarray, inv_expk: np.ndarray
) -> Optional["ParticleHoleImage"]:
    """The image map of a model with kinetic matrix ``k`` and realized
    propagator pair ``(exp(-dtau K), exp(+dtau K))``, or ``None`` when the
    spin-down sector must be evaluated on its own.

    The sign comes from :func:`sublattice_sign`; the identity is then
    verified on the realized float64 propagators, which are what every
    wrap and cluster product applies.
    """
    lam = sublattice_sign(k)
    if lam is None:
        return None
    signs = lam[:, None] * lam[None, :]
    miss = np.max(np.abs(signs * expk - inv_expk.T))
    if miss > REALIZED_TOL * np.max(np.abs(inv_expk)):
        return None
    return ParticleHoleImage(lam)


class ParticleHoleImage:
    """The map from spin-up Green's functions to spin-down ones.

    ``lam`` is the sublattice sign. Every method returns a fresh array
    in the dtype of its argument.
    """

    def __init__(self, lam: np.ndarray):
        self.lam = lam
        #: dtype -> the +-1 matrices ``lam_i lam_j`` and ``-lam_i lam_j``
        self._signs: dict = {}

    def _conjugated(self, g: np.ndarray, negate: bool) -> np.ndarray:
        """``Lambda g^T Lambda``, or its negative."""
        signs = self._signs.get(g.dtype)
        if signs is None:
            pos = np.multiply.outer(self.lam, self.lam).astype(g.dtype)
            signs = self._signs[g.dtype] = (pos, -pos)
        return np.multiply(g.T, signs[negate], out=np.empty_like(g))

    def greens(self, g_up: np.ndarray) -> np.ndarray:
        """Equal-time ``G_- = I - Lambda G_+^T Lambda``."""
        out = self._conjugated(g_up, negate=True)
        out.flat[:: out.shape[0] + 1] += 1.0
        return out

    def displaced(self, g_up_back: np.ndarray) -> np.ndarray:
        """``G_-(tau, 0) = -Lambda G_+(0, tau)^T Lambda``."""
        return self._conjugated(g_up_back, negate=True)

    def at_beta(self, g_up: np.ndarray) -> np.ndarray:
        """``G_-(beta, 0) = I - G_- = Lambda G_+^T Lambda`` from the
        equal-time ``G_+`` of the same boundary."""
        return self._conjugated(g_up, negate=False)
