"""Separable kinetic propagators on a periodic rectangle.

On a plain :class:`~repro.lattice.SquareLattice` with nearest-neighbour
hopping ``K = I (x) Kx + Ky (x) I`` and the two terms commute, so

.. math::

    e^{-\\Delta\\tau K} = e^{-\\Delta\\tau K_y} \\otimes e^{-\\Delta\\tau K_x}

*exactly*: the N x N exponential never has to be formed or multiplied.
:class:`SeparablePropagator` holds the ``lx x lx`` / ``ly x ly`` ring
exponentials and applies ``B = By_big Bx_big`` as two *tiny* batched
GEMMs (``2 N (lx + ly)`` flops per column versus ``2 N^2`` for the dense
exponential) — the kinetic operator every factory on a rectangle holds,
behind the same interface as the dense
:class:`~repro.hamiltonian.kinetic.KineticPropagator`.

:class:`CheckerboardPropagator` feeds the same blocked pipeline with
QUEST's *checkerboard* blocks instead: the bonds are partitioned into
groups of non-overlapping pairs and

.. math::

    e^{-\\Delta\\tau K} \\approx \\prod_g e^{-\\Delta\\tau K_g}

where each group exponential is exact and cheap (disjoint 2x2
``cosh``/``sinh`` rotations). All x-groups act within one lattice row, so
their ordered product is block-diagonal with identical ``lx x lx`` blocks
(likewise y) — an exact regrouping of the rotations, asserted against the
pass-by-pass reference to rounding. The split adds an O(dtau^2) Trotter
error (four groups on even extents, a fifth/sixth wrap group on odd
ones) at the same application cost as the exact blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from ..lattice import SquareLattice
from .kinetic import KineticPropagator

__all__ = [
    "CheckerboardError",
    "bond_groups",
    "SeparablePropagator",
    "CheckerboardPropagator",
]


class CheckerboardError(ValueError):
    """The lattice has no x/y-separable structure to build blocks from.

    Raised loudly instead of silently producing overlapping bond groups
    or wrong Kronecker factors. Multilayer stacks and general bond-list
    lattices apply the dense ``KineticPropagator`` instead.
    """


def _require_rectangle(lattice) -> None:
    """The separable structure exists only on a plain periodic rectangle."""
    if type(lattice) is not SquareLattice:
        raise CheckerboardError(
            "the separable x/y direction blocks need a plain periodic "
            f"SquareLattice; got {type(lattice).__name__} — multilayer "
            "stacks and general bond-list lattices carry the dense "
            "KineticPropagator, the kinetic operator BMatrixFactory builds for "
            "them under kinetic='exact'"
        )


def _direction_protos(extent: int) -> List[List[Tuple[int, int]]]:
    """Bond groups along one periodic direction of ``extent`` sites.

    Returns groups of (k, k+1 mod extent) index pairs such that within a
    group no index repeats. Order is even, odd (absorbing the wrap bond
    for even extents), then a standalone wrap group for odd extents; an
    extent-2 direction is the single doubled bond.
    """
    out: List[List[Tuple[int, int]]] = []
    if extent < 2:
        return out
    if extent == 2:
        out.append([(0, 1)])
        return out
    even = [(x, x + 1) for x in range(0, extent - 1, 2)]
    odd = [(x, x + 1) for x in range(1, extent - 1, 2)]
    wrap = (extent - 1, 0)
    if extent % 2 == 0:
        odd.append(wrap)
        out.extend([even, odd])
    else:
        out.extend([even, odd, [wrap]])
    return out


def bond_groups(lattice: SquareLattice) -> List[List[Tuple[int, int]]]:
    """Partition nearest-neighbor bonds into non-overlapping groups.

    Returns groups of (i, j) site pairs such that within a group no site
    appears twice — the property that makes the group exponential exact.
    Groups are even-x, odd-x, even-y, odd-y; odd extents place their
    periodic wrap bond in an extra group per direction. Extent-2
    directions contribute their doubled bond once with doubled weight at
    application time (handled by the caller via the adjacency count).

    Raises :class:`CheckerboardError` if ``lattice`` is not a plain
    periodic rectangle (multilayer stacks and general bond lists need a
    graph coloring; pretending otherwise would produce overlapping
    groups), or if a group ever fails the disjointness invariant.
    """
    _require_rectangle(lattice)
    groups: List[List[Tuple[int, int]]] = []
    lx, ly = lattice.lx, lattice.ly

    # x-direction bonds, replicated down each row
    for proto in _direction_protos(lx):
        group = [
            (lattice.index(x0, y), lattice.index(x1, y))
            for (x0, x1) in proto
            for y in range(ly)
        ]
        groups.append(group)
    # y-direction bonds, replicated across each column
    for proto in _direction_protos(ly):
        group = [
            (lattice.index(x, y0), lattice.index(x, y1))
            for (y0, y1) in proto
            for x in range(lx)
        ]
        groups.append(group)

    for group in groups:
        seen = [i for bond in group for i in bond]
        if len(seen) != len(set(seen)):
            raise CheckerboardError(
                "internal error: a checkerboard bond group touches a site "
                "twice — the group exponential would not be exact"
            )
    return groups


def _rotation_chain(
    ring: np.ndarray, t: float, dtau: float, inverse: bool = False
) -> np.ndarray:
    """Ordered product of one direction's bond-group rotations.

    ``ring`` is that direction's ring adjacency (bond counts, so an
    extent-2 doubled bond rotates by twice the angle). The returned
    block, replicated along the other direction, is exactly that
    direction's slice of the checkerboard product; ``inverse`` negates
    the angles and reverses the group order, which is exactly the matrix
    inverse, so ``np.linalg.inv`` never enters.
    """
    extent = ring.shape[0]
    block = np.eye(extent)
    protos = _direction_protos(extent)
    sign = -1.0 if inverse else 1.0
    for proto in reversed(protos) if inverse else protos:
        rot = np.eye(extent)
        for (i, j) in proto:
            arg = sign * (dtau * (float(ring[i, j]) * t))
            c, s = np.cosh(arg), np.sinh(arg)
            rot[i, i] = c
            rot[j, j] = c
            rot[i, j] = s
            rot[j, i] = s
        block = rot @ block
    return block


def _checkerboard_blocks(ring, t, dtau) -> Tuple[np.ndarray, np.ndarray]:
    """Checkerboard recipe: the rotation chain and its exact inverse."""
    return _rotation_chain(ring, t, dtau), _rotation_chain(ring, t, dtau, True)


def _exact_blocks(ring, t, dtau) -> Tuple[np.ndarray, np.ndarray]:
    """Exact recipe: ``exp(-+dtau K_ring)`` with ``K_ring = -t * ring``."""
    ring_propagator = KineticPropagator(-t * ring, dtau)
    return ring_propagator.expk, ring_propagator.inv_expk


@dataclass(frozen=True)
class SeparablePropagator:
    """``exp(-dtau K)`` on a periodic rectangle as its Kronecker factors.

    Parameters
    ----------
    lattice:
        Geometry; the two ring-hopping matrices are read off its
        adjacency (so extent-2 doubled bonds, ``lx != ly`` and odd
        extents are honoured).
    t:
        Hopping amplitude.
    dtau:
        Trotter step.
    mu:
        Chemical potential — applied as one exact diagonal factor
        ``exp(dtau * mu)`` (it commutes with everything).
    """

    lattice: SquareLattice
    t: float
    dtau: float
    mu: float = 0.0

    #: block recipe: (ring adjacency, t, dtau) -> (block, inverse block)
    _recipe = staticmethod(_exact_blocks)

    def __post_init__(self) -> None:
        _require_rectangle(self.lattice)

    # -- blocked (separable) representation ---------------------------------

    @cached_property
    def _blocks64(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Float64 masters ``(bx, by, bx_inv, by_inv)`` of the direction blocks.

        ``B = By_big @ Bx_big`` where the big matrices are the blocks
        replicated over the other direction; each block comes from that
        direction's ring adjacency (row ``y = 0``, column ``x = 0``).
        """
        adj, lx = self.lattice.adjacency, self.lattice.lx
        (bx, bx_inv), (by, by_inv) = (
            self._recipe(ring, self.t, self.dtau)
            for ring in (adj[:lx, :lx], adj[::lx, ::lx])
        )
        return bx, by, bx_inv, by_inv

    @cached_property
    def _dtype_cache(self) -> Dict:
        """Realized narrow-dtype blocks and dense matrices, by key."""
        return {}

    def blocks(self, dtype=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Direction blocks realized in ``dtype`` (float64 masters cached)."""
        dt = np.dtype(np.float64 if dtype is None else dtype)
        if dt == np.dtype(np.float64):
            return self._blocks64
        key = ("blocks", dt)
        cached = self._dtype_cache.get(key)
        if cached is None:
            cached = tuple(np.asarray(b, dtype=dt) for b in self._blocks64)
            self._dtype_cache[key] = cached
        return cached

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def apply_flops(self, ncols: int) -> int:
        """Flop count of one blocked application to an ``(n, ncols)`` operand."""
        per_element = 2 * (self.lattice.lx + self.lattice.ly) + (self.mu != 0.0)
        return self.n_sites * ncols * per_element

    def device_pass_seconds(self, model, ncols: int, dtype) -> List[float]:
        """Modelled seconds of each kernel launch a device port pays per
        blocked application to ``ncols`` columns: two batched small GEMMs,
        then one streaming pass when ``exp(+-dtau mu)`` folds in. gpu-sim
        ticks this list; its payload always runs the blocked spelling."""
        lx, ly = self.lattice.lx, self.lattice.ly
        gemms = [(lx, ly * ncols, lx), (ly, lx * ncols, ly)]
        kinetic = [model.time_gemm(*mnk, dtype=dtype) for mnk in gemms]
        return kinetic + self._mu_pass_seconds(model, ncols, dtype)

    def _mu_pass_seconds(self, model, ncols: int, dtype) -> List[float]:
        nbytes = 2 * self.n_sites * ncols * np.dtype(dtype).itemsize
        return [model.time_bandwidth_kernel(nbytes)] if self.mu != 0.0 else []

    # -- blocked application (the structured fast path) ----------------------

    def _scale_mu(self, out: np.ndarray, inverse: bool) -> np.ndarray:
        """Fold the commuting scalar ``exp(+-dtau mu)`` into ``out`` in place."""
        if self.mu != 0.0:
            factor = np.exp((-self.dtau if inverse else self.dtau) * self.mu)
            out *= np.asarray(factor, dtype=out.dtype)
        return out

    def apply_expk_left(self, a: np.ndarray, inverse: bool = False) -> np.ndarray:
        """``B @ a`` (or ``B^{-1} @ a``) via the direction blocks.

        Two small batched GEMMs instead of one dense N x N GEMM; the
        operand's dtype is preserved (blocks realized per dtype, like the
        dense exponentials). Accepts an ``(n,)`` vector, an ``(n, c)``
        matrix, or any stack ``(..., n, c)`` — leading axes broadcast
        through the batched GEMMs, so both spin sectors go through one
        pair of library calls. Always returns a fresh array.
        """
        a = np.ascontiguousarray(a)
        squeeze = a.ndim == 1
        if squeeze:
            a = a[:, None]
        bx, by, bx_inv, by_inv = self.blocks(a.dtype)
        lx, ly = self.lattice.lx, self.lattice.ly
        lead = a.shape[:-2]
        ncols = a.shape[-1]
        if not inverse:
            t = np.matmul(bx, a.reshape(lead + (ly, lx, ncols)))
            t = np.matmul(by, t.reshape(lead + (ly, lx * ncols)))
        else:
            t = np.matmul(by_inv, a.reshape(lead + (ly, lx * ncols)))
            t = np.matmul(bx_inv, t.reshape(lead + (ly, lx, ncols)))
        out = self._scale_mu(t.reshape(lead + (self.n_sites, ncols)), inverse)
        return out[..., 0] if squeeze else out

    def apply_expk_right(self, a: np.ndarray, inverse: bool = False) -> np.ndarray:
        """``a @ B`` (or ``a @ B^{-1}``) via the direction blocks.

        Same stacking contract as :meth:`apply_expk_left`, with the site
        axis last: accepts ``(n,)``, ``(r, n)``, or ``(..., r, n)``.
        """
        a = np.ascontiguousarray(a)
        squeeze = a.ndim == 1
        if squeeze:
            a = a[None, :]
        bx, by, bx_inv, by_inv = self.blocks(a.dtype)
        lx, ly = self.lattice.lx, self.lattice.ly
        lead = a.shape[:-1]
        nrows = lead[-1]
        batch = lead[:-1]
        if not inverse:
            # a @ (By_big @ Bx_big) = (a @ By_big) @ Bx_big
            t = np.matmul(by.T, a.reshape(lead + (ly, lx)))
            t = np.matmul(t.reshape(batch + (nrows * ly, lx)), bx)
        else:
            # a @ (Bx_inv_big @ By_inv_big)
            t = np.matmul(a.reshape(batch + (nrows * ly, lx)), bx_inv)
            t = np.matmul(by_inv.T, t.reshape(lead + (ly, lx)))
        out = self._scale_mu(t.reshape(lead + (self.n_sites,)), inverse)
        return out[0] if squeeze else out

    # -- materialization ------------------------------------------------------

    def _realized(self, inverse: bool, dtype=None) -> np.ndarray:
        """Dense ``B`` (or ``B^{-1}``) in ``dtype``.

        The float64 master is built once from the blocked application to
        the identity; narrower widths are cast once and cached — the same
        realize-per-dtype discipline as the dense exponentials, so the
        precision policy governs this path too instead of always paying
        (and leaking) float64.
        """
        cache = self._dtype_cache
        master = cache.get(("matrix", inverse))
        if master is None:
            master = self.apply_expk_left(np.eye(self.n_sites), inverse=inverse)
            cache[("matrix", inverse)] = master
        if dtype is None or np.dtype(dtype) == master.dtype:
            return master
        key = ("matrix", inverse, np.dtype(dtype))
        cached = cache.get(key)
        if cached is None:
            cached = cache[key] = np.asarray(master, dtype=key[2])
        return cached

    def as_matrix(self, dtype=None) -> np.ndarray:
        """The propagator as a dense matrix, in ``dtype``."""
        return self._realized(False, dtype)

    def inverse_matrix(self, dtype=None) -> np.ndarray:
        """Dense ``B^{-1}`` in ``dtype`` (product of the inverse blocks)."""
        return self._realized(True, dtype)


@dataclass(frozen=True)
class CheckerboardPropagator(SeparablePropagator):
    """``prod_g exp(-dtau K_g)``: the separable pipeline on Trotter-split blocks.

    Same parameters as :class:`SeparablePropagator`; bond weights come
    from the lattice adjacency (so extent-2 doubled bonds are honoured).
    """

    _recipe = staticmethod(_checkerboard_blocks)

    @cached_property
    def groups(self) -> List[List[Tuple[int, int]]]:
        return bond_groups(self.lattice)

    def device_pass_seconds(self, model, ncols: int, dtype) -> List[float]:
        """One bandwidth-bound rotation pass per bond group (then mu's)."""
        size = np.dtype(dtype).itemsize
        kinetic = [model.time_checkerboard_pass(len(g), ncols, size) for g in self.groups]
        return kinetic + self._mu_pass_seconds(model, ncols, dtype)

    # -- reference (pass-by-pass) application --------------------------------

    def apply_left(self, a: np.ndarray) -> np.ndarray:
        """``B_cb @ a`` where ``B_cb ~ exp(-dtau K)`` (checkerboard order).

        Pass-by-pass reference: each group applies independent 2x2
        rotations ``[[c, s], [s, c]]`` to the (i, j) row pairs — pure
        gather / fused-multiply work, no GEMM. The blocked fast path
        (:meth:`apply_expk_left`) must agree with this to rounding.
        """
        a = np.array(a, dtype=np.float64, copy=True)  # qmclint: disable=QL008 -- checkerboard reference path applies the float64 master rotations
        adj = self.lattice.adjacency
        for group in self.groups:
            ii, jj = np.array(group, dtype=np.int64).T
            # all bonds in a group share a weight on these lattices
            arg = self.dtau * (float(adj[ii[0], jj[0]]) * self.t)
            c, s = np.cosh(arg), np.sinh(arg)
            rows_i = a[ii]
            rows_j = a[jj]
            a[ii] = c * rows_i + s * rows_j
            a[jj] = s * rows_i + c * rows_j
        if self.mu != 0.0:
            a *= np.exp(self.dtau * self.mu)
        return a

    def splitting_error(self) -> float:
        """``||B_cb - exp(-dtau K)|| / ||exp(-dtau K)||`` — the O(dtau^2)
        Trotter cost of the split, measurable and testable."""
        exact = SeparablePropagator(self.lattice, self.t, self.dtau, self.mu).as_matrix()
        return float(np.linalg.norm(self.as_matrix() - exact) / np.linalg.norm(exact))
