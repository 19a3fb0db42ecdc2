"""Cluster products: the slice tiling, its invalidation, and a small cache.

Paper Sec. III-B2 recycles the dense cluster products across the
stratifications of a sweep, since between two of them only the cluster
just swept has changed. This engine recycles the *factorizations*
instead (``GreensFunctionEngine``'s kept chain sides), and each boundary
push takes its product (:meth:`ClusterCache.take`), so a product is not
read twice by the sweep. What the cache still does:

* tiles the ``L`` slices into ``L/k`` clusters (:func:`cluster_slices`)
  and drops the products of a cluster whose field changed
  (:meth:`ClusterCache.invalidate_slice`);
* on a two-sector (doped) model, builds both spins of a cluster in one
  stacked call and keeps the partner's product until its own push reads
  it — the only hits a sweep scores (a half-filling run, one sector,
  has none);
* serves whole-chain reads (:meth:`ClusterCache.chain`) for
  ``log_weight`` and ``grading_profile``, which miss on every product a
  push took and rebuild it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backends.registry import resolve_backend
from ..hamiltonian import BMatrixFactory, HSField
from .clustering import cluster_slices

__all__ = ["ClusterCache"]


class ClusterCache:
    """Per-spin dense cluster products with slice-level invalidation.

    The sweep notifies the cache whenever it mutates the HS field at a
    slice (``invalidate_slice``); the owning cluster's product is
    dropped for both spins and rebuilt on next access. The boundary
    pushes ``take`` their products, so what stays cached between reads
    is the partner spin of a two-sector build; ``chain`` reads (global
    moves' ``log_weight``) rebuild what the pushes took.
    """

    def __init__(
        self,
        factory: BMatrixFactory,
        field: HSField,
        cluster_size: int,
        backend=None,
    ):
        """Rebuilds go through ``backend.cluster_product_batched`` (a
        fresh serial numpy backend when none is given). When the model
        evaluates both spin sectors, a miss on one spin prefetches *both*
        in one stacked call: both spins are invalidated together, so the
        partner access is otherwise a guaranteed second miss. When its
        down sector is the particle-hole image of the up one
        (``factory.particle_hole``) nothing reads the partner, and a miss
        builds the one sector asked for.
        """
        self.factory = factory
        self.field = field
        self.cluster_size = cluster_size
        self.ranges = cluster_slices(field.n_slices, cluster_size)
        self.backend = resolve_backend(backend or "numpy", factory=factory)
        #: prefetch the partner spin on a miss (both sectors evaluated)
        self.pairs = factory.particle_hole is None
        # (sigma, cluster_index) -> dense product, or absent if stale.
        self._cache: Dict[Tuple[int, int], np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self.batched_builds = 0

    @property
    def n_clusters(self) -> int:
        return len(self.ranges)

    def cluster_of_slice(self, l: int) -> int:
        """Index of the cluster owning time slice ``l``."""
        if not 0 <= l < self.field.n_slices:
            raise IndexError(f"slice {l} out of range")
        return l // self.cluster_size

    def invalidate_slice(self, l: int) -> None:
        """Drop cached products (both spins) of the cluster owning slice l."""
        j = self.cluster_of_slice(l)
        self._cache.pop((1, j), None)
        self._cache.pop((-1, j), None)

    def invalidate_all(self) -> None:
        self._cache.clear()

    def get(self, sigma: int, j: int) -> np.ndarray:
        """The dense product of cluster ``j`` for spin ``sigma``.

        Returned arrays are owned by the cache — callers must not mutate
        them (the stratification chain only reads its factors).
        """
        key = (sigma, j)
        cached: Optional[np.ndarray] = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        prod = self._build_batched(sigma, j)
        self._cache[key] = prod
        return prod

    def take(self, sigma: int, j: int) -> np.ndarray:
        """:meth:`get`, then forget: the caller becomes the only owner.

        For a reader that keeps something which makes the product
        redundant (a stack of decompositions that contain it): the
        memory goes when the caller lets go, and any later reader
        misses and rebuilds. The partner spin of a batched build stays
        cached; the two share one buffer, freed once both are gone.
        """
        prod = self.get(sigma, j)
        del self._cache[(sigma, j)]
        return prod

    def _build_batched(self, sigma: int, j: int) -> np.ndarray:
        """Rebuild cluster ``j`` in one stacked call, for both spins when
        :attr:`pairs`.

        Invalidation always drops both spin sectors of a cluster, so the
        other spin's rebuild is coming; stacking the two V-chains into one
        ``cluster_product_batched`` call halves the kernel launches (and
        on stacked-GEMM backends runs both sectors in single GEMMs).
        """
        nu = self.factory.nu
        spins = (sigma, -sigma) if self.pairs else (sigma,)
        v_stack = np.stack(
            [
                [self.field.v_diagonal(l, s, nu) for l in self.ranges[j]]
                for s in spins
            ]
        )
        prods = self.backend.cluster_product_batched(v_stack)
        self.batched_builds += 1
        # The partner sector is cached directly (not via get()) so its
        # later access counts as the hit it now is.
        if self.pairs:
            self._cache[(-sigma, j)] = prods[1]
        return prods[0]

    def stats(self) -> Dict[str, float]:
        """Hit/miss totals in telemetry-snapshot form.

        Registered by the simulation driver as a telemetry snapshot
        source, so the recycling effectiveness (paper Sec. III-B2's
        whole point) is archived alongside the phase timings without the
        cache itself carrying any per-access instrumentation.
        """
        accesses = self.hits + self.misses
        return {
            "cluster_cache.hits": float(self.hits),
            "cluster_cache.misses": float(self.misses),
            "cluster_cache.hit_rate": (
                self.hits / accesses if accesses else 0.0
            ),
            "cluster_cache.entries": float(len(self._cache)),
            "cluster_cache.batched_builds": float(self.batched_builds),
        }

    def chain(self, sigma: int, start_cluster: int) -> List[np.ndarray]:
        """Cluster chain rightmost-first starting at ``start_cluster``.

        ``chain(sigma, c)`` lists the factors of
        ``Btilde_{c-1} ... Btilde_0 Btilde_{Lk-1} ... Btilde_c`` in the
        order stratification consumes them — the rotation pattern of the
        paper's sequence (5).
        """
        nc = self.n_clusters
        if not 0 <= start_cluster < nc:
            raise IndexError(f"cluster {start_cluster} out of range")
        order = [(start_cluster + j) % nc for j in range(nc)]
        return [self.get(sigma, j) for j in order]
