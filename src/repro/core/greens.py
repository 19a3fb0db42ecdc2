"""The Green's function engine: stratification + clustering + wrapping.

This is the component the paper spends Secs. III-IV on. One engine owns,
for a fixed model and a live HS field:

* a :class:`~repro.core.recycling.ClusterCache` of dense k-slice products,
* fresh (stratified) evaluation of the equal-time Green's function at any
  cluster boundary, under any pivoting policy, from a prefix and a suffix
  factorization; every decomposition a build passes through is kept
  until the field under it changes, so each sweep pushes one per
  boundary on the side it sweeps and reads the other side from the
  sweep before; the same join also gives the time-displaced
  ``G(tau, 0)`` of the boundary when asked,
* wrapping between adjacent slices,
* drift diagnostics (wrapped vs. freshly stratified G).

Where the model's spin-down sector is the particle-hole image of its
spin-up one (``factory.particle_hole``, see
:mod:`repro.hamiltonian.particle_hole`) the engine evaluates the up
sector alone: :attr:`GreensFunctionEngine.sectors` is ``(1,)``, the
cache builds one sector per miss, and the down sector's readers get
``I - Lambda G_+^T Lambda``, its displaced ``G(tau, 0)`` from the same
join, and its determinant from the up one's.

Orientation convention: ``boundary_greens(sigma, c)`` returns

    G = (I + Btilde_{c-1} ... Btilde_0 Btilde_{Lk-1} ... Btilde_c)^{-1}

i.e. the Green's function *before* slice ``c*k`` is wrapped through, for
``c`` in ``0 .. nc`` (indices 0 and ``nc`` are the same boundary). A
forward sweep then wraps through each slice of cluster c in turn,
updating sites after each wrap (see :mod:`repro.dqmc.sweep`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backends.registry import get_backend
from ..hamiltonian import BMatrixFactory, HSField
from ..linalg import (
    GradedDecomposition,
    stable_inverse_from_graded,
    stable_inverse_two_sided,
    stable_log_det_from_graded,
)
from ..options import resolve_option, resolve_options
from ..precision import resolve_policy
from ..profiling import PhaseProfiler, ensure_profiler
from ..telemetry import Telemetry, ensure_telemetry
from .recycling import ClusterCache
from .stratification import (
    IncrementalStratifier,
    StratificationMethod,
    StratificationStats,
    check_method,
    stratified_decomposition,
    stratified_inverse,
)
from .wrapping import wrap_backward, wrap_forward

__all__ = ["GreensFunctionEngine"]


class _ChainSide(list):
    """Kept partial decompositions of one side of one spin's cluster chain.

    A side is a push sequence: the prefix pushes clusters ``0, 1, ...``,
    the suffix pushes ``Btilde_{nc-1}^T, Btilde_{nc-2}^T, ...`` (a suffix
    grows on its right, so it is held as the chain of its transpose).
    Entry ``i`` is the exact state after ``i + 1`` pushes, so continuing
    from one gives bit for bit what a build from scratch gives. Every
    push lands here; :meth:`drop_from` is the only way anything leaves.
    """

    def __init__(self, transposed: bool) -> None:
        super().__init__()
        #: the suffix: factor ``i`` is cluster ``nc - 1 - i``, transposed
        self.transposed = transposed

    def drop_from(self, n: int) -> None:
        """Forget every kept decomposition of ``n >= 1`` or more factors."""
        del self[n - 1:]


class GreensFunctionEngine:
    """Computes and advances equal-time Green's functions of the spins.

    Parameters
    ----------
    factory:
        B-matrix factory (fixes model, K exponentials, nu).
    field:
        The live HS field; mutated externally by the sweep, which must
        call :meth:`invalidate_slice` after any change.
    method:
        Stratification pivoting policy ("prepivot" is the paper's
        Algorithm 3 and the default; "qrp" is Algorithm 2).
    cluster_size:
        k — slices pre-multiplied per stratification step. The paper (and
        default here) ties the wrap count to it: a fresh stratification
        happens every ``cluster_size`` wraps.
    profiler:
        Optional :class:`PhaseProfiler`; phases "clustering",
        "stratification" and "wrapping" are reported.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; the engine counts
        fresh stratifications into it and registers the cluster cache's
        hit/miss stats and the backend's dispatch counters as snapshot
        sources. ``None`` costs nothing (shared no-op instance).
    backend:
        Execution backend (registry name or
        :class:`~repro.backends.PropagatorBackend` instance) every
        propagator operation dispatches through.
    precision:
        Precision policy (name or
        :class:`~repro.precision.PrecisionPolicy`) applied to the
        backend: compute dtype for cluster products / wrapping / the
        running G, spine dtype for stratification.

    ``None`` for either falls to the environment, then the default
    (:func:`repro.options.resolve_options`); a passed-in backend
    instance keeps its own policy.
    """

    def __init__(
        self,
        factory: BMatrixFactory,
        field: HSField,
        method: StratificationMethod = "prepivot",
        cluster_size: int = 10,
        profiler: Optional[PhaseProfiler] = None,
        telemetry: Optional[Telemetry] = None,
        backend=None,
        precision=None,
    ):
        self.factory = factory
        self.field = field
        self.method = check_method(method)
        #: the image map when the down sector is derived from the up one
        self.particle_hole = factory.particle_hole
        #: the spin sectors the engine stratifies, wraps and updates
        self.sectors = (1,) if self.particle_hole is not None else (1, -1)
        # The engine is the user-facing entry point, so (unlike the
        # library-level chain functions) its defaults are env-aware.
        options = resolve_options(backend, precision, factory.kinetic_mode)
        if isinstance(options.backend, str):
            self.backend = get_backend(options.backend, precision=options.policy)
        else:
            # A live backend keeps its own policy unless one was asked for.
            self.backend = options.backend.set_policy(options.policy)
        self.backend.bind(factory)
        self.profiler = ensure_profiler(profiler)
        self.telemetry = ensure_telemetry(telemetry)
        self.cache = ClusterCache(
            factory, field, cluster_size, backend=self.backend
        )
        self._register_cache_stats()
        self._drop_partials()
        self.last_stats = StratificationStats()
        #: the sweep's :class:`~repro.core.DelayedUpdater`, kept between
        #: sweeps with no G anchored (built and reused by the sweep)
        self.delayed_updater = None

    def _register_cache_stats(self) -> None:
        """Expose cluster-cache and backend stats to telemetry snapshots.

        The sources read ``self.cache`` / ``self.backend`` at snapshot
        time, so a re-tiled cache or a re-bound backend is covered
        without re-registration."""
        if not self.telemetry.enabled:
            return

        def export(registry, engine=self) -> None:
            for name, value in engine.cache.stats().items():
                registry.set_gauge(name, value)
            for name, value in engine.backend.stats().items():
                registry.set_gauge(name, value)

        self.telemetry.add_snapshot_source(export)

    @property
    def device(self):
        """The simulated device of a GPU-offload backend (its virtual
        clock and launch/transfer counters); AttributeError on backends
        without one."""
        device = getattr(self.backend, "device", None)
        if device is None:
            raise AttributeError(
                f"backend {self.backend.name!r} has no device"
            )
        return device

    @property
    def policy(self):
        """The active :class:`~repro.precision.PrecisionPolicy` (carried
        by the backend — the protocol owns the dtype decisions)."""
        return self.backend.policy

    @property
    def n(self) -> int:
        return self.factory.n

    @property
    def n_clusters(self) -> int:
        return self.cache.n_clusters

    @property
    def cluster_size(self) -> int:
        return self.cache.cluster_size

    # -- cache maintenance -------------------------------------------------

    def _drop_partials(self) -> None:
        """Forget every kept partial decomposition, both spins."""
        #: sigma -> (prefix side, suffix side)
        self._partials = {
            s: (_ChainSide(transposed=False), _ChainSide(transposed=True))
            for s in (1, -1)
        }

    def n_kept(self, sigma: int) -> int:
        """How many partial decompositions spin ``sigma`` holds: ``c`` on
        the prefix side and ``n_clusters - c`` on the suffix side at
        boundary ``c`` of an alternating sweep, ``2 n_clusters`` ever."""
        return sum(map(len, self._partials[sigma]))

    def invalidate_slice(self, l: int) -> None:
        """Must be called after the HS field changes at slice l."""
        self.cache.invalidate_slice(l)
        j = self.cache.cluster_of_slice(l)
        # A prefix of n factors holds clusters 0..n-1, a suffix of n
        # factors clusters nc-n..nc-1: drop the ones containing cluster j.
        for prefix, suffix in self._partials.values():
            prefix.drop_from(j + 1)
            suffix.drop_from(self.n_clusters - j)

    def invalidate_all(self) -> None:
        self.cache.invalidate_all()
        self._drop_partials()

    def set_precision(self, policy) -> bool:
        """Adopt a new precision policy on the live engine, in place.

        The watchdog's promotion path (and checkpoint resume). The
        backend re-realizes the kinetic exponentials in the new compute
        dtype and every cached cluster product is dropped — the products
        are compute-dtype state, so the next ``boundary_greens`` rebuilds
        and re-stratifies under the new policy, leaving the engine
        indistinguishable from one constructed with it. Safe between
        sweeps only. Returns True when the policy actually changed.
        """
        policy = resolve_policy(resolve_option("precision", policy))
        if policy is self.backend.policy:
            return False
        self.backend.set_policy(policy)
        self.invalidate_all()
        self.telemetry.counter("engine.precision_switches")
        return True

    # -- fresh evaluation ----------------------------------------------------

    def boundary_greens(
        self, sigma: int, start_cluster: int = 0, displaced: bool = False
    ):
        """Freshly stratified G at boundary index ``c = start_cluster``.

        Index ``c`` in ``0 .. nc`` joins the prefix chain
        ``R_c = Btilde_{c-1} ... Btilde_0`` and the suffix chain
        ``Btilde_{nc-1} ... Btilde_c``, held as ``S_{nc-c}``, the
        decomposition of its transpose, with the two-sided stable
        inversion. Index 0 is ``S_nc`` alone and index ``nc`` is ``R_nc``
        alone: the same G, each rounded as its own side rounds it. A
        forward sweep starts at 0, a backward one at ``nc``, where the
        forward sweep before it left its prefixes.

        With ``displaced`` the call returns ``(G, G(tau_c, 0))``: at an
        interior index the time-displaced function ``(I + R_c L)^{-1}
        R_c`` from the same factorization of the join (one more
        triangular solve and GEMM), at index 0 or ``nc`` ``G(beta, 0) = I
        - G``. ``G(tau_c, 0)`` is not cast to the compute dtype; ``G``
        itself is bit for bit what the call without it returns. On an
        engine with one sector the spin-up call returns the pair
        ``(G_+(tau_c, 0), G_-(tau_c, 0))`` in place of ``G(tau_c, 0)``:
        the down one is ``-Lambda G_+(0, tau_c)^T Lambda``, and the join
        gives ``G_+(0, tau_c)`` for one GEMM more (``Lambda G_+^T
        Lambda`` at index 0 or ``nc``).

        Each side continues from the longest decomposition it keeps (see
        :class:`_ChainSide`); what is kept never changes the result, only
        the number of pushes, which ``last_stats.n_factors`` reports.
        Every push takes its cluster product out of the cache: the kept
        decomposition makes it redundant until its cluster is swept.
        Cluster products come from the recycling cache (phase
        "clustering"); the pushes and the inversion are phase
        "stratification".
        """
        nc = self.n_clusters
        if not 0 <= start_cluster <= nc:
            raise IndexError(f"boundary {start_cluster} out of range")
        prefix, suffix = self._partials[sigma]
        # the down sector's displaced function comes along with the up one
        image = self.particle_hole if displaced and sigma == 1 else None
        with self.profiler.phase("clustering"):
            todo_right = self._missing(sigma, prefix, start_cluster)
            todo_left = self._missing(sigma, suffix, nc - start_cluster)
        with self.profiler.phase("stratification"):
            stats = StratificationStats()
            right = self._extend(prefix, start_cluster, todo_right, stats)
            left_t = self._extend(suffix, nc - start_cluster, todo_left, stats)
            g_tau = None
            if right is None:  # index 0: G = (I + L)^-1 = ((I + L^T)^-1)^T
                stats.grading_ratio = left_t.grading_ratio()
                g = stable_inverse_from_graded(left_t).T
            elif left_t is None:  # index nc: G = (I + R)^-1
                stats.grading_ratio = right.grading_ratio()
                g = stable_inverse_from_graded(right)
            else:
                stats.grading_ratio = max(
                    right.grading_ratio(), left_t.grading_ratio()
                )
                g = stable_inverse_two_sided(
                    right, left_t, self.backend, displaced=displaced,
                    backward=image is not None,
                )
                if image is not None:
                    g, g_tau, g_back = g
                    g_tau = (g_tau, image.displaced(g_back))
                elif displaced:
                    g, g_tau = g
            if displaced and g_tau is None:  # tau = beta
                g_tau = np.eye(self.n) - g
                if image is not None:
                    g_tau = (g_tau, image.at_beta(g))
            self.last_stats = stats
        self.telemetry.counter("engine.stratifications")
        # The refresh is computed on the float64 spine; the running G
        # that wraps and delayed updates consume lives in the policy's
        # compute dtype (no-op passthrough under full64).
        g = self.backend.policy.compute(g)
        return (g, g_tau) if displaced else g

    def _missing(self, sigma: int, side: _ChainSide, n: int) -> list:
        """The factors that take ``side`` from what it keeps to ``n``
        factors (none when it keeps that many), each product taken out of
        the cache. Factor ``i`` is cluster ``i`` of a prefix, cluster
        ``nc - 1 - i`` of a suffix, transposed."""
        take = self.cache.take
        if not side.transposed:
            return [take(sigma, j) for j in range(len(side), n)]
        last = self.n_clusters - 1
        return [take(sigma, last - i).T for i in range(len(side), n)]

    def _extend(
        self,
        side: _ChainSide,
        n: int,
        factors: list,
        stats: StratificationStats,
    ) -> Optional[GradedDecomposition]:
        """``side``'s decomposition of ``n`` factors (None for 0), after
        pushing ``factors`` onto the last one it keeps. Every push lands
        on the side. ``factors`` is consumed: each is released as soon
        as it is folded in.
        """
        if factors:
            chain = IncrementalStratifier(
                self.method, self.backend, start=side[-1] if side else None
            )
            factors.reverse()
            while factors:
                chain.push(factors.pop())
                side.append(chain.decomposition())
            stats.n_factors += chain.n_factors
            stats.sync_points += chain.sync_points
            stats.max_pivot_displacement = max(
                stats.max_pivot_displacement, chain.max_pivot_displacement
            )
        return side[n - 1] if n else None

    def greens_at_slice(self, sigma: int, l: int) -> np.ndarray:
        """G_l (leftmost factor B_l) built fresh: boundary G + wraps.

        Stratifies at the cluster boundary at-or-before slice l, then
        wraps forward through slices ``c*k .. l``. Used for measurements
        at arbitrary slices and by tests; the sweep itself keeps a
        running wrapped G instead.
        """
        c = self.cache.cluster_of_slice(l)
        g = self.boundary_greens(sigma, c)
        for ll in range(c * self.cluster_size, l + 1):
            g = self.wrap(g, ll, sigma)
        return g

    def greens_at_slice_direct(self, sigma: int, l: int) -> np.ndarray:
        """G_l stratified slice-by-slice (no clustering, no wrapping).

        The most conservative evaluation available: one QR step per time
        slice over individual B matrices, chain order
        ``[l+1, ..., L-1, 0, ..., l]`` (rightmost first). Serves as the
        independent reference for wrap-drift and clustering-accuracy
        diagnostics.
        """
        nl = self.field.n_slices
        if not 0 <= l < nl:
            raise IndexError(f"slice {l} out of range")
        order = [(l + 1 + j) % nl for j in range(nl)]
        factors = (
            self.factory.b_matrix(self.field, ll, sigma) for ll in order
        )
        with self.profiler.phase("stratification"):
            return stratified_inverse(
                factors, method=self.method, backend=self.backend
            )

    # -- wrapping -----------------------------------------------------------

    def wrap(self, g: np.ndarray, l: int, sigma: int) -> np.ndarray:
        """``B_l G B_l^{-1}``: advance so slice l becomes the leftmost factor."""
        with self.profiler.phase("wrapping"):
            return wrap_forward(
                self.factory, self.field, g, l, sigma, backend=self.backend
            )

    def unwrap(self, g: np.ndarray, l: int, sigma: int) -> np.ndarray:
        """Inverse of :meth:`wrap` (used by reverse sweeps and tests)."""
        with self.profiler.phase("wrapping"):
            return wrap_backward(
                self.factory, self.field, g, l, sigma, backend=self.backend
            )

    def _spin_v_stack(self, l: int, n_sectors: int) -> np.ndarray:
        """The ``(S, N)`` diagonals of ``V_l`` for spin up, then down."""
        nu = self.factory.nu
        return np.stack(
            [self.field.v_diagonal(l, s, nu) for s in (1, -1)[:n_sectors]]
        )

    def wrap_pair(self, gs: np.ndarray, l: int) -> np.ndarray:
        """Wrap the spin sectors through slice ``l`` in one batched call.

        ``gs`` is the ``(S, N, N)`` stack of the spin-up and (``S = 2``)
        spin-down Green's functions, taken and returned whole so
        stacked-GEMM backends run the pair as single batched products and
        the sweep never copies between a dict and a stack. Per-sector
        results are bit-identical to :meth:`wrap`.
        """
        with self.profiler.phase("wrapping"):
            return self.backend.wrap_batched(gs, self._spin_v_stack(l, len(gs)))

    def unwrap_pair(self, gs: np.ndarray, l: int) -> np.ndarray:
        """Batched inverse of :meth:`wrap_pair` for the spin stack."""
        with self.profiler.phase("wrapping"):
            return self.backend.unwrap_batched(gs, self._spin_v_stack(l, len(gs)))

    def _chain_decomposition(
        self, sigma: int, start_cluster: int = 0
    ) -> GradedDecomposition:
        """The whole chain at a boundary as one graded decomposition."""
        with self.profiler.phase("clustering"):
            chain = self.cache.chain(sigma, start_cluster)
        with self.profiler.phase("stratification"):
            return stratified_decomposition(
                chain, method=self.method, backend=self.backend
            )

    def log_weight(self) -> tuple:
        """``(sign, log|det M_+ det M_-|)`` for the current field.

        Computed through the graded decomposition (no overflow); the
        acceptance weight of a global move. With one sector, ``det M_- =
        det M_+ / det A_+`` and ``log det A_+`` is the sum of the
        ``V_{l,+}`` exponents, ``nu sum_{l,i} h_{l,i}``: one chain, and
        the sign is +1.
        """
        if self.particle_hole is not None:
            _, ld = stable_log_det_from_graded(self._chain_decomposition(1))
            return 1.0, 2.0 * ld - self.factory.nu * float(self.field.h.sum())
        sign, log_abs = 1.0, 0.0
        for sigma in (1, -1):
            s, ld = stable_log_det_from_graded(self._chain_decomposition(sigma))
            sign *= s
            log_abs += ld
        return sign, log_abs

    def configuration_sign(self) -> float:
        """Sign of ``det M_+ det M_-`` for the current field (+1, without
        a chain, when the down sector is the particle-hole image).

        The simulation seeds its running sign with this once; sweeps then
        track it incrementally through Metropolis ratio signs.
        """
        if self.particle_hole is not None:
            return 1.0
        return self.log_weight()[0]

    # -- diagnostics -----------------------------------------------------------

    def grading_profile(self, sigma: int, start_cluster: int = 0) -> np.ndarray:
        """The graded scales |D| of the current chain, sorted descending.

        The spectrum whose dynamic range the whole stratification
        machinery exists to tame: its spread is exp(O(beta * (U + W))).
        These are diag(R) magnitudes — singular values up to modest
        factors. Useful for diagnosing why a parameter point needs a
        smaller cluster size (see
        :func:`repro.linalg.chain_conditioning_report`).
        """
        dec = self._chain_decomposition(sigma, start_cluster)
        return np.sort(np.abs(dec.d))[::-1]

    def wrap_drift(self, sigma: int, n_wraps: Optional[int] = None) -> float:
        """Relative error accumulated by ``n_wraps`` consecutive wraps.

        Starting from a fresh G at boundary 0, wraps through the first
        ``n_wraps`` slices and compares against the freshly stratified
        G at the same position: ``||G_wrap - G_fresh||_F / ||G_fresh||_F``.
        This is the quantity that justifies the choice of l_wrap ~ 10
        (ablation bench).
        """
        n_wraps = self.cluster_size if n_wraps is None else n_wraps
        if not 1 <= n_wraps <= self.field.n_slices:
            raise ValueError("n_wraps out of range")
        g = self.boundary_greens(sigma, 0)
        for l in range(n_wraps):
            g = self.wrap(g, l, sigma)
        fresh = self.greens_at_slice_direct(sigma, n_wraps - 1)
        # Diagnostic Frobenius norms, not a propagator operation — no
        # backend dispatch wanted here.
        denom = np.linalg.norm(fresh)  # qmclint: disable=QL007 -- diagnostic norm, not a propagator op
        return float(np.linalg.norm(g - fresh) / denom)  # qmclint: disable=QL007 -- diagnostic norm, not a propagator op
