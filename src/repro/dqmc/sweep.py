"""The Metropolis sweep (paper Algorithm 1) with delayed updates.

One sweep visits every (slice, site) entry of the HS field once. The
slice loop is organized around the cluster structure:

1. at each cluster boundary, the Green's functions of the evaluated spin
   sectors (``engine.sectors``) are recomputed *fresh* by stratification
   (replacing the accumulated wrapping error — paper Sec. III-B),
2. inside a cluster, the functions are *wrapped* slice to slice,
3. at each slice, all N sites are visited; accepted flips are folded into
   the Green's functions through one spin-stacked
   :class:`~repro.core.DelayedUpdater` (flushed before every wrap), which
   the engine keeps from sweep to sweep.

The Metropolis ratio at slice l, site i (leftmost-B_l orientation):

    d_sigma = 1 + alpha_{i,sigma} * (1 - G_sigma(i, i)),
    r = d_+ * d_-,    accept with probability min(1, |r|).

Where the down sector is the particle-hole image of the up one (``mu =
0`` on a bipartite lattice, :mod:`repro.hamiltonian.particle_hole`),
only the up sector is carried: ``1 - G_-(i, i) = G_+(i, i)``, so ``d_- =
1 + alpha_{i,-} G_+(i, i)``.

The sign of r is tracked: at half filling it is always +1 (particle-hole
symmetry), away from it the average sign is an observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core import DelayedUpdater, GreensFunctionEngine
from ..profiling import PhaseProfiler, ensure_profiler
from ..telemetry import Telemetry, ensure_telemetry

__all__ = ["SweepStats", "sweep", "SINGULAR_THRESHOLD"]

#: Reject (rather than accept) a proposal whose Metropolis denominator
#: magnitude falls below this. A near-singular d has acceptance
#: probability ~|r| ~ 0, so the statistical weight of these proposals is
#: negligible — but *accepting* one divides by d in the delayed update
#: and injects O(1/d) garbage into G (or raises ZeroDivisionError at
#: exactly 0), killing a long run. Rejection keeps the chain valid:
#: min(1, |r|) is replaced by 0 on a measure-~zero set of proposals.
SINGULAR_THRESHOLD = 1e-12


@dataclass
class SweepStats:
    """Counters from one (or several accumulated) sweeps."""

    proposed: int = 0
    accepted: int = 0
    negative_ratios: int = 0
    sign: float = 1.0
    #: number of fresh stratifications performed
    refreshes: int = 0
    #: proposals rejected because the Metropolis denominator was within
    #: SINGULAR_THRESHOLD of zero (would have corrupted G if accepted)
    singular_rejects: int = 0
    #: worst relative Frobenius distance between a G carried to a cluster
    #: boundary by wraps and updates and the fresh one replacing it there
    wrap_drift: float = 0.0
    #: boundaries that comparison ran at (n_clusters - 1 per sweep); 0
    #: means ``wrap_drift`` was never measured, not that it is zero
    boundaries: int = 0
    #: worst graded range max|D|/min|D| of the decompositions the fresh
    #: G's were built from (boundary 0 sees the whole chain)
    grading_ratio: float = 1.0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    def merge(self, other: "SweepStats") -> None:
        self.proposed += other.proposed
        self.accepted += other.accepted
        self.negative_ratios += other.negative_ratios
        self.refreshes += other.refreshes
        self.singular_rejects += other.singular_rejects
        self.wrap_drift = max(self.wrap_drift, other.wrap_drift)
        self.boundaries += other.boundaries
        self.grading_ratio = max(self.grading_ratio, other.grading_ratio)
        # Not a count: the aggregate carries the sign of the latest
        # configuration (an empty ``other`` never saw one).
        if other.proposed:
            self.sign = other.sign


def _wrap_drift(g: np.ndarray, fresh: np.ndarray) -> float:
    """``max_s ||g_s - fresh_s||_F / ||fresh_s||_F`` over the spin stack
    (``inf`` for a non-finite ``g``, so it can never pass a tolerance)."""
    drift = max(
        np.linalg.norm(gs - fs) / np.linalg.norm(fs) for gs, fs in zip(g, fresh)
    )
    return float(drift) if drift == drift else float("inf")


def _updater(
    engine: GreensFunctionEngine, g: np.ndarray, max_delay: int
) -> DelayedUpdater:
    """The engine's delayed updater, anchored on ``g``: the one an
    earlier sweep built while it still fits (class, delay, backend,
    sector count and dtype - a precision promotion changes the last),
    else a new one, kept for the next sweep."""
    upd = engine.delayed_updater
    if (
        type(upd) is DelayedUpdater
        and upd.max_delay == max_delay
        and upd.backend is engine.backend
        and upd.diag.shape == g.shape[:-1]
        and upd.diag.dtype == g.dtype
    ):
        upd.anchor(g)
    else:
        upd = engine.delayed_updater = DelayedUpdater(
            g, max_delay=max_delay, backend=engine.backend
        )
    return upd


def sweep(
    engine: GreensFunctionEngine,
    rng: np.random.Generator,
    max_delay: int = 32,
    profiler: Optional[PhaseProfiler] = None,
    on_boundary: Optional[Callable[[int, dict, float], None]] = None,
    start_sign: float = 1.0,
    direction: str = "forward",
    telemetry: Optional[Telemetry] = None,
    on_displaced: Optional[Callable[[int, tuple, float], None]] = None,
) -> SweepStats:
    """Run one full DQMC sweep, mutating the engine's HS field in place.

    Parameters
    ----------
    engine:
        Green's function engine (owns field, cluster cache, method).
    rng:
        Source of Metropolis randomness (one uniform per proposal).
    max_delay:
        Delayed-update block size; 1 recovers plain rank-1 updates.
    profiler:
        Optional per-phase timer ("delayed_update" covers the site loop).
    on_boundary:
        Callback invoked at every cluster boundary with
        ``(cluster_index, {sigma: G}, sign)`` — *after* the fresh
        recompute, *before* any wrap — for every evaluated sector
        ``sigma`` in ``engine.sectors``: with one sector the down one is
        ``engine.particle_hole.greens(G[1])``. The measurement hook; the
        G arrays must not be mutated by the callback.
    start_sign:
        The sign of the configuration entering the sweep (the simulation
        driver threads it between sweeps; it is +1 at half filling).
    direction:
        "forward" walks the time slices 0..L-1 (wrapping each slice to
        the leftmost position before updating it); "backward" walks
        L-1..0, *un*-wrapping after each slice. Either alone satisfies
        detailed balance; the simulation driver alternates them (QUEST's
        order), so each sweep reads the chain side the one before built.
    on_displaced:
        Callback invoked right after ``on_boundary`` with ``(cluster_index,
        g_tau, sign)``: ``g_tau`` is the pair (spin up, down) of
        ``G(tau_c, 0)`` that the boundary's own joins return
        (:meth:`~repro.core.GreensFunctionEngine.boundary_greens` with
        ``displaced=True``; one join gives both with one sector),
        ``tau_c = c k dtau`` and ``tau = beta`` at index 0. The dynamic
        measurement hook: no chain step, cluster product or factorization
        of its own.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`. The sweep itself
        only emits a ``singular_reject`` event when the denominator
        guard fires (per-sweep counters are the driver's job via
        ``Telemetry.sweep_done``), so the site loop carries zero
        telemetry overhead.

    Returns
    -------
    SweepStats
        Acceptance counters and the running configuration sign estimate.
    """
    prof = ensure_profiler(profiler)
    tel = ensure_telemetry(telemetry)
    field = engine.field
    nu = engine.factory.nu
    n_sites = field.n_sites
    stats = SweepStats()
    sign = start_sign

    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    forward = direction == "forward"
    nc = engine.n_clusters
    cluster_order = range(nc) if forward else range(nc - 1, -1, -1)
    sectors = engine.sectors
    # one sector: the down sector is the particle-hole image of the up one
    image = len(sectors) == 1

    upd = None
    g = None
    for c in cluster_order:
        # Forward: the boundary-c G (rightmost factor = first slice of
        # cluster c), wrapped through each slice before updating it.
        # Backward: the boundary-(c+1) G already has the cluster's *last*
        # slice leftmost — update first, then unwrap toward slice c*k.
        # It starts at index nc, the prefix a forward sweep leaves behind.
        boundary = c if forward else c + 1
        # The spin sectors travel as one (S, N, N) stack: the batched
        # wraps and the delayed updater consume and return it whole.
        fresh = np.empty(
            (len(sectors), n_sites, n_sites), engine.policy.compute_dtype
        )
        g_tau = []
        for i, s in enumerate(sectors):
            if on_displaced is None:
                fresh[i] = engine.boundary_greens(s, boundary)
            else:
                fresh[i], tau = engine.boundary_greens(
                    s, boundary, displaced=True
                )
                # one sector: the up call returns both spins' G(tau_c, 0)
                g_tau.extend(tau if image else (tau,))
            stats.grading_ratio = max(
                stats.grading_ratio, engine.last_stats.grading_ratio
            )
        stats.refreshes += 1
        if g is not None:
            # The G that wraps and updates carried to this boundary is
            # replaced here: its distance from the fresh one is the wrap
            # drift of the cluster just swept.
            stats.wrap_drift = max(stats.wrap_drift, _wrap_drift(g, fresh))
            stats.boundaries += 1
        g = fresh
        if on_boundary is not None:
            on_boundary(boundary % nc, dict(zip(sectors, g)), sign)
        if on_displaced is not None:
            on_displaced(boundary % nc, tuple(g_tau), sign)

        slices = engine.cache.ranges[c]
        slice_order = slices if forward else reversed(slices)
        for l in slice_order:
            if forward:
                # Move slice l to the leftmost position before updating:
                # the spin sectors wrapped in one batched backend call.
                g = engine.wrap_pair(g, l)

            with prof.phase("delayed_update"):
                # One updater per engine, re-anchored on each slice's G
                if upd is None:
                    upd = _updater(engine, g, max_delay)
                else:
                    upd.anchor(g)
                accept = upd.accept
                # Flip factors for the whole slice, vectorized up front.
                # Safe because each site is visited exactly once per
                # slice, so a flip at site i never changes alpha[j > i].
                h_row = field.h[l]
                exp_up = np.exp(-2.0 * nu * h_row)
                # Hot loop: locals and Python floats only (numpy scalars
                # cost several times more per arithmetic op). The
                # effective diagonals are the updater's incrementally
                # maintained rows, updated in place, so a rejected
                # proposal costs a handful of scalar ops.
                alpha_up = (exp_up - 1.0).tolist()
                alpha_dn = (1.0 / exp_up - 1.0).tolist()
                uniforms = rng.random(n_sites).tolist()
                diag_up, diag_dn = upd.diag[0], upd.diag[-1]
                accepted = 0
                negative = 0
                singular = 0
                tiny = SINGULAR_THRESHOLD
                for i in range(n_sites):
                    a_up = alpha_up[i]
                    a_dn = alpha_dn[i]
                    g_ii = diag_up.item(i)
                    d_up = 1.0 + a_up * (1.0 - g_ii)
                    d_dn = 1.0 + a_dn * (g_ii if image else 1.0 - diag_dn.item(i))
                    r = d_up * d_dn
                    if r < 0.0:
                        negative += 1
                    if uniforms[i] < abs(r):
                        # A (near-)singular denominator would divide the
                        # delayed update by ~0; its acceptance weight is
                        # ~|r| ~ 0, so reject instead of crashing the run.
                        if abs(d_up) < tiny or abs(d_dn) < tiny:
                            singular += 1
                            continue
                        h_row[i] = -h_row[i]
                        if image:
                            accept(i, (a_up,), (d_up,))
                        else:
                            accept(i, (a_up, a_dn), (d_up, d_dn))
                        if r < 0.0:
                            sign = -sign
                        accepted += 1
                stats.proposed += n_sites
                stats.negative_ratios += negative
                stats.accepted += accepted
                if singular:
                    stats.singular_rejects += singular
                    tel.counter("sweep.singular_guard_hits", singular)
                    tel.event(
                        "singular_reject", slice=l, count=singular,
                    )
                if accepted:
                    engine.invalidate_slice(l)
                upd.flush()

            if not forward and l != 0:
                # Retreat: remove the (freshly updated) B_l from the
                # leftmost position so slice l-1 is exposed next (the
                # spin sectors in one batched call). Past the cluster's first
                # slice this lands on the boundary the next cluster
                # starts from, where the drift comparison above reads it.
                g = engine.unwrap_pair(g, l)

    if upd is not None:
        upd.release()
    stats.sign = sign
    return stats
