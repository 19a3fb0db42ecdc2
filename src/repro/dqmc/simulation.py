"""The full DQMC simulation driver: warmup, sampling, measurements.

Mirrors a QUEST run (paper Sec. II-B): a warmup stage thermalizes the HS
field with Metropolis sweeps; a measurement stage keeps sweeping while
recording physical observables at cluster boundaries. All the paper's
performance machinery — pre-pivoted stratification, clustering,
recycling, wrapping, delayed updates — is engaged by default and
individually configurable for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core import GreensFunctionEngine, StratificationMethod
from ..hamiltonian import BMatrixFactory, HSField, HubbardModel
from ..measure import BinnedEstimate, MeasurementCollector
from ..options import resolve_options
from ..profiling import PhaseProfiler
from ..telemetry import (
    NumericalHealthWatchdog,
    Telemetry,
    WatchdogConfig,
    ensure_telemetry,
)
from .sweep import SweepStats, sweep

__all__ = ["Simulation", "SimulationResult"]


@dataclass
class SimulationResult:
    """Everything a finished run reports."""

    model: HubbardModel
    observables: Dict[str, BinnedEstimate]
    sweep_stats: SweepStats
    profiler: PhaseProfiler
    n_warmup: int
    n_measurement: int
    mean_sign: float
    #: sign-corrected < O s > / < s > estimates with propagated errors
    #: (None when nothing was measured)
    corrected: Optional[Dict[str, BinnedEstimate]] = None
    #: run-control digest (RunController.summary()) when a controller
    #: drove the measurement stage
    control: Optional[dict] = None
    #: the precision policy the run ended in (a watchdog alert under a
    #: narrowed policy promotes the engine in place)
    precision: str = "full64"
    #: watchdog precision promotions during the run
    promotions: int = 0
    #: spin sectors evaluated: 1 when the down sector is the particle-hole
    #: image of the up one, else 2
    spin_sectors: int = 2

    def summary(self) -> str:
        """A human-readable digest of the scalar observables."""
        lines = [
            f"lattice            {self.model.lattice}",
            f"U = {self.model.u:g}, beta = {self.model.beta:g}, "
            f"L = {self.model.n_slices}, mu = {self.model.mu:g}",
            f"sweeps             {self.n_warmup} warmup + "
            f"{self.n_measurement} measurement",
            f"acceptance         {self.sweep_stats.acceptance_rate:.3f}",
            f"mean sign          {self.mean_sign:+.4f}",
            f"precision          {self.precision} "
            f"({self.promotions} watchdog promotions)",
            f"spin sectors       {self.spin_sectors}"
            + (" (down = particle-hole image of up)"
               if self.spin_sectors == 1 else ""),
        ]
        for name in ("density", "double_occupancy", "kinetic_energy",
                     "af_structure_factor"):
            if name in self.observables:
                lines.append(f"{name:<18} {self.observables[name]}")
        return "\n".join(lines)


class Simulation:
    """A configured DQMC run over one Hubbard model.

    Parameters
    ----------
    model:
        Physics + discretization.
    seed:
        PCG64 seed for the field initialization and Metropolis stream.
    method:
        Stratification pivoting policy ("prepivot" = paper Algorithm 3,
        "qrp" = Algorithm 2 baseline).
    cluster_size:
        k (= the wrap count between fresh stratifications). Must divide
        ``model.n_slices``.
    max_delay:
        Delayed-update block size (1 disables delaying).
    measure_arrays:
        Collect <n_k> and C_zz (O(N^2) per measurement).
    measurements_per_sweep:
        How many cluster boundaries per sweep record measurements,
        spread evenly; capped at the number of clusters.
    global_flips_per_sweep:
        Whole-worldline flip proposals appended after every sweep —
        ergodicity insurance at strong coupling (each proposal costs a
        full Green's evaluation). 0 disables.
    backend:
        Execution backend for every propagator operation: a registry
        name (``"numpy"``, ``"threaded"``, ``"gpu-sim"``) or
        a live :class:`~repro.backends.PropagatorBackend`. Physics
        is backend-independent by construction (bit-identical for the
        simulated backends); only the execution/timing story differs:
        ``"threaded"`` is Sec. IV-B's OpenMP-style norm/scaling pool,
        ``"gpu-sim"`` Sec. VI's hybrid offload (the device's virtual
        clock is at ``sim.engine.device``).
    measure_dynamic:
        Also record the time-displaced observables once per measurement
        sweep: spin-averaged ``G(k, tau)`` and ``G_loc(tau)`` on the
        cluster-boundary tau grid ``k dtau, 2 k dtau, ..., beta``. Each
        boundary's join hands over its ``G(tau_c, 0)`` next to the fresh
        G (one more triangular solve and GEMM per spin, ``G(beta, 0) = I
        - G(0, 0)`` at boundary 0; with one sector the up join's solve
        and one GEMM give the down one), so the sample adds no chain step,
        cluster product or factorization. Each tau point is taken on the
        configuration, and weighted by the sign, current at the boundary
        that produced it, as the equal-time measurements are; off by
        default.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`: per-sweep counters
        and events, periodic metric snapshots (profiler phases and
        cluster-cache stats are registered as snapshot sources), and the
        sink for watchdog alerts. ``None`` (the default) routes every
        call site to the shared no-op instance — zero overhead, exactly
        like a disabled ``REPRO_CONTRACTS``.
    watchdog:
        Optional :class:`~repro.telemetry.WatchdogConfig`. When given, a
        :class:`~repro.telemetry.NumericalHealthWatchdog` judges, every
        ``check_every`` sweeps, the wrap drift and graded range the
        sweeps recorded at their cluster boundaries and — past
        tolerance — emits a ``health_alert`` then invalidates every
        cached cluster product and kept factorization. Under a narrowed
        precision policy an alert additionally *promotes* the engine to
        the next-safer policy in place (``mixed`` -> ``full64``) before
        the refresh.
    precision:
        Precision policy name (``"full64"``, ``"mixed"``)
        or a :class:`~repro.precision.PrecisionPolicy`. Narrowed
        policies change the Markov chain's floating-point trajectory;
        observables agree to the compute dtype's accuracy, and
        measurement accumulators always stay float64.
    streaming:
        Accepted for older callers; ``True`` is the only legal value.
        Measurements always accumulate log-binned
        (:class:`repro.stats.StreamingAccumulator`): O(log n) state per
        observable, sample series only for what a controller tracks.

    ``backend`` / ``precision`` / ``kinetic`` (the propagator mode) left
    at ``None`` fall to the environment, then the defaults
    (:func:`repro.options.resolve_options`); ``sim.options`` keeps the
    resolved triple.
    """

    def __init__(
        self,
        model: HubbardModel,
        seed: int = 0,
        method: StratificationMethod = "prepivot",
        cluster_size: int = 10,
        max_delay: int = 32,
        measure_arrays: bool = True,
        measurements_per_sweep: int = 1,
        global_flips_per_sweep: int = 0,
        measure_dynamic: bool = False,
        telemetry: Optional[Telemetry] = None,
        watchdog: Optional[WatchdogConfig] = None,
        backend=None,
        precision=None,
        kinetic=None,
        streaming: bool = True,
    ):
        if not streaming:
            raise ValueError(
                "streaming=False: post-hoc accumulation was removed; "
                "every run accumulates log-binned"
            )
        self.model = model
        self.rng = np.random.default_rng(seed)
        self.profiler = PhaseProfiler()
        self.telemetry = ensure_telemetry(telemetry)
        if self.telemetry.enabled:
            self.telemetry.add_snapshot_source(
                self.profiler.export_to_registry
            )
        #: backend / precision / kinetic as resolved at construction
        self.options = resolve_options(backend, precision, kinetic)
        self.factory = BMatrixFactory(model, kinetic=self.options.kinetic)
        self.field = HSField.random(model.n_slices, model.n_sites, self.rng)
        self.engine = GreensFunctionEngine(
            self.factory,
            self.field,
            method=method,
            cluster_size=cluster_size,
            profiler=self.profiler,
            telemetry=telemetry,
            backend=self.options.backend,
            precision=self.options.precision,
        )
        self.watchdog = (
            NumericalHealthWatchdog(self.engine, watchdog, self.telemetry)
            if watchdog is not None
            else None
        )
        if global_flips_per_sweep < 0:
            raise ValueError("global_flips_per_sweep must be >= 0")
        self.global_flips_per_sweep = global_flips_per_sweep
        self.max_delay = max_delay
        self.collector = MeasurementCollector(
            model.lattice,
            t=model.t,
            t_perp=model.t_perp,
            with_arrays=measure_arrays,
            particle_hole=self.factory.particle_hole,
        )
        self.controller = None
        if measurements_per_sweep < 1:
            raise ValueError("measurements_per_sweep must be >= 1")
        self.measurements_per_sweep = min(
            measurements_per_sweep, self.engine.n_clusters
        )
        self.measure_dynamic = measure_dynamic
        #: 1 after a forward sweep, 0 after a backward one (or none)
        self._sweep_parity = 0
        #: sweeps done, the watchdog's cadence (both checkpointed)
        self._sweep_index = 0
        #: measurement sweeps completed (survives checkpoint resume;
        #: unlike sample counts it is immune to equilibration discards)
        self.measured_sweeps = 0
        self._sign = self.engine.configuration_sign()
        self.total_stats = SweepStats()

    @property
    def precision(self) -> str:
        """Name of the engine's active precision policy."""
        return self.engine.policy.name

    def set_precision(self, policy) -> bool:
        """Switch the precision policy on the live run (between sweeps).

        Delegates to :meth:`GreensFunctionEngine.set_precision`; used by
        checkpoint resume (the saved policy — possibly a
        watchdog-promoted one — is reapplied so the continuation is
        bit-exact). Returns True when the policy
        actually changed.
        """
        return self.engine.set_precision(policy)

    def _dynamic_sample(self):
        """The dynamic measurement of one sweep as ``(on_displaced,
        finish)``. The sweep hands ``on_displaced`` each boundary's two
        ``G(tau_c, 0)`` (spin up, down; one join gives both when the down
        sector is the particle-hole image), kept as their sum - the sample is
        spin averaged and both carry the boundary's sign - in the row of
        tau_c. ``finish``, after the sweep, reduces all rows at once (one
        gather and one FFT batched over tau) and adds one sign-weighted
        sample of ``g_loc_tau`` and, on square lattices, ``g_k_tau``."""
        from ..lattice import SquareLattice, fourier_two_point
        from ..measure.equal_time import greens_displacement_average

        nc, n = self.engine.n_clusters, self.model.n_sites
        lattice = self.model.lattice
        signs = np.empty(nc)
        summed = np.empty((nc, n, n))

        def on_displaced(c: int, g_tau: tuple, sign: float) -> None:
            j = (c - 1) % nc  # tau_c = c k dtau; index 0 is tau = beta
            signs[j] = sign
            np.add(*g_tau, out=summed[j])

        def finish() -> None:
            with self.profiler.phase("measurements"):
                acc = self.collector.accumulator
                if not isinstance(lattice, SquareLattice):
                    gloc = np.einsum("jii->j", summed) / (2 * n)
                    acc.add("g_loc_tau", signs * gloc)
                    return
                # the displacement-0 entry of the average is G_loc
                avg = 0.5 * greens_displacement_average(
                    lattice, summed, transpose=True
                )
                acc.add("g_loc_tau", signs * avg[:, 0])
                gk = fourier_two_point(lattice, avg)
                acc.add("g_k_tau", signs[:, None] * gk)

        return on_displaced, finish

    def _next_direction(self) -> str:
        """Forward, backward, forward, ...: QUEST's order, in which each
        sweep starts on the chain side the one before it built."""
        self._sweep_parity ^= 1
        return "forward" if self._sweep_parity else "backward"

    def _maybe_global_flips(self) -> None:
        if self.global_flips_per_sweep:
            from .global_moves import global_site_flips

            _, self._sign = global_site_flips(
                self.engine,
                self.rng,
                n_proposals=self.global_flips_per_sweep,
                start_sign=self._sign,
            )

    def _after_sweep(self, st: SweepStats, stage: str) -> None:
        """Per-sweep telemetry + watchdog cadence (no-ops when disabled)."""
        self._sweep_index += 1
        if self.telemetry.enabled:
            self.telemetry.sweep_done(self._sweep_index, st, stage=stage)
        if self.watchdog is not None:
            self.watchdog.maybe_check(self._sweep_index, st)

    # -- stages ------------------------------------------------------------------

    def warmup(self, n_sweeps: int) -> SweepStats:
        """Thermalization sweeps (no measurements)."""
        agg = SweepStats()
        for _ in range(n_sweeps):
            st = sweep(
                self.engine,
                self.rng,
                max_delay=self.max_delay,
                profiler=self.profiler,
                start_sign=self._sign,
                direction=self._next_direction(),
                telemetry=self.telemetry,
            )
            self._sign = st.sign
            self._maybe_global_flips()
            self._after_sweep(st, stage="warmup")
            agg.merge(st)
        self.total_stats.merge(agg)
        return agg

    def measure_sweeps(self, n_sweeps: int) -> SweepStats:
        """Sampling sweeps with measurements at cluster boundaries."""
        nc = self.engine.n_clusters
        stride = max(1, nc // self.measurements_per_sweep)
        collector = self.collector

        def on_boundary(c: int, g: Dict[int, np.ndarray], sign: float) -> None:
            if c % stride == 0 and c // stride < self.measurements_per_sweep:
                with self.profiler.phase("measurements"):
                    # one sector: the collector forms the down image
                    collector.measure(g[1], g.get(-1), sign)

        on_displaced = finish_dynamic = None
        if self.measure_dynamic:
            on_displaced, finish_dynamic = self._dynamic_sample()

        agg = SweepStats()
        for _ in range(n_sweeps):
            st = sweep(
                self.engine,
                self.rng,
                max_delay=self.max_delay,
                profiler=self.profiler,
                on_boundary=on_boundary,
                start_sign=self._sign,
                direction=self._next_direction(),
                telemetry=self.telemetry,
                on_displaced=on_displaced,
            )
            if finish_dynamic is not None:
                finish_dynamic()
            self._sign = st.sign
            self._maybe_global_flips()
            self._after_sweep(st, stage="measure")
            self.measured_sweeps += 1
            agg.merge(st)
        self.total_stats.merge(agg)
        return agg

    def attach_controller(self, controller):
        """Put the measurement stage under a
        :class:`repro.stats.RunController`.

        The controller is consulted after every measurement sweep of
        :meth:`measure_until`; its decision state rides along in
        checkpoints. Attach *before* :func:`load_checkpoint` when
        resuming so the saved decision state lands in this instance.
        """
        self.controller = controller
        controller.bind(self)
        return controller

    def measure_until(self, max_sweeps: int):
        """Measurement sweeps under the attached controller.

        Sweeps until the controller says the error target is met or
        ``max_sweeps`` have run, whichever is first. Returns
        ``(stats, sweeps_done, last_decision)`` — the decision is None
        when the budget ran out between controller cadence points.
        """
        if self.controller is None:
            raise RuntimeError(
                "no controller attached; call attach_controller() first "
                "or use measure_sweeps() for a fixed budget"
            )
        if self.controller.stopped:
            return SweepStats(), 0, self.controller.last
        agg = SweepStats()
        done = 0
        decision = None
        while done < max_sweeps:
            agg.merge(self.measure_sweeps(1))
            done += 1
            latest = self.controller.check(self)
            if latest is not None:
                decision = latest
                if decision.stop:
                    break
        return agg, done, decision

    def run(
        self, warmup_sweeps: int = 100, measurement_sweeps: int = 200,
        n_bins: int = 16,
    ) -> SimulationResult:
        """Warmup + measurement, returning reduced observables."""
        self.warmup(warmup_sweeps)
        self.measure_sweeps(measurement_sweeps)
        return self.result(
            n_warmup=warmup_sweeps,
            n_measurement=measurement_sweeps,
            n_bins=n_bins,
        )

    def result(
        self, n_warmup: int, n_measurement: int, n_bins: int = 16
    ) -> SimulationResult:
        obs = self.collector.results(n_bins=n_bins)
        mean_sign = (
            float(np.asarray(obs["sign"].mean)) if "sign" in obs else 1.0
        )
        try:
            corrected = (
                self.collector.corrected_results(n_bins=n_bins)
                if obs
                else None
            )
        except ValueError:
            # Hard sign problem (< s > numerically zero): raw
            # sign-weighted averages stand, no ratio is quotable.
            corrected = None
        stats = SweepStats()
        stats.merge(self.total_stats)
        stats.sign = self._sign
        return SimulationResult(
            model=self.model,
            observables=obs,
            sweep_stats=stats,
            profiler=self.profiler,
            n_warmup=n_warmup,
            n_measurement=n_measurement,
            mean_sign=mean_sign,
            corrected=corrected,
            control=(
                self.controller.summary()
                if self.controller is not None
                else None
            ),
            precision=self.precision,
            promotions=(
                self.watchdog.promotions if self.watchdog is not None else 0
            ),
            spin_sectors=len(self.engine.sectors),
        )
