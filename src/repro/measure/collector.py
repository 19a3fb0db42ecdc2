"""The standard measurement set evaluated during a DQMC run.

:class:`MeasurementCollector` bundles the per-sample observable functions
(density, double occupancy, kinetic energy, <n_k>, C_zz, sign) behind one
``measure(g_up, g_dn, sign)`` call that the simulation driver invokes at
measurement points, and feeds the log-binned
:class:`~repro.stats.StreamingAccumulator`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..lattice import SquareLattice
from .charge import charge_density_correlation
from .equal_time import (
    double_occupancy,
    kinetic_energy,
    same_spin_exchange,
    total_density,
)
from .estimators import BinnedEstimate
from .momentum import momentum_distribution_spin_mean
from .pairing import swave_pair_structure_factor
from .spin import af_structure_factor, spin_zz_correlation

__all__ = ["MeasurementCollector"]


class MeasurementCollector:
    """Per-sample measurement dispatch + accumulation.

    Parameters
    ----------
    lattice:
        Geometry (momentum/correlation observables need a
        :class:`SquareLattice`; for other geometries only scalar
        observables are collected).
    t, t_perp:
        Hopping amplitudes for the kinetic-energy estimator.
    with_arrays:
        Collect the array-valued observables (<n_k>, C_zz) — O(N^2) per
        measurement; switch off for pure-performance benches.
    particle_hole:
        The model's :class:`~repro.hamiltonian.ParticleHoleImage` when its
        down sector is the image of the up one: :meth:`measure` then
        forms ``G_-`` from ``G_+`` when it is not handed one.

    Samples accumulate in a :class:`repro.stats.StreamingAccumulator`:
    O(log n) log-binned state per observable, with sample series only
    for explicitly tracked scalars.
    """

    def __init__(
        self,
        lattice,
        t: float = 1.0,
        t_perp: float = 1.0,
        with_arrays: bool = True,
        particle_hole=None,
    ):
        self.lattice = lattice
        self.particle_hole = particle_hole
        self.t = t
        self.t_perp = t_perp
        self.is_square = isinstance(lattice, SquareLattice)
        self.with_arrays = with_arrays and self.is_square
        # Deferred import: repro.stats sits above repro.measure.
        from ..stats import StreamingAccumulator

        self.accumulator = StreamingAccumulator()

    def measure(
        self, g_up: np.ndarray, g_dn: Optional[np.ndarray], sign: float = 1.0
    ) -> None:
        """Record one sample's worth of every enabled observable.

        ``g_dn`` ``None`` stands for the particle-hole image ``I - Lambda
        G_+^T Lambda`` of ``g_up`` (a collector built with
        ``particle_hole``); it is formed here, as part of the measurement.

        ``sign`` is the configuration's fermion sign; observables are
        recorded sign-weighted so the driver can form sign-corrected
        ratios (at half filling the sign is identically +1 and the
        weighting is a no-op).

        Measurement is the precision-policy floor: under a narrowed
        policy the Green's functions arrive in the compute dtype, but
        every estimator and accumulator runs in float64 — samples are
        promoted here, at the single entry point.
        """
        acc = self.accumulator
        g_up = np.asarray(g_up, dtype=np.float64)
        if g_dn is None:
            if self.particle_hole is None:
                raise ValueError("g_dn is required: no particle-hole image")
            g_dn = self.particle_hole.greens(g_up)
        g_dn = np.asarray(g_dn, dtype=np.float64)
        acc.add("sign", sign)
        acc.add("density", sign * total_density(g_up, g_dn))
        acc.add("double_occupancy", sign * double_occupancy(g_up, g_dn))
        acc.add(
            "kinetic_energy",
            sign * kinetic_energy(self.lattice, g_up, g_dn, self.t, self.t_perp),
        )
        if self.with_arrays:
            nk = momentum_distribution_spin_mean(self.lattice, g_up, g_dn)
            acc.add("momentum_distribution", sign * nk)
            # the same-spin contractions both correlations subtract
            exchange = tuple(
                same_spin_exchange(self.lattice, g) for g in (g_up, g_dn)
            )
            czz = spin_zz_correlation(self.lattice, g_up, g_dn, exchange)
            acc.add("spin_zz", sign * czz)
            cnn = charge_density_correlation(
                self.lattice, g_up, g_dn, exchange
            )
            acc.add("charge_nn", sign * cnn)
            acc.add(
                "swave_pairing",
                sign * swave_pair_structure_factor(self.lattice, g_up, g_dn),
            )
            if self.lattice.lx % 2 == 0 and self.lattice.ly % 2 == 0:
                acc.add("af_structure_factor", sign * af_structure_factor(self.lattice, czz))

    @property
    def n_measurements(self) -> int:
        return self.accumulator.n_samples("sign")

    def results(self, n_bins: int = 16) -> Dict[str, BinnedEstimate]:
        """Binned estimates of everything collected so far.

        Values are the raw sign-weighted averages; use
        :meth:`corrected_results` for sign-corrected expectation values
        with propagated errors when < sign > != 1.
        """
        return self.accumulator.reduce(n_bins=n_bins)

    def corrected_results(self, n_bins: int = 16) -> Dict[str, BinnedEstimate]:
        """Sign-corrected estimates < O s > / < s > with error bars.

        Errors come from delta-method propagation of the log-binned
        estimates. The ``"sign"`` entry stays the raw sign estimate.
        See :func:`repro.stats.sign_corrected_results`.
        """
        from ..stats import sign_corrected_results

        return sign_corrected_results(self.accumulator, n_bins=n_bins)
