"""Physical measurements and Monte Carlo statistics."""

from .charge import charge_density_correlation, charge_structure_factor
from .collector import MeasurementCollector
from .equal_time import (
    density_per_spin,
    double_occupancy,
    greens_displacement_average,
    kinetic_energy,
    total_density,
)
from .estimators import (
    BinnedEstimate,
    binned_statistics,
    integrated_autocorrelation_time,
    jackknife,
)
from .extrapolation import (
    ExtrapolationResult,
    extrapolate_finite_size,
    extrapolate_trotter,
    weighted_linear_fit,
)
from .momentum import momentum_distribution, momentum_distribution_spin_mean
from .pairing import (
    dwave_pair_structure_factor,
    swave_pair_correlation,
    swave_pair_structure_factor,
)
from .symmetric_trotter import HalfKineticTransform, symmetrized_greens
from .spin import (
    af_structure_factor,
    correlation_grid,
    longest_distance_correlation,
    spin_zz_correlation,
)

__all__ = [
    "BinnedEstimate",
    "ExtrapolationResult",
    "HalfKineticTransform",
    "MeasurementCollector",
    "symmetrized_greens",
    "charge_density_correlation",
    "charge_structure_factor",
    "dwave_pair_structure_factor",
    "extrapolate_finite_size",
    "extrapolate_trotter",
    "integrated_autocorrelation_time",
    "swave_pair_correlation",
    "swave_pair_structure_factor",
    "weighted_linear_fit",
    "af_structure_factor",
    "binned_statistics",
    "correlation_grid",
    "density_per_spin",
    "double_occupancy",
    "greens_displacement_average",
    "jackknife",
    "kinetic_energy",
    "longest_distance_correlation",
    "momentum_distribution",
    "momentum_distribution_spin_mean",
    "spin_zz_correlation",
    "total_density",
]
