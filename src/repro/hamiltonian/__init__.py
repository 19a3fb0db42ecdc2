"""Hubbard Hamiltonian, Trotter discretization, HS field and B matrices."""

from .bmatrix import BMatrixFactory, KINETIC_MODES
from .checkerboard import (
    CheckerboardError,
    CheckerboardPropagator,
    SeparablePropagator,
    bond_groups,
)
from .hs_field import HSField
from .hubbard import HubbardModel, hs_coupling
from .kinetic import KineticPropagator, free_dispersion_2d, free_greens_function
from .particle_hole import ParticleHoleImage, particle_hole_image, sublattice_sign

__all__ = [
    "BMatrixFactory",
    "CheckerboardError",
    "CheckerboardPropagator",
    "HSField",
    "KINETIC_MODES",
    "SeparablePropagator",
    "bond_groups",
    "HubbardModel",
    "KineticPropagator",
    "ParticleHoleImage",
    "free_dispersion_2d",
    "free_greens_function",
    "hs_coupling",
    "particle_hole_image",
    "sublattice_sign",
]
