"""Wrapping: advancing the equal-time Green's function between slices.

Paper Sec. III-B1. With the slice-l Green's function

    G_l = (I + B_l B_{l-1} ... B_0 B_{L-1} ... B_{l+1})^{-1}

(leftmost factor B_l — the orientation the Metropolis ratio at slice l
needs), the next slice's function is the similarity transform

    G_{l+1} = B_{l+1} G_l B_{l+1}^{-1}.

Each wrap is four GEMM-sized operations (two dense products against the
fixed kinetic exponentials plus two diagonal scalings) and slowly loses
accuracy; after ``l_wrap`` wraps the engine re-stratifies from scratch.

Both transforms execute through a
:class:`~repro.backends.PropagatorBackend`, whose ``wrap``/``unwrap``
methods pin one canonical operation order (GEMMs on the well-scaled
matrix first, diagonal scalings after — the paper's GPU Algorithm 6/7
shape) so every backend produces bit-identical Green's functions.
"""

from __future__ import annotations

import numpy as np

from ..backends.registry import resolve_backend
from ..contracts import shape_contract
from ..hamiltonian import BMatrixFactory, HSField

__all__ = ["wrap_forward", "wrap_backward"]


@shape_contract("(n,n)", dtype="compute", finite=True)
def wrap_forward(
    factory: BMatrixFactory,
    field: HSField,
    g: np.ndarray,
    l: int,
    sigma: int,
    backend=None,
) -> np.ndarray:
    """``B_l G B_l^{-1}`` — move the Green's function from slice l-1 to l.

    Expanded as ``V_l (expK @ G @ invexpK) V_l^{-1}`` so the two GEMMs act
    on well-scaled matrices and the diagonal factors are pure row/column
    scalings (the shape of the paper's GPU Algorithm 6/7).
    """
    v = field.v_diagonal(l, sigma, factory.nu)
    return resolve_backend(backend or "numpy", factory=factory).wrap(g, v)


@shape_contract("(n,n)", dtype="compute", finite=True)
def wrap_backward(
    factory: BMatrixFactory,
    field: HSField,
    g: np.ndarray,
    l: int,
    sigma: int,
    backend=None,
) -> np.ndarray:
    """``B_l^{-1} G B_l`` — the inverse transform (undo a wrap through l).

    Used by reverse-order sweeps and by tests (a forward wrap followed by
    a backward wrap must be the identity up to rounding). The backend's
    ``unwrap`` composes the exact inverse of ``wrap``: the two-sided
    scaling (rows by the host-formed ``1/v``, columns by the original
    ``v``) first, then the two GEMMs.
    """
    v = field.v_diagonal(l, sigma, factory.nu)
    return resolve_backend(backend or "numpy", factory=factory).unwrap(g, v)
