"""Column-norm kernels and norm-based pre-pivot permutations.

The pre-pivoting variant (paper Sec. IV-A) needs the column 2-norms of the
intermediate matrix ``C_i`` once per stratification step, followed by a
descending sort. The paper notes (Sec. IV-B) that at DQMC matrix sizes the
BLAS ``dnrm2``-per-column loop has too little work per call to parallelize
well, so QUEST computes several norms per OpenMP task. Here the same idea
maps onto a single vectorized reduction (one pass over the matrix, optimal
memory traffic) with an optional thread-parallel path for large matrices via
:mod:`repro.parallel`.
"""

from __future__ import annotations

import numpy as np

from . import flops

__all__ = [
    "column_norms",
    "prepivot_permutation",
]


def column_norms(a: np.ndarray) -> np.ndarray:
    """Column 2-norms of ``a`` in one vectorized pass.

    Uses ``einsum`` so no ``m x n`` temporary is materialized (the square
    and the reduction fuse), then a single sqrt on the length-n result.

    Contract: entries are assumed to have magnitude above
    ``sqrt(min_normal) ~ 1e-154`` (or zero) so the squares do not land in
    the subnormal range — always true for stratification inputs, whose
    graded scales live in the diagonal, never in the matrices themselves.
    (LAPACK's dnrm2 pays an extra scaling pass to lift this restriction;
    the pre-pivot ordering does not need that robustness.)
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    flops.record("norms", flops.norms_flops(*a.shape))
    sq = np.einsum("ij,ij->j", a, a, optimize=True)
    return np.sqrt(sq)


def prepivot_permutation(a: np.ndarray) -> np.ndarray:
    """Permutation ``piv`` sorting columns of ``a`` by descending 2-norm.

    ``a[:, piv]`` has non-increasing column norms. The sort is stable
    (mergesort) so already-graded matrices — the common case inside the
    stratification chain — come back with *no* spurious interchanges,
    which is what makes the pre-pivoted algorithm communication-friendly.
    """
    nrm = column_norms(a)
    # Stable descending sort: negate instead of reversing, so ties keep
    # their original (graded) order.
    return np.argsort(-nrm, kind="stable")

