"""Time-displaced Green's functions ``G(tau, 0) = <c(tau) c^dag(0)>``.

QUEST measures "both static and dynamic" quantities (paper Sec. I); the
dynamic ones need the unequal-time Green's function

.. math::

    G(\\tau_l, 0) = B_l \\cdots B_1 (I + B_L \\cdots B_1)^{-1}
                  = (A_1^{-1} + A_2)^{-1} = (I + A_1 A_2)^{-1} A_1

with ``A_1 = B_l ... B_1`` (the 0..tau chain) and ``A_2 = B_L ...
B_{l+1}`` (the tau..beta chain). The naive right-hand side is hopeless at
large tau — ``A_1`` alone overflows — so both chains are stratified into
graded forms and joined without forming either product.

:func:`displaced_series_fast` holds ``A_1`` as a prefix ``R = Q_R D_R
T_R`` and ``A_2`` as the decomposition of its transpose, ``L^T = Q_L D_L
T_L`` (the engine's own chains), and joins them with the two-sided
identity

.. math::

    G(\\tau, 0) = (I + R L)^{-1} R = Q_L D_{Lb} M^{-1} D_{Rs} T_R

where ``M`` is the O(1) bracket of the equal-time two-sided inverse
(:func:`repro.linalg.stable_inverse_two_sided` with ``displaced=True``).
At ``tau = beta`` antiperiodicity gives ``G(beta, 0) = I - G(0, 0)``, the
equal-time inverse of the whole chain. A simulation's dynamic sample
takes the same joins from the sweep's own boundaries
(:meth:`repro.core.GreensFunctionEngine.boundary_greens`); this routine
is the standalone reference.

The per-tau reference (:func:`displaced_greens`,
:func:`displaced_greens_reverse`) uses the stable sum-inverse of Bai,
Lee, Li & Xu (the paper's reference [24]) on two ``U D T`` factorizations:

.. math::

    A_1^{-1} + A_2 = T_1^{-1} \\, \\bar D_{b}^{-1}
        \\underbrace{\\big[ \\bar D_s (U_1^T T_2^{-1}) D_{2b}
                     + \\bar D_b (T_1 U_2) D_{2s} \\big]}_{M}
        D_{2b}^{-1} \\, T_2

where ``D_1^{-1} = \\bar D_b^{-1} \\bar D_s`` and ``D_2 = D_{2b}^{-1}
D_{2s}`` are the usual big/small splittings: every matrix inside ``M`` is
O(1), so

.. math::

    G(\\tau, 0) = T_2^{-1} D_{2b} M^{-1} \\bar D_b T_1

is evaluated with three well-conditioned solves.
"""

from __future__ import annotations

# qmclint: disable-file=QL007 — the stable sum-inverse works on graded
# big/small splittings whose scalings and solves are pinned to this exact
# rounding-sensitive composition (Bai et al.); it is deliberately not a
# backend-dispatched propagator pipeline.

from typing import List, Optional

import numpy as np
import scipy.linalg as sla

from ..hamiltonian import BMatrixFactory, HSField
from ..linalg import (
    SOLVE_KWARGS,
    GradedDecomposition,
    flops,
    split_scales,
    stable_inverse_from_graded,
    stable_inverse_two_sided,
)
from .stratification import StratificationMethod, stratified_decomposition

__all__ = [
    "stable_sum_inverse",
    "displaced_greens",
    "displaced_greens_reverse",
    "displaced_greens_series",
    "displaced_series_fast",
]


def _identity_decomposition(n: int) -> GradedDecomposition:
    return GradedDecomposition(q=np.eye(n), d=np.ones(n), t=np.eye(n))


def stable_sum_inverse(
    a1: GradedDecomposition, a2: GradedDecomposition
) -> np.ndarray:
    """``(A_1^{-1} + A_2)^{-1}`` from two graded decompositions.

    Both inputs are ``U D T`` factorizations; neither product is ever
    formed. Three LU solves (against ``T_2^T``, ``M`` and ``T_2``) and one
    GEMM. The special case ``A_1 = I`` reproduces the equal-time stable
    inverse (tested). The reference behind :func:`displaced_greens`; the
    series joins with the one-solve two-sided form instead.
    """
    if a1.n != a2.n:
        raise ValueError("mismatched decomposition sizes")
    n = a1.n
    d1b_bar, d1s_bar = split_scales(1.0 / a1.d)  # splitting of D1^{-1}
    d2b, d2s = split_scales(a2.d)

    # All O(1) building blocks.
    u1t_t2inv = sla.solve(
        a2.t.T, a1.q, **SOLVE_KWARGS
    ).T  # U1^T T2^{-1} via T2^T X^T = U1
    t1_u2 = a1.t @ a2.q
    m = (
        d1s_bar[:, None] * u1t_t2inv * d2b[None, :]
        + d1b_bar[:, None] * t1_u2 * d2s[None, :]
    )

    # G = T2^{-1} D2b M^{-1} D1b_bar T1: two more solves.
    rhs = d1b_bar[:, None] * a1.t
    inner = sla.solve(m, rhs, **SOLVE_KWARGS)
    flops.record(
        "displaced_greens",
        3 * flops.lu_solve_flops(n, n) + flops.gemm_flops(n, n, n),
    )
    return sla.solve(a2.t, d2b[:, None] * inner, **SOLVE_KWARGS)


def displaced_greens(
    factory: BMatrixFactory,
    field: HSField,
    sigma: int,
    l: int,
    method: StratificationMethod = "prepivot",
) -> np.ndarray:
    """``G(tau_{l+1}, 0)``: the displaced function with ``l+1`` slices
    folded into the left chain (0-based ``l``; ``l = -1`` gives the
    equal-time ``G(0, 0)``).

    Both partial chains are stratified slice-by-slice under ``method``.
    """
    n_slices = field.n_slices
    if not -1 <= l < n_slices:
        raise IndexError(f"slice {l} out of range")
    n = factory.n
    if l >= 0:
        left = stratified_decomposition(
            (factory.b_matrix(field, ll, sigma) for ll in range(l + 1)),
            method=method,
        )
    else:
        left = _identity_decomposition(n)
    if l + 1 < n_slices:
        right = stratified_decomposition(
            (
                factory.b_matrix(field, ll, sigma)
                for ll in range(l + 1, n_slices)
            ),
            method=method,
        )
    else:
        right = _identity_decomposition(n)
    return stable_sum_inverse(left, right)


def displaced_greens_reverse(
    factory: BMatrixFactory,
    field: HSField,
    sigma: int,
    l: int,
    method: StratificationMethod = "prepivot",
) -> np.ndarray:
    """``G(0, tau_{l+1}) = -<c^dagger(tau) c(0)>`` (the reverse ordering).

    Algebra: ``G(0, tau) = -(I - G(0,0)) A_1^{-1} = -(A_2^{-1} + A_1)^{-1}``
    with the same two chains as :func:`displaced_greens` — evaluated by
    the identical stable sum-inverse with the chain roles swapped.
    Antiperiodicity check (tested): ``G(0, beta) = -G(0, 0)``.
    """
    n_slices = field.n_slices
    if not -1 <= l < n_slices:
        raise IndexError(f"slice {l} out of range")
    n = factory.n
    if l >= 0:
        left = stratified_decomposition(
            (factory.b_matrix(field, ll, sigma) for ll in range(l + 1)),
            method=method,
        )
    else:
        left = _identity_decomposition(n)
    if l + 1 < n_slices:
        right = stratified_decomposition(
            (
                factory.b_matrix(field, ll, sigma)
                for ll in range(l + 1, n_slices)
            ),
            method=method,
        )
    else:
        right = _identity_decomposition(n)
    return -stable_sum_inverse(right, left)


def displaced_series_fast(
    factory: BMatrixFactory,
    field: HSField,
    sigma: int,
    cluster_size: int,
    method: StratificationMethod = "prepivot",
    backend=None,
) -> tuple:
    """``G(tau, 0)`` at every cluster boundary in O(L) QR steps total.

    The naive per-tau evaluation stratifies both chains from scratch —
    O(L^2 / k) QR steps for a full tau grid. This routine builds every
    *prefix* decomposition (``A_1`` chains, grown leftward) and every
    *suffix* decomposition (``A_2`` chains, grown via their transposes,
    since a suffix gains factors on the *right*) — O(L/k) QR steps each
    — and joins them per boundary with
    :func:`~repro.linalg.stable_inverse_two_sided`.

    The transpose trick: ``(B_q ... B_c)^T = B_c^T ... B_q^T`` grows
    leftward in c, so an :class:`IncrementalStratifier` over transposed
    clusters yields ``A_2^T = Q D T``, the ``L^T`` the two-sided join
    expects. No prefix of all nc clusters is needed: ``G(beta, 0) = I -
    G(0, 0)`` comes from the equal-time inverse of the whole suffix.
    ``backend`` runs the chain steps and the joins (default: a serial
    numpy backend).

    Returns
    -------
    (taus, greens):
        ``taus[j] = (j + 1) * cluster_size * dtau`` and ``greens[j]`` the
        corresponding displaced function, for j = 0 .. L/k - 1.
    """
    from ..backends.registry import resolve_backend
    from .clustering import cluster_product, cluster_slices
    from .stratification import IncrementalStratifier

    backend = resolve_backend(backend or "numpy")
    ranges = cluster_slices(field.n_slices, cluster_size)
    nc = len(ranges)
    clusters = [cluster_product(factory, field, sigma, r) for r in ranges]
    prefix, suffix_t = [], []
    inc = IncrementalStratifier(method, backend)
    for c in range(nc - 1):
        inc.push(clusters[c])
        prefix.append(inc.decomposition())
    inc_t = IncrementalStratifier(method, backend)
    for c in range(nc - 1, -1, -1):
        inc_t.push(clusters[c].T)
        suffix_t.append(inc_t.decomposition())

    dtau = factory.model.dtau
    taus = np.array([(c + 1) * cluster_size * dtau for c in range(nc)])
    # tau at boundary c + 1: prefix R_{c+1}, suffix S_{nc-c-1}
    greens = [
        stable_inverse_two_sided(
            prefix[c], suffix_t[nc - c - 2], backend, displaced=True
        )[1]
        for c in range(nc - 1)
    ]
    # G(beta, 0) = I - G(0, 0), with G(0, 0) = (I + L)^-1 = ((I + L^T)^-1)^T
    # evaluated as boundary 0 evaluates it
    greens.append(
        np.eye(factory.n) - stable_inverse_from_graded(suffix_t[nc - 1]).T
    )
    return taus, greens


def displaced_greens_series(
    factory: BMatrixFactory,
    field: HSField,
    sigma: int,
    slices: Optional[List[int]] = None,
    method: StratificationMethod = "prepivot",
) -> List[np.ndarray]:
    """``G(tau, 0)`` at a list of displacement slices (default: all).

    Returns one N x N matrix per requested slice index ``l`` (meaning
    ``tau = (l + 1) * dtau``). Each entry costs two stratified chains —
    O(L N^3) — so callers measuring every tau should subsample (the
    cluster boundaries are the natural grid).
    """
    if slices is None:
        slices = list(range(field.n_slices))
    return [
        displaced_greens(factory, field, sigma, l, method=method)
        for l in slices
    ]
