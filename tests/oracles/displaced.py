"""Reference evaluations of the time-displaced ``G(tau, 0)``.

The engine's joins hand over ``G(tau_c, 0)`` at every cluster boundary
(:meth:`repro.core.GreensFunctionEngine.boundary_greens` with
``displaced=True``); these routines evaluate the same quantity from the
field alone:

.. math::

    G(\\tau_l, 0) = B_l \\cdots B_1 (I + B_L \\cdots B_1)^{-1}
                  = (A_1^{-1} + A_2)^{-1} = (I + A_1 A_2)^{-1} A_1

with ``A_1 = B_l ... B_1`` (the 0..tau chain) and ``A_2 = B_L ...
B_{l+1}`` (the tau..beta chain).

:func:`displaced_series_fast` holds ``A_1`` as a prefix ``R = Q_R D_R
T_R`` and ``A_2`` as the decomposition of its transpose, ``L^T = Q_L D_L
T_L``, and joins them with the two-sided identity

.. math::

    G(\\tau, 0) = (I + R L)^{-1} R = Q_L D_{Lb} M^{-1} D_{Rs} T_R

(:func:`repro.linalg.stable_inverse_two_sided` with ``displaced=True``).
At ``tau = beta`` antiperiodicity gives ``G(beta, 0) = I - G(0, 0)``.
It is the per-boundary reference the engine's hand-over is checked
against bit for bit.

:func:`displaced_greens` is the per-tau reference: both chains
stratified slice by slice and joined by the stable sum-inverse of Bai,
Lee, Li & Xu (the paper's reference [24]) on two ``U D T`` forms:

.. math::

    A_1^{-1} + A_2 = T_1^{-1} \\, \\bar D_{b}^{-1}
        \\underbrace{\\big[ \\bar D_s (U_1^T T_2^{-1}) D_{2b}
                     + \\bar D_b (T_1 U_2) D_{2s} \\big]}_{M}
        D_{2b}^{-1} \\, T_2

where ``D_1^{-1} = \\bar D_b^{-1} \\bar D_s`` and ``D_2 = D_{2b}^{-1}
D_{2s}`` are the usual big/small splittings: every matrix inside ``M`` is
O(1), so ``G(tau, 0) = T_2^{-1} D_{2b} M^{-1} \\bar D_b T_1`` takes three
well-conditioned solves.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.backends.registry import resolve_backend
from repro.core import (
    IncrementalStratifier,
    cluster_product,
    cluster_slices,
    stratified_decomposition,
)
from repro.linalg import (
    SOLVE_KWARGS,
    GradedDecomposition,
    split_scales,
    stable_inverse_from_graded,
    stable_inverse_two_sided,
)

__all__ = ["stable_sum_inverse", "displaced_greens", "displaced_series_fast"]


def _identity_decomposition(n: int) -> GradedDecomposition:
    return GradedDecomposition(q=np.eye(n), d=np.ones(n), t=np.eye(n))


def stable_sum_inverse(
    a1: GradedDecomposition, a2: GradedDecomposition
) -> np.ndarray:
    """``(A_1^{-1} + A_2)^{-1}`` from two graded decompositions.

    Both inputs are ``U D T`` factorizations; neither product is ever
    formed. Three LU solves (against ``T_2^T``, ``M`` and ``T_2``) and one
    GEMM. The special case ``A_1 = I`` reproduces the equal-time stable
    inverse (tested).
    """
    if a1.n != a2.n:
        raise ValueError("mismatched decomposition sizes")
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
    return sla.solve(a2.t, d2b[:, None] * inner, **SOLVE_KWARGS)


def displaced_greens(factory, field, sigma, l, method="prepivot"):
    """``G(tau_{l+1}, 0)``: the displaced function with ``l+1`` slices
    folded into the left chain (0-based ``l``; ``l = -1`` gives the
    equal-time ``G(0, 0)``).

    Both partial chains are stratified slice-by-slice under ``method``.
    """
    n_slices = field.n_slices
    if not -1 <= l < n_slices:
        raise IndexError(f"slice {l} out of range")

    def chain(lo, hi):
        if lo == hi:
            return _identity_decomposition(factory.n)
        return stratified_decomposition(
            (factory.b_matrix(field, ll, sigma) for ll in range(lo, hi)),
            method=method,
        )

    return stable_sum_inverse(chain(0, l + 1), chain(l + 1, n_slices))


def displaced_series_fast(
    factory, field, sigma, cluster_size, method="prepivot", backend=None
):
    """``G(tau, 0)`` at every cluster boundary in O(L) QR steps total.

    Builds every *prefix* decomposition (``A_1`` chains, grown leftward)
    and every *suffix* decomposition (``A_2`` chains, grown via their
    transposes, since a suffix gains factors on the *right*) — O(L/k) QR
    steps each — and joins them per boundary with
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
