"""Stable evaluation of ``(I + Q diag(d) T)^{-1}`` and friends.

The last step of both stratification algorithms (paper Algorithms 2 and 3,
step 4) turns the graded decomposition of the propagator product into the
equal-time Green's function without ever forming the catastrophically
ill-conditioned product itself.

With ``d = ds / db`` from :func:`repro.linalg.graded.split_scales`:

.. math::

    G = (I + Q D T)^{-1}
      = (Q D_b^{-1} (D_b Q^T + D_s T))^{-1}
      = (D_b Q^T + D_s T)^{-1} D_b Q^T

Every matrix inside the solve — ``D_b Q^T`` and ``D_s T`` — has entries of
magnitude O(1), so an ordinary LU solve is accurate. This is algebraically
the paper's step 4 written without the explicit ``T^{-T}``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg import get_lapack_funcs

from ..contracts import shape_contract
from . import flops
from .graded import GradedDecomposition, split_scales

__all__ = [
    "SOLVE_KWARGS",
    "stable_inverse_from_graded",
    "stable_inverse_two_sided",
    "stable_log_det_from_graded",
    "naive_inverse",
]

#: The package-wide finiteness policy for LAPACK-backed calls. Input
#: checking is O(n^2) per call and redundant here: every operand entering
#: a stable solve is O(1) by construction, and the runtime contracts
#: layer (:mod:`repro.contracts`) validates finiteness at the API
#: boundary when enabled. Spell ``**SOLVE_KWARGS`` instead of repeating
#: ``check_finite=False`` so the policy can be flipped in one place.
SOLVE_KWARGS = {"check_finite": False}


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` by one LAPACK ``gesv`` in the operands' dtype (``sgesv``
    on a float32 spine), bit for bit what :func:`scipy.linalg.solve`
    gives on these operands, without its structure scan and condition
    estimate. So no ill-conditioning warning: every matrix solved here is
    O(1) by construction, and the graded range of the decompositions is
    the health signal. A singular ``a`` raises ``LinAlgError``."""
    (gesv,) = get_lapack_funcs(("gesv",), (a, b))
    _, _, x, info = gesv(a, b)
    if info:
        raise np.linalg.LinAlgError(f"gesv failed (info = {info})")
    return x


def stable_inverse_from_graded(g: GradedDecomposition) -> np.ndarray:
    """Green's function ``(I + Q diag(d) T)^{-1}`` via the D_b/D_s split."""
    db, ds = split_scales(g.d)
    # Both addends are O(1): db, ds are bounded by 1, Q is orthogonal and
    # T is the well-conditioned graded factor.
    lhs = db[:, None] * g.q.T + ds[:, None] * g.t
    rhs = db[:, None] * g.q.T
    n = g.n
    flops.record("stable_inverse", flops.lu_solve_flops(n, n) + 2 * n * n)
    return _solve(lhs, rhs)


def stable_inverse_two_sided(
    right: GradedDecomposition,
    left_t: GradedDecomposition,
    backend,
    displaced: bool = False,
    backward: bool = False,
):
    """``(I + R L)^{-1}`` from ``R = Q_R D_R T_R`` and ``L^T = Q_L D_L T_L``;
    with ``displaced`` also ``(I + R L)^{-1} R`` from the same LU, and
    with ``backward`` too ``-L (I + R L)^{-1}``.

    The join of a prefix chain ``R`` and a suffix chain ``L`` held as the
    decomposition of its *transpose* (a suffix grows on its right, so it
    is stratified as the leftward-growing ``L^T``; hence
    ``L = T_L^T D_L Q_L^T``). With both diagonals split big/small,

    .. math::

        M = D_{Rb} (Q_R^T Q_L) D_{Lb} + D_{Rs} (T_R T_L^T) D_{Ls}, \\
        G = Q_L D_{Lb} M^{-1} D_{Rb} Q_R^T

    and every entry of ``M`` is O(1) (Bauer, "Fast and stable
    determinant quantum Monte Carlo"). With ``R`` the chain from 0 to tau
    and ``L`` the one from tau to beta, ``(I + R L)^{-1} R`` is the
    time-displaced ``G(tau, 0)``: the closing ``D_Rb Q_R^T`` meets ``R =
    Q_R D_Rb^{-1} D_Rs T_R`` and cancels, leaving

    .. math::

        G(\\tau, 0) = Q_L D_{Lb} M^{-1} D_{Rs} T_R

    The other time order, ``G(0, tau) = -(I - G(0, 0)) R^{-1} = -L (I +
    R L)^{-1}``, meets ``L = T_L^T D_{Lb}^{-1} D_{Ls} Q_L^T`` on the left
    of ``G`` and needs no solve of its own:

    .. math::

        G(0, \\tau) = -T_L^T D_{Ls} X, \\qquad X = M^{-1} D_{Rb} Q_R^T

    ``M`` is factored once (``getrf``) and solved (``getrs``) for each
    right-hand side asked for; the N x N products go through
    ``backend.gemm``. Returns ``G``, ``(G, G(tau, 0))`` when
    ``displaced``, and ``(G, G(tau, 0), G(0, tau))`` with ``backward``
    too.
    """
    if right.n != left_t.n:
        raise ValueError("mismatched decomposition sizes")
    rb, rs = split_scales(right.d)
    lb, ls = split_scales(left_t.d)
    m = backend.gemm(right.q.T, left_t.q, category="stratification")
    m *= rb[:, None]
    m *= lb[None, :]
    tt = backend.gemm(right.t, left_t.t.T, category="stratification")
    tt *= rs[:, None]
    tt *= ls[None, :]
    m += tt
    n = right.n
    flops.record("stable_inverse", flops.lu_solve_flops(n, n) + 7 * n * n)
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (m,))
    # G takes the same path whether or not G(tau, 0) is asked for, so the
    # dynamic sample can never move a Markov chain
    lu, piv, info = getrf(m, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"getrf failed (info = {info})")
    del m, tt  # the factors replace them: peak memory as one gesv

    def solve(rhs):
        return getrs(lu, piv, rhs, overwrite_b=True)[0]

    x = solve(rb[:, None] * right.q.T)
    q_lb = left_t.q * lb[None, :]
    g = backend.gemm(q_lb, x, category="stratification")
    if not displaced:
        return g
    flops.record("stable_inverse", 2 * n * n * n + n * n)
    g_tau = backend.gemm(
        q_lb, solve(rs[:, None] * right.t), category="stratification"
    )
    if not backward:
        return g, g_tau
    flops.record("stable_inverse", n * n)
    tl_ls = left_t.t.T * -ls[None, :]
    return g, g_tau, backend.gemm(tl_ls, x, category="stratification")


def stable_log_det_from_graded(g: GradedDecomposition) -> tuple:
    """``(sign, log|det(I + Q diag(d) T)|)`` without overflow.

    det(I + QDT) = det(Q) det(D_b^{-1}) det(D_b Q^T + D_s T); the middle
    factor's log is just ``-sum(log db)``. Used by tests to cross-check
    Metropolis ratios against brute-force determinants.
    """
    db, ds = split_scales(g.d)
    lhs = db[:, None] * g.q.T + ds[:, None] * g.t
    n = g.n
    # det (one LU) + lu_factor: two factorizations, no triangular solves.
    flops.record("stable_log_det", 2 * flops.lu_solve_flops(n, 0) + 2 * n * n)
    sign_q = np.sign(sla.det(g.q, **SOLVE_KWARGS))
    lu, piv = sla.lu_factor(lhs, **SOLVE_KWARGS)
    diag = np.diag(lu)
    sign_lu = np.prod(np.sign(diag)) * (-1.0) ** np.count_nonzero(
        piv != np.arange(len(piv))
    )
    logdet = float(np.sum(np.log(np.abs(diag))) - np.sum(np.log(db)))
    return float(sign_q * sign_lu), logdet


@shape_contract("(n,n)", dtype=np.float64, finite=True)  # qmclint: disable=QL008 -- the strawman's breakdown demo is defined at float64
def naive_inverse(product: np.ndarray) -> np.ndarray:
    """``(I + product)^{-1}`` with no stabilization — the strawman.

    Correct only while the product's condition number fits in double
    precision; included so tests and ablations can show exactly where it
    breaks down (large beta*U) and that the stratified result does not.
    """
    n = product.shape[0]
    flops.record("naive_inverse", flops.lu_solve_flops(n, n))
    return sla.solve(
        np.eye(n) + product, np.eye(n), **SOLVE_KWARGS
    )
