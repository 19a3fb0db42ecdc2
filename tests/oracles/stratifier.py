"""Reference stratifiers: chain steps the production switch does not carry.

:mod:`repro.core.stratification` offers Algorithm 2 (``"qrp"``) and
Algorithm 3 (``"prepivot"``). The studies they are judged against fold
the same chain - ``C = (F Q) diag(D)``, then ``C = Q' diag(D') T'`` and
``T <- T' T`` - with other factorizations of ``C``:

``"nopivot"``
    Unpivoted QR: no grading control beyond the diagonal split, the
    ablation that shows why some pivoting is required at strong coupling.

``"svd"``
    LAPACK's SVD (Sugiyama & Koonin; Sorella et al. - the paper's refs
    [28], [29]). Bidiagonalization SVDs are only *absolutely* accurate,
    so on adversarially graded chains (ordered HS fields at large
    beta*U) this step loses the small scales where QRP does not.

``"jacobi"``
    One-sided Jacobi SVD (Drmac & Veselic - the paper's ref [30]), the
    relative-accuracy repair of ``"svd"``: matches QRP even on the
    adversarial chains, at many times the cost.

None of the three pivots, so T needs no row permutation.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.linalg import GradedDecomposition, stable_inverse_from_graded

from .jacobi import jacobi_svd

__all__ = ["ORACLE_METHODS", "oracle_decomposition", "oracle_inverse"]


def _nopivot(c):
    q, r = sla.qr(c, mode="economic", check_finite=False)
    d = np.diag(r).copy()
    return q, d, r / d[:, None], 0


def _svd(c):
    u, s, vt = sla.svd(c, check_finite=False)
    return u, s, vt, min(c.shape)


def _jacobi(c):
    u, s, vt = jacobi_svd(c)
    return u, s, vt, min(c.shape)


#: each step returns ``(q, d, t_factor, sync_points)`` with
#: ``c = q diag(d) t_factor``
_STEPS = {"nopivot": _nopivot, "svd": _svd, "jacobi": _jacobi}

ORACLE_METHODS = tuple(_STEPS)


def oracle_decomposition(factors, method, stats=None):
    """Graded decomposition of ``F_L ... F_1`` (factors rightmost first)
    with every chain step, the first included, factored by ``method``.

    ``stats`` (a :class:`repro.core.StratificationStats`) receives the
    factor count, the sync points and the grading ratio.
    """
    step = _STEPS[method]
    q = d = t = None
    n_factors = sync_points = 0
    for f in factors:
        c = f if q is None else (f @ q) * d[None, :]
        q, d, tf, sync = step(c)
        if np.any(d == 0.0):
            raise np.linalg.LinAlgError("exactly singular factor in the chain")
        t = tf if t is None else tf @ t
        n_factors += 1
        sync_points += sync
    if q is None:
        raise ValueError("empty factor chain")
    out = GradedDecomposition(q=q, d=d, t=t)
    if stats is not None:
        stats.n_factors, stats.sync_points = n_factors, sync_points
        stats.grading_ratio = out.grading_ratio()
    return out


def oracle_inverse(factors, method, stats=None):
    """``(I + F_L ... F_1)^{-1}`` through :func:`oracle_decomposition` and
    the production stable solve."""
    return stable_inverse_from_graded(oracle_decomposition(factors, method, stats))
