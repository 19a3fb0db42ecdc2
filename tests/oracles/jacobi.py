"""One-sided Jacobi SVD with high *relative* accuracy (paper ref [30]).

Bidiagonalization-based SVDs (LAPACK ``gesdd``/``gesvd``) compute small
singular values only to *absolute* accuracy ``eps * ||A||`` — on the
strongly column-graded matrices the stratification chain produces, the
tiny singular values (which carry the physics of the low-energy states)
come back as noise. That failure is demonstrated by the ``"svd"``
oracle stratifier (:mod:`tests.oracles.stratifier`) on adversarial
chains, and it is the deep reason the DQMC community settled on
pivoted-QR stratification.

The one-sided Jacobi algorithm (Drmač & Veselić — the very paper cited
as ref [30] for why QRP resists blocking) is the classical fix: for
``A = W D`` with ``W`` well-conditioned and ``D`` an arbitrary column
scaling, it delivers every singular value with small *relative* error.
Each step orthogonalizes one pair of columns with a plane rotation; the
scaling never mixes across columns.

Cost: O(n^3) per sweep with ~log(n)-ish sweeps — far slower than
``gesdd``, which is why it is a verification tool (ablations, gold
standards) and not a production kernel.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["jacobi_svd"]


def jacobi_svd(
    a: np.ndarray,
    tol: float = 1e-14,
    max_sweeps: int = 60,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a = u @ diag(s) @ vt``.

    One-sided Jacobi on the columns: rotations are applied on the right
    until all column pairs are numerically orthogonal
    (``|<a_p, a_q>| <= tol * ||a_p|| ||a_q||``). Singular values are
    returned in descending order.

    Parameters
    ----------
    a:
        Real matrix, m x n with m >= n.
    tol:
        Relative orthogonality threshold (the convergence criterion).
    max_sweeps:
        Safety bound on the number of full column-pair sweeps; failure
        to converge raises (it indicates NaNs or a pathological input,
        not a tolerance problem — Jacobi converges quadratically).
    """
    # Dtype-following for float inputs; others promote to float64.
    a = np.asarray(a)
    if a.dtype not in (np.dtype("float32"), np.dtype("float64")):
        a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    m, n = a.shape
    if m < n:
        raise ValueError("one-sided Jacobi needs m >= n (transpose first)")

    u = a.copy()
    v = np.eye(n)

    for _ in range(max_sweeps):
        converged = True
        for p in range(n - 1):
            for q in range(p + 1, n):
                up = u[:, p]
                uq = u[:, q]
                app = float(up @ up)
                aqq = float(uq @ uq)
                apq = float(up @ uq)
                if app == 0.0 or aqq == 0.0:
                    continue
                # relative off-diagonal size; computed from the norms
                # separately so app * aqq cannot underflow to zero
                denom = math.sqrt(app) * math.sqrt(aqq)
                if denom == 0.0 or abs(apq) <= tol * denom:
                    continue
                converged = False
                # Jacobi rotation angle zeroing the (p, q) Gram entry.
                zeta = (aqq - app) / (2.0 * apq)
                if abs(zeta) > 1e150:
                    # 1 + zeta^2 would overflow; use the asymptotic
                    # t = 1/(2 zeta) (otherwise t silently becomes 0 and
                    # the rotation is a no-op — an infinite limit cycle).
                    t = 0.5 / zeta
                else:
                    t = math.copysign(
                        1.0 / (abs(zeta) + math.sqrt(1.0 + zeta * zeta)),
                        zeta,
                    )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                new_p = c * up - s * uq
                new_q = s * up + c * uq
                u[:, p] = new_p
                u[:, q] = new_q
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if converged:
            break
    else:
        raise np.linalg.LinAlgError(
            f"one-sided Jacobi did not converge in {max_sweeps} sweeps"
        )

    sing = np.sqrt(np.einsum("ij,ij->j", u, u))
    # descending order, stable so graded inputs keep their column order
    order = np.argsort(-sing, kind="stable")
    sing = sing[order]
    v = v[:, order]
    u = u[:, order]
    nonzero = sing > 0
    u[:, nonzero] = u[:, nonzero] / sing[nonzero][None, :]
    # zero singular values: leave the (zero) columns; caller-visible U
    # columns for them are unconstrained, fill orthonormally if needed.
    return u, sing, v.T
