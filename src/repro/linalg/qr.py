"""QR factorizations: the LAPACK-backed kernels of the stratified chain.

Two factorization flavours appear in the paper:

``qr_pivoted``
    QR with column pivoting (LAPACK ``DGEQP3``). Needed for rigorous
    grading but throttled by the level-2 column-norm *downdates* that the
    pivot choice requires after every reflector — the communication
    bottleneck the paper removes.

``qr_prepivoted``
    The paper's kernel: sort columns by norm *once* up front (a single
    pass + sort, no per-step downdates), then run the plain blocked QR
    (LAPACK ``DGEQRF``), which is fully level-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from ..contracts import shape_contract
from . import flops
from .norms import prepivot_permutation

__all__ = ["QRResult", "qr_pivoted", "qr_prepivoted"]


@dataclass
class QRResult:
    """A (possibly pivoted) QR factorization ``A[:, piv] = Q @ R``.

    Attributes
    ----------
    q, r:
        The orthogonal and upper-triangular factors.
    piv:
        Column permutation as an index vector.
    sync_points:
        Number of sequential pivot-selection synchronization points the
        algorithm required (1 for pre-pivoted, n for fully pivoted). This is the "communication cost of pivoting" the
        paper's Sec. IV quantifies.
    """

    q: np.ndarray
    r: np.ndarray
    piv: np.ndarray
    sync_points: int = 0

    @property
    def shape(self) -> tuple:
        return (self.q.shape[0], self.r.shape[1])

    def reconstruct(self) -> np.ndarray:  # qmclint: disable=QL004
        """Rebuild A (in original column order) from the factors.

        Verification-only (tests compare against the input); kept off the
        FLOP ledger so it never inflates a benchmark's nominal count.
        """
        ap = self.q @ self.r
        out = np.empty_like(ap)
        out[:, self.piv] = ap
        return out


def _check_matrix(a: np.ndarray) -> np.ndarray:
    # Dtype-following for the two float widths (the policy spine is
    # float64; a float32 operand keeps its width); any other input — ints,
    # object arrays — promotes to the float64 spine default.
    a = np.asarray(a)
    if a.dtype not in (np.dtype("float32"), np.dtype("float64")):
        a = np.asarray(a, dtype=np.float64)  # qmclint: disable=QL008 -- spine default for non-float inputs
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


@shape_contract("(m,n)", finite=True)
def qr_pivoted(a: np.ndarray) -> QRResult:
    """Column-pivoted QR via LAPACK DGEQP3.

    scipy returns ``a[:, piv] = q @ r``; the pivot vector is passed through
    unchanged. Every column step of QP3 is a synchronization point.
    """
    a = _check_matrix(a)
    flops.record("qrp", flops.qrp_flops(*a.shape))
    q, r, piv = sla.qr(a, mode="economic", pivoting=True, check_finite=False)
    return QRResult(q=q, r=r, piv=piv, sync_points=min(a.shape))


@shape_contract("(m,n)", finite=True)
def qr_prepivoted(a: np.ndarray, piv: Optional[np.ndarray] = None) -> QRResult:
    """The paper's kernel: one up-front norm sort, then unpivoted QR.

    Parameters
    ----------
    a:
        Matrix to factor.
    piv:
        Optional externally computed permutation (e.g. from a
        thread-parallel column-norm pass); computed here when omitted.
    """
    a = _check_matrix(a)
    if piv is None:
        piv = prepivot_permutation(a)
    else:
        piv = np.asarray(piv)
        if piv.shape != (a.shape[1],):
            raise ValueError("pre-pivot permutation has wrong length")
    flops.record("qr", flops.qr_flops(*a.shape))
    q, r = sla.qr(a[:, piv], mode="economic", check_finite=False)
    return QRResult(q=q, r=r, piv=piv, sync_points=1)
