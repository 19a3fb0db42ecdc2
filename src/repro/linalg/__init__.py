"""Numerical linear algebra substrate for the DQMC reproduction.

Public surface:

* QR factorizations (:mod:`repro.linalg.qr`) — unpivoted, fully pivoted,
  and the paper's pre-pivoted variant, plus instrumented reference
  Householder implementations.
* Column norms and pre-pivot permutations (:mod:`repro.linalg.norms`).
* Graded (UDT) decompositions (:mod:`repro.linalg.graded`) and the stable
  ``(I + QDT)^{-1}`` evaluation (:mod:`repro.linalg.stable`).
* Flop/byte accounting (:mod:`repro.linalg.flops`) for GFlops reporting.
"""

from .condition import (
    ConditioningReport,
    chain_conditioning_report,
    max_safe_cluster_size,
    slice_condition_bound,
)
from .flops import (
    FlopTally,
    current_tally,
    gemm_flops,
    lu_solve_flops,
    norms_flops,
    qr_flops,
    qrp_flops,
    scale_flops,
    tally,
)
from .graded import GradedDecomposition, split_scales
from .jacobi import jacobi_svd
from .norms import (
    column_norms,
    column_norms_blocked,
    inverse_permutation,
    prepivot_permutation,
)
from .qr import (
    QRResult,
    apply_wy,
    householder_qp3_blocked,
    householder_qr_blocked,
    householder_qrp,
    qr_nopivot,
    qr_pivoted,
    qr_prepivoted,
)
from .stable import (
    SOLVE_KWARGS,
    naive_inverse,
    stable_inverse_from_graded,
    stable_inverse_two_sided,
    stable_log_det_from_graded,
)

__all__ = [
    "ConditioningReport",
    "FlopTally",
    "SOLVE_KWARGS",
    "chain_conditioning_report",
    "max_safe_cluster_size",
    "slice_condition_bound",
    "GradedDecomposition",
    "QRResult",
    "apply_wy",
    "column_norms",
    "column_norms_blocked",
    "current_tally",
    "gemm_flops",
    "householder_qp3_blocked",
    "householder_qr_blocked",
    "householder_qrp",
    "inverse_permutation",
    "jacobi_svd",
    "lu_solve_flops",
    "naive_inverse",
    "norms_flops",
    "prepivot_permutation",
    "qr_flops",
    "qr_nopivot",
    "qr_pivoted",
    "qr_prepivoted",
    "qrp_flops",
    "scale_flops",
    "split_scales",
    "stable_inverse_from_graded",
    "stable_inverse_two_sided",
    "stable_log_det_from_graded",
    "tally",
]
