"""Numerical linear algebra substrate for the DQMC reproduction.

Public surface:

* QR factorizations (:mod:`repro.linalg.qr`) — fully pivoted and the
  paper's pre-pivoted variant.
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
from .norms import (
    column_norms,
    column_norms_blocked,
    inverse_permutation,
    prepivot_permutation,
)
from .qr import QRResult, qr_pivoted, qr_prepivoted
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
    "column_norms",
    "column_norms_blocked",
    "current_tally",
    "gemm_flops",
    "inverse_permutation",
    "lu_solve_flops",
    "naive_inverse",
    "norms_flops",
    "prepivot_permutation",
    "qr_flops",
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
