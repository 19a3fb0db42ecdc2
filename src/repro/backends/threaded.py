"""Multicore backend over the worker-pool kernels (paper Sec. IV-B).

GEMMs stay with the (already multithreaded) BLAS; what this backend adds
is exactly what QUEST added with OpenMP — thread-parallel execution of
the fine-grain operations BLAS does not thread at DQMC sizes: diagonal
scalings and the pre-pivot column-norm pass.

The cluster-product, wrap and structured kernels are numpy's, inherited
unchanged: their diagonal scalings are in-place numpy passes over the
whole sector stack. The pooled ``scale_*`` and norm methods below serve
the stratification chain's column scalings and pre-pivot passes.

Bit-identity contract: the chunked scalings are elementwise (no
reductions), so they match the numpy backend exactly at every size. The
column-norm pass reduces per-chunk partial sums; below the pool's grain
size (128 rows) it runs in one chunk and is bit-identical, above it the
reassociation differs in the last ulp — same guarantee the paper's
OpenMP norm loop gives relative to serial dnrm2.
"""

from __future__ import annotations

from ..parallel import (
    parallel_column_norms,
    parallel_prepivot_permutation,
    scale_columns,
    scale_rows,
    scale_two_sided,
)
from .numpy_backend import NumpyBackend

__all__ = ["ThreadedBackend"]


class ThreadedBackend(NumpyBackend):
    """Worker-pool execution of the fine-grain propagator ops."""

    name = "threaded"

    def scale_rows(self, a, v, out=None, category: str = "scaling"):
        self._count("scale_rows")
        return scale_rows(a, v, out=out, category=category)

    def scale_columns(self, a, v, out=None, category: str = "scaling"):
        self._count("scale_columns")
        return scale_columns(a, v, out=out, category=category)

    def scale_two_sided(self, a, v, col_v=None, out=None, category: str = "scaling"):
        self._count("scale_two_sided")
        return scale_two_sided(a, v, col_v=col_v, out=out, category=category)

    def column_norms(self, a):
        self._count("column_norms")
        return parallel_column_norms(a)

    def prepivot_permutation(self, a):
        """Descending-norm order from the thread-parallel norm pass."""
        self._count("prepivot_permutation")
        return parallel_prepivot_permutation(a)
