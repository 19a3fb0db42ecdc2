"""The serial numpy reference backend.

Every operation is the canonical-order kernel of
:mod:`repro.backends.base` spelled with plain numpy; all other backends
are measured against this one bit-for-bit (elementwise scalings and
per-slice GEMMs) or to documented tolerances (threaded norm reductions
above the grain size).

The propagator kernels take a leading sector axis: ``np.matmul`` over an
``(S, n, n)`` stack dispatches one BLAS GEMM per sector with the same
rounding as on one ``(n, n)`` matrix, so a stack costs one library call
and each of its sectors is bit-identical to the kernel run on it alone.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs

from ..linalg import column_norms, prepivot_permutation
from .base import BackendError, BaseBackend, sectors

__all__ = ["NumpyBackend"]


class NumpyBackend(BaseBackend):
    """Serial reference implementation of the propagator op set."""

    name = "numpy"

    # -- fine-grain ops ----------------------------------------------------

    def gemm(self, a, b, category: str = "gemm", c=None):
        """Dense ``a @ b`` with the flop charged to ``category``.

        With ``c`` given, accumulates ``c += a @ b`` in place and returns
        ``c``: one BLAS ``gemm`` with ``beta = 1`` (``sgemm`` for float32
        operands) writes into ``c.T`` in Fortran order, so no product is
        allocated and ``c`` is read once. ``c`` must be C-contiguous and
        share the operands' dtype, else :class:`BackendError`: f2py would
        silently update a copy and the accumulation would be lost.
        """
        self._count("gemm")
        m, k = a.shape[0], a.shape[1]
        n = b.shape[1] if b.ndim == 2 else 1
        self._record_gemm(category, m, n, k)
        if c is None:
            return a @ b
        fits = c.shape == (m, n) and c.flags.c_contiguous
        if not (fits and a.dtype == b.dtype == c.dtype):
            raise BackendError(
                f"gemm(c=) accumulates in place: c must be a C-contiguous {(m, n)} "
                f"array of the operands' dtype {a.dtype}, got a {c.shape} "
                f"{c.dtype} array (C-contiguous: {c.flags.c_contiguous})"
            )
        # Row-major c += a @ b is column-major c.T += b.T @ a.T; an operand
        # that is not C-ordered goes in untransposed with the BLAS flag set.
        ta, tb = int(not b.flags.c_contiguous), int(not a.flags.c_contiguous)
        get_blas_funcs("gemm", dtype=c.dtype)(
            1.0, b if ta else b.T, a if tb else a.T, beta=1.0, c=c.T,
            trans_a=ta, trans_b=tb, overwrite_c=True,
        )
        return c

    def scale_rows(self, a, v, out=None, category: str = "scaling"):
        """``diag(v) @ a``; writes into ``out`` in place when given."""
        self._count("scale_rows")
        self._record_scale(category, *a.shape)
        return np.multiply(a, v[:, None], out=out)

    def scale_columns(self, a, v, out=None, category: str = "scaling"):
        """``a @ diag(v)``; writes into ``out`` in place when given."""
        self._count("scale_columns")
        self._record_scale(category, *a.shape)
        return np.multiply(a, v[None, :], out=out)

    def scale_two_sided(self, a, v, col_v=None, out=None, category: str = "scaling"):
        """``diag(v) @ a @ diag(col_v)`` with ``col_v = 1/v`` by default.

        Writes into ``out`` in place when given. The column factor is an
        explicit argument so the unwrap can pass the *original* ``v``
        rather than re-reciprocating ``1/(1/v)`` (not bitwise ``v``).
        """
        self._count("scale_two_sided")
        col = (1.0 / v) if col_v is None else col_v
        self._record_scale(category, *a.shape, passes=2)
        res = np.multiply(a, v[:, None], out=out)
        res *= col[None, :]
        return res

    def column_norms(self, a):
        self._count("column_norms")
        return column_norms(a)

    def prepivot_permutation(self, a):
        """Descending column-norm order (paper Algorithm 3 step 3b)."""
        self._count("prepivot_permutation")
        return prepivot_permutation(a)

    # -- cluster products (Algorithm 4/5 order) ----------------------------

    def cluster_product_batched(self, vs):
        """Dense ``B_k ... B_1`` with ``B_j = diag(v_j) @ expK``.

        ``vs`` holds the diagonals as ``(k, n)``, rightmost factor
        (applied first) first, or as an ``(S, k, n)`` stack of sectors;
        the product is ``(n, n)`` or ``(S, n, n)``.
        """
        self._count("cluster_product_batched")
        self._require_bound()
        vs = self.policy.compute(vs)
        k, n = vs.shape[-2:]
        s = sectors(vs)
        self._record_scale("clustering", n, n, passes=s)
        out = self.expk * vs[..., 0, :, None]
        for j in range(1, k):
            out = self.apply_structured(out, side="left", category="clustering")
            self._record_scale("clustering", n, n, passes=s)
            out *= vs[..., j, :, None]
        return out

    # -- wrapping (Algorithm 6/7 order) ------------------------------------

    def wrap_batched(self, g, v):
        """``diag(v) (expK @ g @ invexpK) diag(v)^{-1}``.

        ``g`` is ``(n, n)`` with ``v`` of shape ``(n,)``, or an
        ``(S, n, n)`` stack with ``(S, n)`` diagonals.
        """
        self._count("wrap_batched")
        self._require_bound()
        g = self.policy.compute(g)
        v = self.policy.compute(v)
        n, s = v.shape[-1], sectors(g)
        self._record_scale("wrapping", n, n, passes=2 * s)
        t = self.apply_structured(g, side="left", category="wrapping")
        t = self.apply_structured(t, side="right", inverse=True, category="wrapping")
        t *= v[..., :, None]
        t *= (1.0 / v)[..., None, :]
        return t

    def unwrap_batched(self, g, v):
        """Exact inverse composition of :meth:`wrap_batched`."""
        self._count("unwrap_batched")
        self._require_bound()
        g = self.policy.compute(g)
        v = self.policy.compute(v)
        n, s = v.shape[-1], sectors(g)
        self._record_scale("wrapping", n, n, passes=2 * s)
        t = g * (1.0 / v)[..., :, None]
        t *= v[..., None, :]
        t = self.apply_structured(t, side="left", inverse=True, category="wrapping")
        return self.apply_structured(t, side="right", category="wrapping")

    wrap = wrap_batched  # traced name, no body of its own (ROADMAP 1(f))
    unwrap = unwrap_batched  # traced name, no body of its own (ROADMAP 1(f))
