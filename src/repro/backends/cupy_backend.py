"""Optional real-GPU backend over cupy (activates only when importable).

This is the seam the simulated-GPU work has been pointing at: the same
canonical kernel orders as every other backend, executed by cuBLAS and
cupy elementwise kernels on an actual device. The module imports
lazily — constructing :class:`CupyBackend` on a machine without cupy
raises :class:`~repro.backends.base.BackendUnavailableError`, and the
registry reports it as unavailable rather than failing at import time
(the project installs no GPU dependencies itself).

Interface contract: host ndarrays in, host ndarrays out — each op pays
its own H2D/D2H transfers, like the paper's Algorithm 4/6 listings. A
production port would keep G device-resident across wraps; that
optimization belongs in a follow-up backend, not in the protocol.

Numerical note: cuBLAS GEMM is *not* bitwise-identical to host BLAS
(different blocking/FMA contraction), so this backend is excluded from
the bit-identity equivalence class and tested to tolerances instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..linalg import flops
from .base import BackendUnavailableError
from .numpy_backend import NumpyBackend

__all__ = ["CupyBackend", "cupy_available"]


def cupy_available() -> bool:
    """True when cupy imports and reports at least one device."""
    try:
        import cupy  # noqa: F401
    except Exception:  # pragma: no cover - environment-dependent
        return False
    try:
        return int(cupy.cuda.runtime.getDeviceCount()) > 0
    except Exception:  # pragma: no cover - driver present, no device
        return False


class CupyBackend(NumpyBackend):
    """Real-GPU execution of the propagator ops via cupy."""

    name = "cupy"

    def __init__(self, **options):
        super().__init__(**options)
        if not cupy_available():
            raise BackendUnavailableError(
                "backend 'cupy' needs an importable cupy with a CUDA "
                "device; install cupy or pick numpy/threaded/gpu-sim"
            )
        import cupy

        self._cp = cupy
        self._d_expk = None
        self._d_inv_expk = None
        self._d_blocks = None

    def bind(self, factory) -> "CupyBackend":
        super().bind(factory)
        self._d_expk = self._cp.asarray(self.expk)
        self._d_inv_expk = self._cp.asarray(self.inv_expk)
        # The separable direction blocks are tiny (lx^2 + ly^2 elements);
        # resident uploads like the exponentials.
        self._d_blocks = None
        if self.structured is not None:
            host_blocks = self.structured.blocks(self.policy.compute_dtype)
            self._d_blocks = tuple(self._cp.asarray(b) for b in host_blocks)
        return self

    # -- device-side structured application --------------------------------

    def _structured_dev(self, a, side: str = "left", inverse: bool = False):
        """Blocked separable apply on a device array (same spelling as
        :meth:`SeparablePropagator.apply_expk_left/right`)."""
        cp = self._cp
        cb = self.structured
        bx, by, bx_inv, by_inv = self._d_blocks
        lx, ly = cb.lattice.lx, cb.lattice.ly
        n = cb.n_sites
        a = cp.ascontiguousarray(a)
        if side == "left":
            lead = a.shape[:-2]
            ncols = a.shape[-1]
            if not inverse:
                t = cp.matmul(bx, a.reshape(lead + (ly, lx, ncols)))
                t = cp.matmul(by, t.reshape(lead + (ly, lx * ncols)))
            else:
                t = cp.matmul(by_inv, a.reshape(lead + (ly, lx * ncols)))
                t = cp.matmul(bx_inv, t.reshape(lead + (ly, lx, ncols)))
            out = t.reshape(lead + (n, ncols))
        else:
            lead = a.shape[:-1]
            nrows = lead[-1]
            batch = lead[:-1]
            if not inverse:
                t = cp.matmul(by.T, a.reshape(lead + (ly, lx)))
                t = cp.matmul(t.reshape(batch + (nrows * ly, lx)), bx)
            else:
                t = cp.matmul(a.reshape(batch + (nrows * ly, lx)), bx_inv)
                t = cp.matmul(by_inv.T, t.reshape(lead + (ly, lx)))
            out = t.reshape(lead + (n,))
        if cb.mu != 0.0:
            factor = np.exp((-cb.dtau if inverse else cb.dtau) * cb.mu)
            out *= out.dtype.type(factor)
        return out

    def apply_structured(self, a, side="left", inverse=False, category="structured"):
        """Host-in / host-out separable application on the device."""
        self._count("apply_structured")
        self._require_bound()
        if self.structured is None:
            from .base import BackendError

            raise BackendError(
                "backend 'cupy': no structured kinetic operator is bound "
                "— the model's lattice has no separable structure"
            )
        cp = self._cp
        a = self.policy.compute(a)
        width = a.shape[-1] if side == "left" else a.shape[-2]
        flops.record(category, self.structured.apply_flops(width))
        return cp.asnumpy(self._structured_dev(cp.asarray(a), side, inverse))

    # -- ops (host in / host out) ------------------------------------------

    def gemm(self, a, b, category: str = "gemm"):
        self._count("gemm")
        cp = self._cp
        m, k = a.shape[0], a.shape[1]
        n = b.shape[1] if b.ndim == 2 else 1
        self._record_gemm(category, m, n, k)
        return cp.asnumpy(cp.asarray(a) @ cp.asarray(b))

    def cluster_product(self, v_diagonals: Sequence[np.ndarray]):
        self._count("cluster_product")
        self._require_bound()
        if len(v_diagonals) == 0:
            raise ValueError("empty cluster")
        cp, n = self._cp, self.n
        self._record_scale("clustering", n, n)
        out = self._d_expk * cp.asarray(v_diagonals[0])[:, None]
        for v in v_diagonals[1:]:
            self._record_scale("clustering", n, n)
            if self.structured is not None:
                flops.record("clustering", self.structured.apply_flops(n))
                out = self._structured_dev(out)
            else:
                self._record_gemm("clustering", n, n, n)
                out = self._d_expk @ out
            out *= cp.asarray(v)[:, None]
        return cp.asnumpy(out)

    def wrap(self, g, v):
        self._count("wrap")
        self._require_bound()
        cp, n = self._cp, self.n
        flops.record("wrapping", 2 * flops.scale_flops(n, n))
        dv = cp.asarray(v)
        if self.structured is not None:
            flops.record("wrapping", 2 * self.structured.apply_flops(n))
            t = self._structured_dev(cp.asarray(g))
            t = self._structured_dev(t, side="right", inverse=True)
        else:
            flops.record("wrapping", 2 * flops.gemm_flops(n, n, n))
            t = self._d_expk @ cp.asarray(g)
            t = t @ self._d_inv_expk
        t *= dv[:, None]
        t *= (1.0 / dv)[None, :]
        return cp.asnumpy(t)

    def unwrap(self, g, v):
        self._count("unwrap")
        self._require_bound()
        cp, n = self._cp, self.n
        flops.record("wrapping", 2 * flops.scale_flops(n, n))
        dv = cp.asarray(v)
        t = cp.asarray(g) * (1.0 / dv)[:, None]
        t *= dv[None, :]
        if self.structured is not None:
            flops.record("wrapping", 2 * self.structured.apply_flops(n))
            t = self._structured_dev(t, inverse=True)
            return cp.asnumpy(self._structured_dev(t, side="right"))
        flops.record("wrapping", 2 * flops.gemm_flops(n, n, n))
        t = self._d_inv_expk @ t
        return cp.asnumpy(t @ self._d_expk)

    def wrap_batched(self, gs, vs):
        """Both sectors in one batched cuBLAS GEMM pair."""
        self._count("wrap_batched")
        self._require_bound()
        cp = self._cp
        s, n = np.asarray(vs).shape
        flops.record("wrapping", 2 * s * flops.scale_flops(n, n))
        dg = cp.asarray(gs)
        dv = cp.asarray(vs)
        if self.structured is not None:
            flops.record("wrapping", 2 * s * self.structured.apply_flops(n))
            t = self._structured_dev(dg)
            t = self._structured_dev(t, side="right", inverse=True)
        else:
            flops.record("wrapping", 2 * s * flops.gemm_flops(n, n, n))
            t = cp.matmul(self._d_expk[None], dg)
            t = cp.matmul(t, self._d_inv_expk[None])
        t *= dv[:, :, None]
        t *= (1.0 / dv)[:, None, :]
        return cp.asnumpy(t)
