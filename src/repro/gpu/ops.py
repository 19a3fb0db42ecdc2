"""GPU clustering and wrapping (paper Algorithms 4 and 6, plus fused forms).

The fixed kinetic exponentials ``B = exp(-dtau K)`` and ``B^{-1}`` live in
device memory for the whole simulation (uploaded once, Sec. VI-A); per
call only the diagonals ``V`` travel host->device and one matrix travels
back — ``N*L + N^2`` floats per cluster rebuild, which the paper notes is
negligible against the compute.

Two implementations of each operation are provided:

* ``*_cublas`` — the paper's straightforward CUBLAS listings (Algorithm 4
  for clustering, Algorithm 6 for wrapping): dcopy + a *launch per row*
  (dscal) for every diagonal scaling.
* ``*_fused``  — the same operations with the custom kernels of
  Algorithms 5 and 7: one launch per scaling, coalesced accesses, and no
  intermediate copy. This is the variant whose clustering performance
  approaches GPU DGEMM in Fig 9.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cublas import Cublas
from .device import DeviceArray, SimulatedDevice
from .kernels import (
    scale_rows_kernel,
    structured_apply_kernel,
    two_sided_scale_kernel,
)

__all__ = ["GPUPropagatorOps"]


class GPUPropagatorOps:
    """Device-resident propagator operations for one model.

    Parameters
    ----------
    device:
        The simulated device.
    expk, inv_expk:
        Host copies of ``exp(-+dtau K)``; uploaded once at construction.
    fused:
        Select the fused-kernel implementations (Algorithms 5/7) instead
        of the plain CUBLAS listings (Algorithms 4/6) for the scalings.
    structured:
        A :class:`~repro.hamiltonian.SeparablePropagator` (or None).
        When set, the kinetic GEMMs of clustering and wrapping run its
        blocked application
        (:func:`~repro.gpu.kernels.structured_apply_kernel`) and are
        charged the cheaper launch plan under the device model, fixed
        here at bind time: the operator's own passes, or the one GEMM
        against the resident exponential it would replace (on the C2050
        model exact 16 x 16 blocks sit at the foot of the GEMM efficiency
        ramp, so below N ~ 370 a port keeps the resident GEMM;
        checkerboard rotation passes are bandwidth-bound and always win).
        The payload is the blocked spelling either way, so results stay
        bit-identical to the host backends.
    """

    def __init__(
        self,
        device: SimulatedDevice,
        expk: np.ndarray,
        inv_expk: np.ndarray,
        fused: bool = True,
        structured=None,
    ):
        n = expk.shape[0]
        if expk.shape != (n, n) or inv_expk.shape != (n, n):
            raise ValueError("propagator matrices must be square and matching")
        self.device = device
        self.blas = Cublas(device)
        self.n = n
        self.fused = fused
        self.structured = structured
        self.d_expk = device.set_matrix(expk)
        self.d_inv_expk = device.set_matrix(inv_expk)
        # Everything on device follows the uploaded exponentials' width:
        # under a narrowed precision policy the backend hands float32
        # masters in, and scratch, diagonals and GEMMs ride along (the
        # SGEMM rate is what buys the Fermi 2:1 speedup).
        self.dtype = self.d_expk.dtype
        # Scratch buffers reused across calls (allocation is not free on
        # a real device either; cudaMalloc churn is a classic slowdown).
        self._t = device.alloc((n, n), dtype=self.dtype)
        self._a = device.alloc((n, n), dtype=self.dtype)
        self._v = device.alloc((n,), dtype=self.dtype)
        self._v2 = device.alloc((n,), dtype=self.dtype)
        self._kinetic_seconds = None
        if structured is not None:
            passes = structured.device_pass_seconds(device.model, n, self.dtype)
            gemm = device.model.time_gemm(n, n, n, dtype=self.dtype)
            self._kinetic_seconds = passes if sum(passes) < gemm else [gemm]

    # -- diagonal upload -------------------------------------------------------

    def _send_v(self, v: np.ndarray, dest: DeviceArray = None) -> DeviceArray:
        if v.shape != (self.n,):
            raise ValueError("diagonal has wrong length")
        return self.device.set_matrix(v, dest=dest if dest is not None else self._v)

    # -- clustering (Algorithm 4) ------------------------------------------------

    def cluster_product(self, v_diagonals: Sequence[np.ndarray]) -> np.ndarray:
        """Dense ``B_k ... B_1`` with ``B_j = diag(v_j) @ expK`` on device.

        ``v_diagonals`` (a sequence of ``(n,)`` diagonals or one ``(k, n)``
        array) is ordered rightmost (applied first) to leftmost. Returns
        the product on the host (one D2H transfer).
        """
        if len(v_diagonals) == 0:
            raise ValueError("empty cluster")
        dev, blas = self.device, self.blas
        dv = self._send_v(np.asarray(v_diagonals[0], dtype=self.dtype))
        if self.fused:
            scale_rows_kernel(dev, dv, self.d_expk, self._a)
        else:
            blas.dcopy(self.d_expk, self._t)
            for j in range(self.n):
                blas.dscal(float(v_diagonals[0][j]), self._t, row=j)
            blas.dcopy(self._t, self._a)
        for v in v_diagonals[1:]:
            dv = self._send_v(np.asarray(v, dtype=self.dtype))
            if self.structured is not None:
                # A <- B A via the separable blocks, then V A
                self._kinetic(self._a)
                scale_rows_kernel(dev, dv, self._a, self._a)
                continue
            blas.dgemm(self.d_expk, self._a, self._t)  # T <- B x A
            if self.fused:
                scale_rows_kernel(dev, dv, self._t, self._a)  # A <- V T
            else:
                for j in range(self.n):
                    blas.dscal(float(v[j]), self._t, row=j)
                blas.dcopy(self._t, self._a)
        return dev.get_matrix(self._a)

    # -- structured kinetic application ------------------------------------------

    def _kinetic(self, g: DeviceArray, side: str = "left", inverse: bool = False):
        """One N x N kinetic application, charged the bind-time launch plan."""
        structured_apply_kernel(
            self.device, self.structured, g, side=side, inverse=inverse,
            pass_seconds=self._kinetic_seconds,
        )

    # -- wrapping (Algorithm 6) -----------------------------------------------------

    def wrap(self, g: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``diag(v) (expK @ G @ invexpK) diag(v)^{-1}`` on device.

        One G upload, two DGEMMs against the resident exponentials, the
        two-sided scaling, one G download.
        """
        v = np.asarray(v, dtype=self.dtype)
        dev, blas = self.device, self.blas
        dg = dev.set_matrix(np.asarray(g, dtype=self.dtype), dest=self._a)
        dv = self._send_v(v)
        if self.structured is not None:
            # G <- B G B^{-1}, one separable application per side
            self._kinetic(dg, side="left")
            self._kinetic(dg, side="right", inverse=True)
        else:
            blas.dgemm(self.d_expk, dg, self._t)  # T <- B G
            blas.dgemm(self._t, self.d_inv_expk, dg)  # G <- T B^{-1}
        if self.fused:
            two_sided_scale_kernel(dev, dv, dg)
        else:
            for i in range(self.n):
                blas.dscal(float(v[i]), dg, row=i)
            # Column scalings: CUBLAS dscal with stride n; the simulated
            # cost is the same bandwidth-bound launch per column.
            payload = dg._payload()
            inv = 1.0 / v
            for j in range(self.n):
                payload[:, j] *= inv[j]
                dev.kernel_launches += 1
                dev.tick(
                    dev.model.time_bandwidth_kernel(2 * payload[:, j].nbytes)
                )
        return dev.get_matrix(dg)

    def unwrap(self, g: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``diag(v)^{-1} (invexpK @ (. ) @ expK) diag(v)`` — the exact
        inverse composition of :meth:`wrap`, scalings first.

        Rows are scaled by the host-formed ``1/v`` and columns by the
        *original* ``v`` (re-reciprocating on device would not be bitwise
        ``v``); then two DGEMMs against the resident exponentials.
        """
        v = np.asarray(v, dtype=self.dtype)
        dev, blas = self.device, self.blas
        dg = dev.set_matrix(np.asarray(g, dtype=self.dtype), dest=self._a)
        vinv = 1.0 / v
        dvinv = self._send_v(vinv)
        if self.fused:
            dv = self._send_v(v, dest=self._v2)
            two_sided_scale_kernel(dev, dvinv, dg, col_v=dv)
        else:
            for i in range(self.n):
                blas.dscal(float(vinv[i]), dg, row=i)
            payload = dg._payload()
            for j in range(self.n):
                payload[:, j] *= v[j]
                dev.kernel_launches += 1
                dev.tick(
                    dev.model.time_bandwidth_kernel(2 * payload[:, j].nbytes)
                )
        if self.structured is not None:
            self._kinetic(dg, side="left", inverse=True)
            self._kinetic(dg, side="right")
        else:
            blas.dgemm(self.d_inv_expk, dg, self._t)  # T <- B^{-1} G'
            blas.dgemm(self._t, self.d_expk, dg)  # G <- T B
        return dev.get_matrix(dg)
