"""GPU clustering and wrapping (paper Algorithms 4 and 6, plus fused forms).

The fixed kinetic propagator ``B = exp(-dtau K)`` lives on the device for
the whole simulation (uploaded once, Sec. VI-A); per call only the
diagonals ``V`` travel host->device and one matrix travels back —
``N*L + N^2`` floats per cluster rebuild, which the paper notes is
negligible against the compute. Every kinetic product applies the
factory's one kinetic operator — the dense exponential, the exact
Kronecker blocks or the checkerboard split — at the launch plan fixed
when the ops are built.

Two implementations of each operation are provided:

* ``*_cublas`` — the paper's straightforward CUBLAS listings (Algorithm 4
  for clustering, Algorithm 6 for wrapping): a *launch per row* (dscal)
  for every diagonal scaling, and a dcopy wherever a product lands in
  scratch.
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
    kinetic:
        The factory's kinetic operator
        (:class:`~repro.hamiltonian.KineticPropagator`,
        :class:`~repro.hamiltonian.SeparablePropagator` or
        :class:`~repro.hamiltonian.CheckerboardPropagator`); its
        ``exp(-dtau K)`` is uploaded once at construction, in ``dtype``.
    dtype:
        The width of everything on device (default: the float64 master).
        Under a narrowed precision policy the backend passes float32, and
        scratch, diagonals and kinetic products ride along (the SGEMM
        rate is what buys the Fermi 2:1 speedup).
    fused:
        Select the fused-kernel implementations (Algorithms 5/7) instead
        of the plain CUBLAS listings (Algorithms 4/6) for the scalings.

    Every kinetic product runs the operator's own application
    (:func:`~repro.gpu.kernels.structured_apply_kernel`), so results are
    bit-identical to the host backends, and is charged the cheaper launch
    plan under the device model, fixed here: the operator's passes, or
    the one GEMM against the resident exponential (on the C2050 model
    exact 16 x 16 blocks sit at the foot of the GEMM efficiency ramp, so
    below N ~ 370 a port keeps the resident GEMM; checkerboard rotation
    passes are bandwidth-bound and always win; the dense exponential's
    pass is that GEMM).
    """

    def __init__(self, device: SimulatedDevice, kinetic, dtype=None, fused: bool = True):
        self.device = device
        self.blas = Cublas(device)
        self.kinetic = kinetic
        self.fused = fused
        self.d_expk = device.set_matrix(kinetic.as_matrix(dtype))
        self.dtype = self.d_expk.dtype
        n = self.n = self.d_expk.shape[0]
        # Scratch buffers reused across calls (allocation is not free on
        # a real device either; cudaMalloc churn is a classic slowdown).
        self._t = device.alloc((n, n), dtype=self.dtype)
        self._a = device.alloc((n, n), dtype=self.dtype)
        self._v = device.alloc((n,), dtype=self.dtype)
        self._v2 = device.alloc((n,), dtype=self.dtype)
        passes = kinetic.device_pass_seconds(device.model, n, self.dtype)
        gemm = device.model.time_gemm(n, n, n, dtype=self.dtype)
        self._kinetic_seconds = passes if sum(passes) < gemm else [gemm]

    # -- diagonal upload -------------------------------------------------------

    def _send_v(self, v: np.ndarray, dest: DeviceArray = None) -> DeviceArray:
        if v.shape != (self.n,):
            raise ValueError("diagonal has wrong length")
        return self.device.set_matrix(v, dest=dest if dest is not None else self._v)

    # -- kinetic application ----------------------------------------------------

    def _kinetic(self, g: DeviceArray, side: str = "left", inverse: bool = False, out=None):
        """One N x N kinetic application to ``g`` (into ``out`` when
        given, else in place), charged the bind-time launch plan."""
        structured_apply_kernel(
            self.device, self.kinetic, g, side=side, inverse=inverse,
            pass_seconds=self._kinetic_seconds, out=out,
        )

    def _scale_rows_cublas(self, v: np.ndarray, g: DeviceArray) -> None:
        """Algorithm 4/6's row scaling: one dscal launch per row."""
        for j in range(self.n):
            self.blas.dscal(float(v[j]), g, row=j)

    def _scale_columns_cublas(self, v: np.ndarray, g: DeviceArray) -> None:
        """Column scalings: CUBLAS dscal with stride n; the simulated cost
        is the same bandwidth-bound launch per column."""
        dev = self.device
        payload = g._payload()
        for j in range(self.n):
            payload[:, j] *= v[j]
            dev.kernel_launches += 1
            dev.tick(dev.model.time_bandwidth_kernel(2 * payload[:, j].nbytes))

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
            self._scale_rows_cublas(v_diagonals[0], self._t)
            blas.dcopy(self._t, self._a)
        for v in v_diagonals[1:]:
            dv = self._send_v(np.asarray(v, dtype=self.dtype))
            self._kinetic(self._a, out=self._t)  # T <- B A
            if self.fused:
                scale_rows_kernel(dev, dv, self._t, self._a)  # A <- V T
            else:
                self._scale_rows_cublas(v, self._t)
                blas.dcopy(self._t, self._a)
        return dev.get_matrix(self._a)

    # -- wrapping (Algorithm 6) -----------------------------------------------------

    def wrap(self, g: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``diag(v) (expK @ G @ invexpK) diag(v)^{-1}`` on device.

        One G upload, one kinetic application per side, the two-sided
        scaling, one G download.
        """
        v = np.asarray(v, dtype=self.dtype)
        dev = self.device
        dg = dev.set_matrix(np.asarray(g, dtype=self.dtype), dest=self._a)
        dv = self._send_v(v)
        self._kinetic(dg, side="left")  # G <- B G
        self._kinetic(dg, side="right", inverse=True)  # G <- G B^{-1}
        if self.fused:
            two_sided_scale_kernel(dev, dv, dg)
        else:
            self._scale_rows_cublas(v, dg)
            self._scale_columns_cublas(1.0 / v, dg)
        return dev.get_matrix(dg)

    def unwrap(self, g: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``diag(v)^{-1} (invexpK @ (. ) @ expK) diag(v)`` — the exact
        inverse composition of :meth:`wrap`, scalings first.

        Rows are scaled by the host-formed ``1/v`` and columns by the
        *original* ``v`` (re-reciprocating on device would not be bitwise
        ``v``); then one kinetic application per side.
        """
        v = np.asarray(v, dtype=self.dtype)
        dev = self.device
        dg = dev.set_matrix(np.asarray(g, dtype=self.dtype), dest=self._a)
        vinv = 1.0 / v
        dvinv = self._send_v(vinv)
        if self.fused:
            dv = self._send_v(v, dest=self._v2)
            two_sided_scale_kernel(dev, dvinv, dg, col_v=dv)
        else:
            self._scale_rows_cublas(vinv, dg)
            self._scale_columns_cublas(v, dg)
        self._kinetic(dg, side="left", inverse=True)  # G <- B^{-1} G'
        self._kinetic(dg, side="right")  # G <- G B
        return dev.get_matrix(dg)
