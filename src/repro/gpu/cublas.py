"""CUBLAS-subset API over the simulated device.

The level-1 routines the paper's Algorithms 4 and 6 call —
``cublasDcopy`` and ``cublasDscal``, plus the transfer helpers on the
device — with CUBLAS-like semantics (in-place scal on a row/vector
view). The algorithms' GEMMs run through the structured-apply kernels
(:mod:`repro.gpu.kernels`), which price them on the same clock. Each call
advances the virtual clock per the device's performance model and bumps
the launch counters, so "how many kernel launches did this algorithm
cost" is a measurable, testable quantity.
"""

from __future__ import annotations

from typing import Optional

from .device import DeviceArray, DeviceError, SimulatedDevice

__all__ = ["Cublas"]


class Cublas:
    """A CUBLAS handle bound to one simulated device."""

    def __init__(self, device: SimulatedDevice):
        self.device = device

    def _check(self, *arrays: DeviceArray) -> None:
        for a in arrays:
            if a.device is not self.device:
                raise DeviceError("array bound to a different device")

    # -- level 1 -----------------------------------------------------------

    def dcopy(self, src: DeviceArray, dst: DeviceArray) -> None:
        """``dst <- src`` (device-to-device, bandwidth-bound)."""
        self._check(src, dst)
        if src.shape != dst.shape:
            raise DeviceError("dcopy shape mismatch")
        dst._payload()[...] = src._payload()
        self.device.kernel_launches += 1
        self.device.tick(self.device.model.time_bandwidth_kernel(2 * src.nbytes))

    def dscal(self, alpha: float, x: DeviceArray, row: Optional[int] = None) -> None:
        """``x <- alpha * x`` over the whole array or one row view.

        The per-row form is what Algorithm 4 calls n times per B matrix —
        n separate kernel launches, each reading a strided row: exactly
        the launch/locality problem Algorithm 5's fused kernel removes.
        """
        self._check(x)
        data = x._payload()
        if row is None:
            data *= alpha
            nbytes = 2 * data.nbytes
        else:
            if not 0 <= row < data.shape[0]:
                raise DeviceError("row out of range")
            data[row, :] *= alpha
            nbytes = 2 * data[row, :].nbytes
        self.device.kernel_launches += 1
        self.device.tick(self.device.model.time_bandwidth_kernel(nbytes))
