"""The simulated CUDA device: memory arena, transfers, virtual clock.

Real results, simulated time. Every operation routed through the device
executes numerically with numpy (so downstream physics is exact) while a
virtual clock advances according to the calibrated
:class:`~repro.gpu.perfmodel.GPUModel`. Transfer and launch counters let
tests assert the *structural* claims of the paper's Sec. VI — e.g. that
Algorithm 4 moves ``N*L + N^2`` floats per cluster rebuild, or that the
fused Algorithm 5 kernel eliminates the per-row launch storm.

Device arrays are deliberately opaque: host numpy code cannot reach the
payload except through an explicit transfer (:meth:`DeviceArray.require_
device` guards against accidental host-side reads, which is exactly the
bug class a real CUDA port has to avoid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .perfmodel import TESLA_C2050, GPUModel

__all__ = ["DeviceArray", "SimulatedDevice", "DeviceError"]


class DeviceError(RuntimeError):
    """Illegal use of the simulated device (host-side access, misuse)."""


@dataclass
class DeviceArray:
    """A matrix resident in (simulated) device memory.

    ``_data`` is private to the device and its kernels; host code gets a
    copy only through :meth:`SimulatedDevice.get_matrix`.
    """

    shape: Tuple[int, ...]
    dtype: np.dtype
    _data: np.ndarray
    device: "SimulatedDevice"
    freed: bool = False

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    def _payload(self) -> np.ndarray:
        """Device-internal accessor; raises after free."""
        if self.freed:
            raise DeviceError("use after free of a device array")
        return self._data

    def __array__(self, *args, **kwargs):  # noqa: D105
        raise DeviceError(
            "device arrays cannot be read from the host; "
            "copy back with SimulatedDevice.get_matrix first"
        )


class SimulatedDevice:
    """One GPU with an allocation table, counters and a virtual clock."""

    def __init__(self, model: GPUModel = TESLA_C2050):
        self.model = model
        self.elapsed: float = 0.0  # virtual seconds
        self.allocated_bytes: int = 0
        self.peak_bytes: int = 0
        self.h2d_bytes: int = 0
        self.d2h_bytes: int = 0
        self.h2d_count: int = 0
        self.d2h_count: int = 0
        self.kernel_launches: int = 0

    # -- clock -------------------------------------------------------------

    def tick(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time cannot go backwards")
        self.elapsed += seconds

    def reset_clock(self) -> None:
        self.elapsed = 0.0

    # -- memory ---------------------------------------------------------------

    def alloc(self, shape: Tuple[int, ...], dtype=np.float64) -> DeviceArray:
        """cudaMalloc analogue (contents uninitialized, like the real one)."""
        data = np.empty(shape, dtype=dtype)
        arr = DeviceArray(shape=tuple(shape), dtype=data.dtype, _data=data, device=self)
        self.allocated_bytes += data.nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
        return arr

    def free(self, arr: DeviceArray) -> None:
        if arr.device is not self:
            raise DeviceError("array belongs to a different device")
        if arr.freed:
            raise DeviceError("double free of a device array")
        arr.freed = True
        self.allocated_bytes -= arr.nbytes

    # -- transfers ----------------------------------------------------------------

    def set_matrix(self, host: np.ndarray, dest: Optional[DeviceArray] = None) -> DeviceArray:
        """Host -> device copy (cublasSetMatrix/SetVector analogue).

        The host array's dtype rides along: a float32 upload allocates
        (or fills) a float32 device array, so a narrowed precision
        policy halves both the device footprint and the PCIe bytes, as
        on real hardware. A real cudaMemcpy cannot convert widths, so a
        dtype mismatch against an existing ``dest`` is an error.
        """
        host = np.ascontiguousarray(host)
        if dest is None:
            dest = self.alloc(host.shape, dtype=host.dtype)
        elif dest.shape != host.shape:
            raise DeviceError(f"shape mismatch {dest.shape} vs {host.shape}")
        elif dest.dtype != host.dtype:
            raise DeviceError(
                f"dtype mismatch {dest.dtype} vs {host.dtype} "
                "(device copies cannot convert element width)"
            )
        dest._payload()[...] = host
        self.h2d_bytes += host.nbytes
        self.h2d_count += 1
        self.tick(self.model.time_transfer(host.nbytes))
        return dest

    def get_matrix(self, arr: DeviceArray) -> np.ndarray:
        """Device -> host copy; the only sanctioned host-side read."""
        if arr.device is not self:
            raise DeviceError("array belongs to a different device")
        out = arr._payload().copy()
        self.d2h_bytes += out.nbytes
        self.d2h_count += 1
        self.tick(self.model.time_transfer(out.nbytes))
        return out

    # -- counters ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "elapsed": self.elapsed,
            "h2d_bytes": float(self.h2d_bytes),
            "d2h_bytes": float(self.d2h_bytes),
            "h2d_count": float(self.h2d_count),
            "d2h_count": float(self.d2h_count),
            "kernel_launches": float(self.kernel_launches),
            "peak_bytes": float(self.peak_bytes),
        }
