"""Simulated-GPU offload layer (paper Sec. VI).

No physical GPU is assumed: :class:`SimulatedDevice` executes every
operation numerically on the host while advancing a virtual clock from a
calibrated Tesla C2050 performance model. The code paths — explicit
device memory, host<->device transfers, CUBLAS calls, fused CUDA-style
kernels — are the ones a real port exercises, and their structural costs
(transfer volume, launch counts) are measurable and tested.
"""

from .cublas import Cublas
from .device import DeviceArray, DeviceError, SimulatedDevice
from .kernels import (
    DEFAULT_BLOCK,
    scale_rows_kernel,
    two_sided_scale_kernel,
)
from .ops import GPUPropagatorOps
from .perfmodel import NEHALEM_8CORE, TESLA_C2050, CPUModel, GPUModel

__all__ = [
    "CPUModel",
    "Cublas",
    "DEFAULT_BLOCK",
    "DeviceArray",
    "DeviceError",
    "GPUModel",
    "GPUPropagatorOps",
    "NEHALEM_8CORE",
    "SimulatedDevice",
    "TESLA_C2050",
    "scale_rows_kernel",
    "two_sided_scale_kernel",
]
