"""Simulated-GPU backend (paper Sec. VI's hybrid division of labour).

Routes the GEMM-dominated, pivot-free operations — cluster-product
rebuilds (Algorithm 4/5) and the wrap/unwrap transforms (Algorithm 6/7)
— through :class:`~repro.gpu.ops.GPUPropagatorOps` on a
:class:`~repro.gpu.device.SimulatedDevice`, while the stratification
chain's QR work and everything else inherits the host (numpy) paths,
exactly as the paper's preliminary hybrid defers them to the CPU.

The device executes numerically with the same numpy kernels in the same
canonical order as the host backends, so physics is bit-identical; only
the *timing* story differs (virtual device clock, launch and transfer
counters). ``repro.gpu`` imports are deferred to construction so merely
importing the backends package never pulls in the simulator stack.
"""

from __future__ import annotations

import numpy as np

from .base import BackendError
from .numpy_backend import NumpyBackend

__all__ = ["SimulatedGPUBackend"]


class SimulatedGPUBackend(NumpyBackend):
    """GPU-offloaded cluster products and wraps over a simulated device.

    Parameters
    ----------
    device:
        An existing :class:`~repro.gpu.device.SimulatedDevice` to share;
        a fresh one is created from ``model`` when omitted.
    model:
        Performance model for a fresh device (default Tesla C2050).
    fused:
        Use the fused custom kernels (Algorithms 5/7) instead of the
        launch-per-row CUBLAS listings (Algorithms 4/6).
    """

    name = "gpu-sim"

    def __init__(self, device=None, model=None, fused: bool = True, **options):
        super().__init__(**options)
        from ..gpu.device import SimulatedDevice
        from ..gpu.perfmodel import TESLA_C2050

        self._model = model if model is not None else TESLA_C2050
        self.device = device if device is not None else SimulatedDevice(self._model)
        self.fused = fused
        self.ops = None

    def bind(self, factory) -> "SimulatedGPUBackend":
        """Host refs + the one-time H2D upload of the exponential."""
        from ..gpu.ops import GPUPropagatorOps

        super().bind(factory)
        # Re-upload when the kinetic operator or the policy's compute
        # dtype changed: a precision promotion or a new model must not
        # keep stale device state.
        if (
            self.ops is None
            or self.ops.kinetic is not self.kinetic
            or self.ops.dtype != self.expk.dtype
        ):
            self.ops = GPUPropagatorOps(
                self.device, self.kinetic, self.expk.dtype, fused=self.fused
            )
        return self

    def _require_ops(self):
        if self.ops is None:
            raise BackendError(
                "gpu-sim backend is not bound to a model: call bind(factory)"
            )
        return self.ops

    # -- offloaded pieces --------------------------------------------------

    @staticmethod
    def _per_sector(op, *operands):
        """``op`` on one sector, or once per sector of an ``(S, ...)`` stack.

        The device holds one scratch set, so a stack runs as S device
        calls in a row; a multi-stream port would overlap them.
        """
        if operands[0].ndim == 2:
            return op(*operands)
        return np.stack([op(*sector) for sector in zip(*operands)])

    def cluster_product_batched(self, vs):
        self._count("cluster_product_batched")
        return self._per_sector(self._require_ops().cluster_product, vs)

    def wrap_batched(self, g, v):
        self._count("wrap_batched")
        return self._per_sector(self._require_ops().wrap, g, v)

    def unwrap_batched(self, g, v):
        self._count("unwrap_batched")
        return self._per_sector(self._require_ops().unwrap, g, v)

    wrap = wrap_batched  # traced name, no body of its own (ROADMAP 1(f))
    unwrap = unwrap_batched  # traced name, no body of its own (ROADMAP 1(f))

    def stats(self):
        out = super().stats()
        out["backend.gpu.kernel_launches"] = float(self.device.kernel_launches)
        out["backend.gpu.elapsed_model_s"] = float(self.device.elapsed)
        return out
