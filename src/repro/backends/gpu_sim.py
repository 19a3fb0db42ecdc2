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

from .base import BackendError, BaseBackend
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
        """Host refs + the one-time H2D upload of the exponentials."""
        from ..gpu.ops import GPUPropagatorOps

        super().bind(factory)
        # self.expk is the policy-realized exponential (compute dtype);
        # re-upload when the model shape, the dtype, or the structured
        # kinetic operator changed — a precision promotion or a kinetic
        # switch must not keep stale device state.
        if (
            self.ops is None
            or self.ops.d_expk.shape != self.expk.shape
            or self.ops.d_expk.dtype != self.expk.dtype
            or self.ops.structured is not self.structured
        ):
            self.ops = GPUPropagatorOps(
                self.device,
                self.expk,
                self.inv_expk,
                fused=self.fused,
                structured=self.structured,
            )
        return self

    def _require_ops(self):
        if self.ops is None:
            raise BackendError(
                "gpu-sim backend is not bound to a model: call bind(factory)"
            )
        return self.ops

    # -- offloaded pieces --------------------------------------------------

    def cluster_product(self, v_diagonals):
        self._count("cluster_product")
        return self._require_ops().cluster_product(list(v_diagonals))

    def wrap(self, g, v):
        self._count("wrap")
        return self._require_ops().wrap(g, v)

    def unwrap(self, g, v):
        self._count("unwrap")
        return self._require_ops().unwrap(g, v)

    def apply_structured(self, a, side="left", inverse=False, category="structured"):
        """Device-side separable application (upload, apply, download)."""
        self._count("apply_structured")
        ops = self._require_ops()
        if self.structured is None:
            raise BackendError(
                "backend 'gpu-sim': no structured kinetic operator is "
                "bound — the model's lattice has no separable structure"
            )
        from ..linalg import flops

        a = self.policy.compute(a)
        width = a.shape[-1] if side == "left" else a.shape[-2]
        flops.record(category, self.structured.apply_flops(width))
        return ops.apply_structured(a, side=side, inverse=inverse)

    def apply_structured_batched(
        self, stack, side="left", inverse=False, category="structured"
    ):
        """Per-sector device applications (one scratch set per device)."""
        self._count("apply_structured_batched")
        import numpy as np

        return np.stack(
            [
                self.apply_structured(a, side=side, inverse=inverse, category=category)
                for a in stack
            ]
        )

    # The batched entry points loop per sector on the device (one scratch
    # set per device; a real multi-stream port would override these):
    # the protocol's looped defaults, not numpy's stacked GEMMs.
    wrap_batched = BaseBackend.wrap_batched
    unwrap_batched = BaseBackend.unwrap_batched
    cluster_product_batched = BaseBackend.cluster_product_batched

    def stats(self):
        out = super().stats()
        out["backend.gpu.kernel_launches"] = float(self.device.kernel_launches)
        out["backend.gpu.elapsed_model_s"] = float(self.device.elapsed)
        return out
