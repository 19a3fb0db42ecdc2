"""Custom CUDA-style kernels (paper Algorithms 5 and 7).

The paper's two hand-written kernels replace launch-per-row CUBLAS calls
with single fused launches:

* **Algorithm 5** — ``B_i = diag(V) @ B``: one thread per row, each
  thread holding its ``V_k`` in a register and streaming its row, with
  consecutive threads touching consecutive memory (coalescing).
* **Algorithm 7** — ``G = diag(V) @ G @ diag(V)^{-1}``: same row-per-
  thread layout plus a broadcast read of ``V_j`` per column, served from
  the texture cache on real hardware.

The simulation executes each *thread block* as one vectorized numpy
operation over the block's row range — numerically identical to the
per-thread loops of the paper's listings, while modelling the cost as a
single bandwidth-bound launch (which is the point of the fusion). Block
bookkeeping (grid sizing, tail blocks, out-of-range guard ``k < n``) is
kept explicit so the launch-geometry logic of a real port is exercised
and testable.
"""

from __future__ import annotations

import numpy as np

from ..linalg import flops
from .device import DeviceArray, DeviceError, SimulatedDevice

__all__ = [
    "scale_rows_kernel",
    "two_sided_scale_kernel",
    "structured_apply_kernel",
    "DEFAULT_BLOCK",
]

#: Threads per block (the C2050-era sweet spot the paper's kernels used).
DEFAULT_BLOCK = 256


def _grid_size(n: int, block: int) -> int:
    """Number of blocks covering n threads (ceil division)."""
    if block < 1:
        raise DeviceError("block size must be positive")
    return (n + block - 1) // block


def scale_rows_kernel(
    device: SimulatedDevice,
    v: DeviceArray,
    b: DeviceArray,
    out: DeviceArray,
    block: int = DEFAULT_BLOCK,
) -> None:
    """Algorithm 5: ``out[k, :] = v[k] * b[k, :]``, one thread per row.

    A single fused launch: cost = one kernel latency + streaming
    ``read(B) + read(V) + write(out)`` bytes. Contrast with Algorithm 4's
    dcopy + n dscal calls for the same operation.
    """
    for arr in (v, b, out):
        if arr.device is not device:
            raise DeviceError("array bound to a different device")
    n_rows, n_cols = b.shape
    if v.shape != (n_rows,) or out.shape != b.shape:
        raise DeviceError("scale_rows_kernel shape mismatch")
    pv, pb, pout = v._payload(), b._payload(), out._payload()

    grid = _grid_size(n_rows, block)
    for blk in range(grid):
        k0 = blk * block
        k1 = min(k0 + block, n_rows)  # the `if k < n` guard of Alg 5
        # t <- V_k (per-thread register); row streamed with stride 1.
        np.multiply(pb[k0:k1], pv[k0:k1, None], out=pout[k0:k1])

    device.kernel_launches += 1
    flops.record("gpu_scale", flops.scale_flops(n_rows, n_cols))
    device.tick(
        device.model.time_bandwidth_kernel(2 * pb.nbytes + pv.nbytes)
    )


def structured_apply_kernel(
    device: SimulatedDevice,
    propagator,
    g: DeviceArray,
    side: str = "left",
    inverse: bool = False,
    pass_seconds=None,
    out: DeviceArray | None = None,
) -> None:
    """Apply the kinetic operator to ``g``, in place or into ``out``.

    The simulated execution runs the operator's own application on the
    payload so device results stay bit-identical to the host backends;
    the *cost* is one launch per entry of ``pass_seconds`` — by default
    what the operator itself reports (``propagator.device_pass_seconds``):
    one GEMM for the dense exponential, two batched small GEMMs for exact
    Kronecker blocks, or one bandwidth-bound rotation pass per
    checkerboard bond group, and a diagonal pass more when mu folds in.
    """
    target = g if out is None else out
    for arr in (g, target):
        if arr.device is not device:
            raise DeviceError("array bound to a different device")
    payload = g._payload()
    if side == "left":
        result = propagator.apply_expk_left(payload, inverse=inverse)
        width = payload.shape[1] if payload.ndim == 2 else 1
    elif side == "right":
        result = propagator.apply_expk_right(payload, inverse=inverse)
        width = payload.shape[0]
    else:
        raise DeviceError(f"structured side must be left/right, got {side!r}")
    target._payload()[...] = result

    if pass_seconds is None:
        pass_seconds = propagator.device_pass_seconds(
            device.model, width, payload.dtype
        )
    for seconds in pass_seconds:
        device.kernel_launches += 1
        device.tick(seconds)
    flops.record("gpu_structured", propagator.apply_flops(width))


def two_sided_scale_kernel(
    device: SimulatedDevice,
    v: DeviceArray,
    g: DeviceArray,
    block: int = DEFAULT_BLOCK,
    col_v: DeviceArray | None = None,
) -> None:
    """Algorithm 7: in-place ``G[i, j] *= v[i] * col_v[j]``, row per thread,
    with ``col_v = 1/v`` formed on the fly when not supplied.

    The column factor ``u`` is a broadcast read shared by all threads in
    a warp — texture-cached on hardware, a vectorized row multiply here.
    The explicit ``col_v`` form serves the unwrap transform, which needs
    rows scaled by ``1/v`` and columns by the *original* ``v`` (a second
    reciprocal of ``1/v`` would not be bitwise ``v``). Cost model: one
    launch, read + write of G plus one pass of the diagonals per block
    (amortized to ~2 copies of G at these sizes).
    """
    arrays = (v, g) if col_v is None else (v, g, col_v)
    for arr in arrays:
        if arr.device is not device:
            raise DeviceError("array bound to a different device")
    n = g.shape[0]
    if g.shape != (n, n) or v.shape != (n,):
        raise DeviceError("two_sided_scale_kernel shape mismatch")
    if col_v is not None and col_v.shape != (n,):
        raise DeviceError("two_sided_scale_kernel shape mismatch")
    pv, pg = v._payload(), g._payload()
    # texture-cache image of the column factor
    inv = 1.0 / pv if col_v is None else col_v._payload()

    grid = _grid_size(n, block)
    for blk in range(grid):
        k0 = blk * block
        k1 = min(k0 + block, n)
        pg[k0:k1] *= pv[k0:k1, None]
        pg[k0:k1] *= inv[None, :]

    device.kernel_launches += 1
    flops.record("gpu_scale", 2 * flops.scale_flops(n, n))
    device.tick(device.model.time_bandwidth_kernel(2 * pg.nbytes + 2 * pv.nbytes))
