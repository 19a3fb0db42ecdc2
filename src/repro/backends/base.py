"""The execution-backend protocol for the Green's-function pipeline.

The paper's central engineering claim (Secs. IV-VI) is that one DQMC
pipeline — clustering, stratification, wrapping, delayed updates — runs
on serial CPUs, multicore CPUs, and GPUs with only the *kernel
implementations* swapped: Algorithms 4-7 are the GPU spellings of the
same row/column scalings, cluster products, and wraps that BLAS spells
on the host. This module captures that seam as an explicit protocol:

:class:`PropagatorBackend`
    The fine-grain operation set a backend must provide — GEMM,
    row/column/two-sided diagonal scaling, column norms + the pre-pivot
    permutation, cluster products, the kinetic-operator application,
    and the wrap/unwrap similarity transforms. Each
    propagator op has one kernel, written over a leading sector axis:
    it takes one ``(N, N)`` matrix or an ``(S, N, N)`` stack of spin
    sectors (S = 1 at half filling, 2 when doped) and returns the same
    shape.

:class:`BaseBackend`
    Shared machinery: per-op dispatch counters (exported to telemetry as
    ``backend.dispatch.*`` gauges), loud rejection of unknown
    constructor options, and the kinetic-operator application.

The kernels are ``cluster_product_batched``, ``wrap_batched``,
``unwrap_batched`` and ``apply_structured``. ``wrap`` and ``unwrap`` are
class-level aliases of the wrap kernels, not second bodies: the
benchmark tracer wraps both spellings by name (ROADMAP 1(f)), and a
dispatch is counted under the kernel's name whichever spelling called it.

Canonical kernel orders
-----------------------
Every backend must implement the same *floating-point evaluation order*
for each op, chosen to match the paper's GPU algorithms (the orders the
simulated device already executes). Elementwise scalings and per-slice
GEMMs are then bit-identical across numpy / threaded / simulated-GPU
execution, which is what lets the equivalence suite assert bit-identical
Markov chains rather than tolerance bands:

* ``wrap_batched``: ``t = expK @ g``; ``t = t @ invexpK``;
  ``t *= v[:, None]``; ``t *= (1/v)[None, :]``  (Algorithm 6/7 — scale
  *after* both GEMMs).
* ``unwrap_batched``: exact inverse composition —
  ``t = g * (1/v)[:, None]``; ``t *= v[None, :]``; ``t = invexpK @ t``;
  ``t = t @ expK``.
* ``cluster_product_batched``: ``out = expK * v_0[:, None]``; then per
  slice ``out = expK @ out``; ``out *= v_j[:, None]``  (Algorithm 4/5).

The orders are per sector: a stacked GEMM is one BLAS call per sector
with the rounding of the single-matrix call, so each sector of a stack
equals the same kernel run on that sector alone, bit for bit.

Reciprocals are always formed once on the host (``1/v``) and *multiplied*
in — never re-divided — so an unwrap undoes a wrap with the exact same
rounding on every backend.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..linalg import flops
from ..options import resolve_option
from ..precision import resolve_policy

__all__ = ["BackendError", "PropagatorBackend", "BaseBackend"]


def sectors(a) -> int:
    """How many ``(N, N)`` matrices (or ``(k, N)`` cluster diagonals) the
    leading axes of ``a`` hold: 1 for one matrix, S for a sector stack."""
    return math.prod(a.shape[:-2])


class BackendError(ValueError):
    """Unknown backend name, invalid option, or invalid combination."""


class PropagatorBackend:
    """Protocol stub documenting the backend operation set.

    Concrete backends subclass :class:`BaseBackend` (which provides the
    dispatch counters); this class exists so the operation contract is
    importable and testable on its own. The four propagator kernels take
    a leading sector axis; a class that defines ``wrap_batched`` /
    ``unwrap_batched`` also binds ``wrap = wrap_batched`` and
    ``unwrap = unwrap_batched``.
    """

    #: registry name ("numpy", "threaded", "gpu-sim")
    name: str = "abstract"

    def bind(self, factory) -> "PropagatorBackend":
        raise NotImplementedError

    def gemm(self, a, b, category="gemm", c=None):
        raise NotImplementedError

    def scale_rows(self, a, v, out=None, category="scaling"):
        raise NotImplementedError

    def scale_columns(self, a, v, out=None, category="scaling"):
        raise NotImplementedError

    def scale_two_sided(self, a, v, col_v=None, out=None, category="scaling"):
        raise NotImplementedError

    def column_norms(self, a):
        raise NotImplementedError

    def prepivot_permutation(self, a):
        raise NotImplementedError

    def cluster_product_batched(self, vs):
        raise NotImplementedError

    def apply_structured(self, a, side="left", inverse=False, category="structured"):
        raise NotImplementedError

    def wrap_batched(self, g, v):
        raise NotImplementedError

    def unwrap_batched(self, g, v):
        raise NotImplementedError


class BaseBackend(PropagatorBackend):
    """Dispatch counting, option validation, kinetic application."""

    def __init__(self, **options):
        # Precision is a protocol-level option: every backend carries a
        # PrecisionPolicy, and bind() realizes the exponential in its
        # compute dtype. Popped here so subclasses never have to.
        precision = options.pop("precision", None)
        if options:
            bad = ", ".join(sorted(options))
            raise BackendError(
                f"backend {self.name!r} got unknown option(s): {bad} — "
                "options that would be silently ignored are rejected"
            )
        self.policy = resolve_policy(resolve_option("precision", precision))
        self.op_counts: Dict[str, int] = {}
        self.expk: Optional[np.ndarray] = None
        self.bound_factory = None
        #: the factory's kinetic operator (dense exponential, Kronecker
        #: blocks or checkerboard split), set at bind() time; the wrap and
        #: cluster kernels apply it through :meth:`apply_structured`.
        self.kinetic = None
        self.n: int = 0

    # -- lifecycle ---------------------------------------------------------

    def bind(self, factory) -> "BaseBackend":
        """Attach the model's kinetic operator (resident state).

        Pins the factory's kinetic operator and ``exp(-dtau K)`` realized
        in the policy's compute dtype (the first factor of every cluster
        product; the float64 master itself under ``full64``). On the
        simulated GPU this is the one-time H2D upload (paper Sec. VI-A).
        Idempotent for the same factory; returns self.
        """
        self.kinetic = factory.kinetic
        self.expk = self.kinetic.as_matrix(self.policy.compute_dtype)
        self.bound_factory = factory
        self.n = self.expk.shape[0]
        return self

    def set_policy(self, policy) -> "BaseBackend":
        """Switch the precision policy in place (watchdog promotion path).

        Re-binds the exponential in the new compute dtype when already
        bound; the caller owns invalidating any state it derived under
        the old policy (cluster caches, the live Green's function).
        """
        policy = resolve_policy(policy)
        if policy is not self.policy:
            self.policy = policy
            if self.bound_factory is not None:
                self.bind(self.bound_factory)
        return self

    def _require_bound(self) -> None:
        if self.expk is None:
            raise BackendError(
                f"backend {self.name!r} is not bound to a model: call "
                "bind(factory) before propagator ops"
            )

    def _count(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    def stats(self) -> Dict[str, float]:
        """Per-op dispatch totals, telemetry-gauge shaped."""
        out = {
            f"backend.dispatch.{op}": float(c)
            for op, c in sorted(self.op_counts.items())
        }
        out[f"backend.active.{self.name}"] = 1.0
        return out

    # -- kinetic-operator application ---------------------------------------

    def apply_structured(self, a, side="left", inverse=False, category="structured"):
        """Apply the bound kinetic operator to ``a``.

        ``side="left"`` is ``B @ a``; ``side="right"`` is ``a @ B``;
        ``inverse=True`` applies ``B^{-1}``. The operand is realized in
        the policy compute dtype and the operator's flops are charged to
        ``category``: O(N (lx + ly)) per column through the Kronecker or
        checkerboard blocks on a rectangle, the dense GEMM's O(N^2)
        elsewhere.
        """
        self._count("apply_structured")
        self._require_bound()
        if side not in ("left", "right"):
            raise BackendError(f"apply_structured side must be left/right, got {side!r}")
        a = self.policy.compute(a)
        width = a.shape[-1] if side == "left" else a.shape[-2]
        flops.record(category, sectors(a) * self.kinetic.apply_flops(width))
        if side == "left":
            return self.kinetic.apply_expk_left(a, inverse=inverse)
        return self.kinetic.apply_expk_right(a, inverse=inverse)

    # -- flop-ledger helpers ----------------------------------------------

    @staticmethod
    def _record_gemm(category: str, m: int, n: int, k: int) -> None:
        flops.record(category, flops.gemm_flops(m, n, k))

    @staticmethod
    def _record_scale(category: str, m: int, n: int, passes: int = 1) -> None:
        flops.record(category, passes * flops.scale_flops(m, n))
