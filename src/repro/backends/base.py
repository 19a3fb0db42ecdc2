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
    permutation, dense cluster products, and the wrap/unwrap similarity
    transforms — plus *batched* variants that take both spin sectors
    stacked along a leading axis so a backend can turn the per-spin loop
    into one stacked-GEMM call.

:class:`BaseBackend`
    Shared machinery: per-op dispatch counters (exported to telemetry as
    ``backend.dispatch.*`` gauges), loud rejection of unknown
    constructor options, and default batched implementations that loop
    the single-matrix ops (correct for every backend; overridden where a
    genuinely stacked execution exists).

Canonical kernel orders
-----------------------
Every backend must implement the same *floating-point evaluation order*
for each op, chosen to match the paper's GPU algorithms (the orders the
simulated device already executes). Elementwise scalings and per-slice
GEMMs are then bit-identical across numpy / threaded / simulated-GPU
execution, which is what lets the equivalence suite assert bit-identical
Markov chains rather than tolerance bands:

* ``wrap``:    ``t = expK @ g``; ``t = t @ invexpK``; ``t *= v[:, None]``;
  ``t *= (1/v)[None, :]``  (Algorithm 6/7 — scale *after* both GEMMs).
* ``unwrap``:  exact inverse composition — ``t = g * (1/v)[:, None]``;
  ``t *= v[None, :]``; ``t = invexpK @ t``; ``t = t @ expK``.
* ``cluster_product``: ``out = expK * v_0[:, None]``; then per slice
  ``out = expK @ out``; ``out *= v_j[:, None]``  (Algorithm 4/5).

Reciprocals are always formed once on the host (``1/v``) and *multiplied*
in — never re-divided — so an unwrap undoes a wrap with the exact same
rounding on every backend.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..linalg import flops
from ..options import resolve_option
from ..precision import resolve_policy

__all__ = ["BackendError", "PropagatorBackend", "BaseBackend"]


class BackendError(ValueError):
    """Unknown backend name, invalid option, or invalid combination."""


class PropagatorBackend:
    """Protocol stub documenting the backend operation set.

    Concrete backends subclass :class:`BaseBackend` (which provides the
    dispatch counters and batched defaults); this class exists so the
    operation contract is importable and testable on its own.
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

    def cluster_product(self, v_diagonals):
        raise NotImplementedError

    def cluster_product_batched(self, v_stack):
        raise NotImplementedError

    def apply_structured(self, a, side="left", inverse=False, category="structured"):
        raise NotImplementedError

    def apply_structured_batched(
        self, stack, side="left", inverse=False, category="structured"
    ):
        raise NotImplementedError

    def wrap(self, g, v):
        raise NotImplementedError

    def unwrap(self, g, v):
        raise NotImplementedError

    def wrap_batched(self, gs, vs):
        raise NotImplementedError

    def unwrap_batched(self, gs, vs):
        raise NotImplementedError


class BaseBackend(PropagatorBackend):
    """Dispatch counting, option validation, and batched-op defaults."""

    def __init__(self, **options):
        # Precision is a protocol-level option: every backend carries a
        # PrecisionPolicy, and bind() realizes the exponentials in its
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
        self.inv_expk: Optional[np.ndarray] = None
        self.bound_factory = None
        #: the factory's structured kinetic operator (a
        #: SeparablePropagator) or None off the rectangle; set at
        #: bind() time and consulted by the wrap / cluster kernels to
        #: pick the structured fast path over the dense GEMM.
        self.structured = None
        self.n: int = 0

    # -- lifecycle ---------------------------------------------------------

    def bind(self, factory) -> "BaseBackend":
        """Attach the model's kinetic exponentials (resident state).

        On the simulated GPU this is the one-time H2D upload of
        ``exp(-+dtau K)`` (paper Sec. VI-A); on host backends it pins
        references realized in the policy's compute dtype (a no-op
        passthrough under ``full64`` — the float64 masters are shared,
        not copied). Idempotent for the same factory; returns self.
        """
        exponentials = getattr(factory, "exponentials", None)
        if exponentials is not None:
            # Factory-side cache: repeated binds (and promotions back to
            # a previously used policy) reuse one realized pair.
            self.expk, self.inv_expk = exponentials(self.policy.compute_dtype)
        else:
            self.expk = self.policy.compute(factory.expk)
            self.inv_expk = self.policy.compute(factory.inv_expk)
        self.structured = getattr(factory, "structured", None)
        self.bound_factory = factory
        self.n = self.expk.shape[0]
        return self

    def set_policy(self, policy) -> "BaseBackend":
        """Switch the precision policy in place (watchdog promotion path).

        Re-binds the exponentials in the new compute dtype when already
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

    # -- structured kinetic application ------------------------------------

    def apply_structured(self, a, side="left", inverse=False, category="structured"):
        """Apply the bound structured kinetic operator to ``a``.

        ``side="left"`` is ``B @ a``; ``side="right"`` is ``a @ B``;
        ``inverse=True`` applies the exact block-wise inverse. The
        operand is realized in the policy compute dtype and the flops are
        charged to ``category`` — O(N (lx + ly)) per column instead of the
        dense GEMM's O(N^2), which is the whole point of the fast path.
        Raises :class:`BackendError` when the bound factory has no
        structured operator (multilayer / general lattices).
        """
        self._count("apply_structured")
        self._require_bound()
        if self.structured is None:
            raise BackendError(
                f"backend {self.name!r}: no structured kinetic operator is "
                "bound — the model's lattice has no separable structure"
            )
        if side not in ("left", "right"):
            raise BackendError(f"apply_structured side must be left/right, got {side!r}")
        a = self.policy.compute(a)
        width = a.shape[-1] if side == "left" else a.shape[-2]
        batch = 1
        for extent in a.shape[: a.ndim - 2]:
            batch *= extent
        flops.record(category, batch * self.structured.apply_flops(width))
        if side == "left":
            return self.structured.apply_expk_left(a, inverse=inverse)
        return self.structured.apply_expk_right(a, inverse=inverse)

    def apply_structured_batched(
        self, stack, side="left", inverse=False, category="structured"
    ):
        """Stacked :meth:`apply_structured` over a leading sector axis.

        The blocked kernels broadcast over leading axes, so the default
        is genuinely stacked (one pair of batched GEMMs for all sectors),
        not a loop.
        """
        self._count("apply_structured_batched")
        return self.apply_structured(
            stack, side=side, inverse=inverse, category=category
        )

    # -- batched defaults (loop the single-matrix ops) ---------------------

    def wrap_batched(self, gs, vs):
        """Wrap a stack: ``gs[i] -> wrap(gs[i], vs[i])`` for each sector.

        The default loops :meth:`wrap`; backends with a genuinely stacked
        execution (numpy's stacked GEMM, a batched cuBLAS) override it.
        Looped and stacked paths are bit-identical by the canonical-order
        contract, which the equivalence suite asserts at 0 ULP.
        """
        self._count("wrap_batched")
        return np.stack([self.wrap(g, v) for g, v in zip(gs, vs)])

    def unwrap_batched(self, gs, vs):
        self._count("unwrap_batched")
        return np.stack([self.unwrap(g, v) for g, v in zip(gs, vs)])

    def cluster_product_batched(self, v_stack):
        """Dense cluster products for a stack of spin sectors.

        ``v_stack`` has shape ``(s, k, n)``: ``s`` sectors, ``k`` slices
        per cluster, ``n`` sites. Returns shape ``(s, n, n)``.
        """
        self._count("cluster_product_batched")
        return np.stack([self.cluster_product(list(vs)) for vs in v_stack])

    # -- flop-ledger helpers ----------------------------------------------

    @staticmethod
    def _record_gemm(category: str, m: int, n: int, k: int) -> None:
        flops.record(category, flops.gemm_flops(m, n, k))

    @staticmethod
    def _record_scale(category: str, m: int, n: int, passes: int = 1) -> None:
        flops.record(category, passes * flops.scale_flops(m, n))
