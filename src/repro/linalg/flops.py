"""Floating-point operation and data-movement accounting.

The paper reports kernel performance as GFlops rates (Figs 1, 4, 9, 10).
Wall-clock alone cannot reproduce those plots because a rate needs a flop
count for the *nominal* algorithm, independent of implementation detail.
This module provides the standard dense linear-algebra flop formulas used
throughout LAPACK working notes, plus a lightweight tally that algorithm
implementations feed so benchmark harnesses can convert elapsed time into
the same GFlops figure of merit the paper plots.

Counts follow the conventions of the LAPACK timing routines: one add, one
multiply each count as one flop; an ``n x n`` GEMM is ``2 n^3``.

The tally is intentionally *not* thread-safe per-operation (it is a plain
accumulator); benchmarks drive one engine at a time, and BLAS-internal
threading does not change the nominal count.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

__all__ = [
    "gemm_flops",
    "qr_flops",
    "qrp_flops",
    "lu_solve_flops",
    "scale_flops",
    "norms_flops",
    "FlopTally",
    "tally",
    "current_tally",
]


def gemm_flops(m: int, n: int, k: int) -> int:
    """Flops of ``C <- A @ B`` with A (m x k), B (k x n)."""
    return 2 * m * n * k


def qr_flops(m: int, n: int) -> int:
    """Flops of an unpivoted (DGEQRF) QR of an m x n matrix.

    Standard count ``2 n^2 (m - n/3)`` for the factorization plus
    ``4 (m n^2 - n^3 / 3)`` to form Q explicitly, matching how the
    stratification algorithms consume the factor (they always need Q).
    """
    fact = 2 * n * n * (m - n / 3.0)
    formq = 4 * (m * n * n - n**3 / 3.0)
    return int(fact + formq)


def qrp_flops(m: int, n: int) -> int:
    """Flops of a column-pivoted QR (same leading-order count as QR).

    Pivoting adds O(m n) norm updates — negligible in flops, dominant in
    memory traffic; that asymmetry is exactly the paper's point.
    """
    return qr_flops(m, n) + 2 * m * n


def lu_solve_flops(n: int, nrhs: int) -> int:
    """Flops of an LU factorization plus triangular solves for nrhs RHS."""
    return int(2.0 * n**3 / 3.0 + 2.0 * n * n * nrhs)


def scale_flops(m: int, n: int) -> int:
    """Flops of a one-sided diagonal scaling of an m x n matrix."""
    return m * n


def norms_flops(m: int, n: int) -> int:
    """Flops of computing n column 2-norms of an m x n matrix."""
    return 2 * m * n


@dataclass
class FlopTally:
    """Accumulates nominal flops and bytes moved, by named category.

    Categories mirror the phase names used in Table I of the paper so the
    profiler and the flop accounting can be cross-referenced.
    """

    flops: Dict[str, float] = field(default_factory=dict)
    bytes_moved: Dict[str, float] = field(default_factory=dict)

    def add(self, category: str, flops: float, nbytes: float = 0.0) -> None:
        self.flops[category] = self.flops.get(category, 0.0) + flops
        if nbytes:
            self.bytes_moved[category] = (
                self.bytes_moved.get(category, 0.0) + nbytes
            )

    @property
    def total_flops(self) -> float:
        return float(sum(self.flops.values()))

    @property
    def total_bytes(self) -> float:
        return float(sum(self.bytes_moved.values()))

    def merge(self, other: "FlopTally") -> None:
        for k, v in other.flops.items():
            self.flops[k] = self.flops.get(k, 0.0) + v
        for k, v in other.bytes_moved.items():
            self.bytes_moved[k] = self.bytes_moved.get(k, 0.0) + v

    def reset(self) -> None:
        self.flops.clear()
        self.bytes_moved.clear()

    def gflops_rate(self, seconds: float) -> float:
        """Nominal GFlops rate given an elapsed wall-clock time."""
        if seconds <= 0:
            return 0.0
        return self.total_flops / seconds / 1e9


_state = threading.local()


def current_tally() -> FlopTally | None:
    """The tally installed by the innermost :func:`tally` context, if any."""
    return getattr(_state, "tally", None)


def record(category: str, flops: float, nbytes: float = 0.0) -> None:
    """Record flops against the active tally (no-op when none is active)."""
    t = current_tally()
    if t is not None:
        t.add(category, flops, nbytes)


@contextmanager
def tally() -> Iterator[FlopTally]:
    """Context manager installing a fresh :class:`FlopTally`.

    Nested uses stack; the inner tally's totals are merged into the outer
    one on exit so an enclosing benchmark still sees everything.
    """
    outer = current_tally()
    t = FlopTally()
    _state.tally = t
    try:
        yield t
    finally:
        _state.tally = outer
        if outer is not None:
            outer.merge(t)
