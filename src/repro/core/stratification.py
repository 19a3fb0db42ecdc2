"""Stratified evaluation of long B-matrix products (paper Algorithms 2 & 3).

Both algorithms turn a chain of slice propagators

    B_L * B_{L-1} * ... * B_1      (rightmost factor applied first)

into a graded decomposition ``Q diag(D) T`` step by step, keeping the
enormous dynamic range of the product inside the diagonal ``D`` at every
intermediate stage so nothing small is ever added to anything large.

Two pivoting policies are offered:

``"qrp"``
    Algorithm 2 (Loh et al.) — full column-pivoted QR at every step. The
    numerically canonical method, bottlenecked by DGEQP3's level-2 pivot
    updates.

``"prepivot"``
    Algorithm 3 — **the paper's contribution**. One column-norm sort
    *before* each factorization (a single synchronization point), then a
    fully blocked unpivoted QR. Valid because the chain's ``D_i`` is
    already in descending order, so the matrix ``C_i`` arrives almost
    column-graded and true pivoting would barely move anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from ..backends.registry import resolve_backend
from ..linalg import (
    GradedDecomposition,
    qr_pivoted,
    qr_prepivoted,
    stable_inverse_from_graded,
)

__all__ = [
    "StratificationMethod",
    "METHODS",
    "check_method",
    "IncrementalStratifier",
    "stratified_decomposition",
    "stratified_inverse",
    "StratificationStats",
]


StratificationMethod = Literal["qrp", "prepivot"]

METHODS = ("qrp", "prepivot")


def check_method(method: str) -> str:
    """``method`` if it is one of :data:`METHODS`, else ValueError."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return method


def _step_factorize(method: str, c: np.ndarray, backend):
    """One chain step's factorization: ``c = q @ diag(d) @ t_factor``
    with ``t_factor`` well-conditioned; returns
    ``(q, d, t_factor, piv, sync_points)`` where ``piv`` is the row
    permutation to apply to the accumulated T (``P^T T = T[piv]``).

    ``backend`` supplies the pre-pivot column-norm pass (paper
    Sec. IV-B: "our implementation uses OpenMP to compute several norms
    simultaneously" — same permutation, different execution).
    """
    if method == "prepivot":
        res = qr_prepivoted(c, piv=backend.prepivot_permutation(c))
    else:
        res = qr_pivoted(c)
    d = np.diag(res.r).copy()
    _check_diag(d)
    # The graded split of R is pinned to this exact division so every
    # backend shares one rounding of the T factor.
    return res.q, d, res.r / d[:, None], res.piv, res.sync_points  # qmclint: disable=QL007 -- pinned graded split; one rounding shared by all backends


@dataclass
class StratificationStats:
    """Diagnostics of one stratified chain evaluation."""

    n_factors: int = 0
    sync_points: int = 0
    #: max over steps of (number of columns the pivot permutation moved)
    max_pivot_displacement: int = 0
    #: grading ratio max|D|/min|D| of the final decomposition
    grading_ratio: float = 1.0


def _check_diag(d: np.ndarray) -> np.ndarray:
    if np.any(d == 0.0):
        raise np.linalg.LinAlgError(
            "exactly singular factor in the stratified chain "
            "(zero diagonal in R)"
        )
    return d


def _pivot_displacement(piv: np.ndarray) -> int:
    return int(np.max(np.abs(piv - np.arange(piv.size)), initial=0))


class IncrementalStratifier:
    """The stratified chain, built one factor at a time, snapshot-able.

    The one implementation of the chain step: the batch entry point
    :func:`stratified_decomposition` folds a whole chain through
    :meth:`push`; algorithms that need the decomposition of *every
    prefix* (e.g. the fast time-displaced series, which pairs prefix and
    suffix decompositions at each cluster boundary) snapshot after each
    push — O(1) QR steps per prefix instead of restratifying from
    scratch.

    ``backend`` is a :class:`~repro.backends.PropagatorBackend` (or
    registry name) executing the chain's GEMMs, diagonal scalings, and
    the pre-pivot norm pass; ``None`` uses a fresh serial numpy backend.
    ``start`` continues a chain from a kept snapshot of it: the pushes
    that follow give bit for bit what they would have given on the
    stratifier the snapshot was taken from.
    ``n_factors``, ``sync_points`` and ``max_pivot_displacement`` count
    what this instance has pushed so far (see
    :class:`StratificationStats`).
    """

    def __init__(
        self,
        method: StratificationMethod = "prepivot",
        backend=None,
        start: GradedDecomposition | None = None,
    ):
        self.method = check_method(method)
        self.backend = resolve_backend(backend or "numpy")
        self._q: np.ndarray | None = None
        self._d: np.ndarray | None = None
        self._t: np.ndarray | None = None
        if start is not None:
            self._q, self._d, self._t = start.q, start.d, start.t
        self.n_factors = 0
        self.sync_points = 0
        self.max_pivot_displacement = 0

    def push(self, factor: np.ndarray) -> None:
        """Fold one more (leftmost) factor into the chain."""
        b = self.backend
        # The stabilization spine runs in the policy's spine dtype —
        # float64 under full64 *and* mixed (compute-dtype cluster factors
        # are promoted here, before anything graded is formed), float32
        # only under fast32.
        f = b.policy.spine(factor)
        n = f.shape[0]
        if f.shape != (n, n):
            raise ValueError("factors must be square")
        if self._q is None:
            # Step 1-2: the first factor is fully pivoted under both
            # policies (paper Algorithm 3 keeps QRP there).
            q, d, tf, piv, sync = _step_factorize("qrp", f, b)
            t = np.empty((n, n), dtype=tf.dtype)
            t[:, piv] = tf  # T = (graded factor) P^T: scatter columns back
        else:
            if f.shape != self._q.shape:
                raise ValueError("factors must all be square of the same size")
            # 3a: C = (F @ Q) * D  — GEMM first, diagonal column scaling
            # after, so nothing graded enters the GEMM.
            c = b.gemm(f, self._q, category="stratification")
            c = b.scale_columns(c, self._d, out=c, category="stratification")
            # 3b/3c: factor C under the chosen policy.
            q, d, tf, piv, sync = _step_factorize(self.method, c, b)
            # 3d: T <- (graded factor)(P^T T); P^T permutes T's *rows*.
            t = b.gemm(tf, self._t[piv, :], category="stratification")
        # Rebound, never written into: snapshots stay valid without copies.
        self._q, self._d, self._t = q, d, t
        self.n_factors += 1
        self.sync_points += sync
        self.max_pivot_displacement = max(
            self.max_pivot_displacement, _pivot_displacement(piv)
        )

    def decomposition(self) -> GradedDecomposition:
        """A snapshot of the current chain (safe to keep across pushes)."""
        if self._q is None:
            raise ValueError("empty factor chain")
        return GradedDecomposition(q=self._q, d=self._d, t=self._t)


def stratified_decomposition(
    factors: Iterable[np.ndarray],
    method: StratificationMethod = "prepivot",
    stats: StratificationStats | None = None,
    backend=None,
) -> GradedDecomposition:
    """Graded decomposition of ``F_L ... F_2 F_1``.

    Parameters
    ----------
    factors:
        The chain, *rightmost factor first* (the order it is applied to a
        vector). Items may be individual B matrices or pre-multiplied
        clusters; each must be square of the same size.
    method:
        One of :data:`METHODS`. Both pivot the very first factor fully
        (paper Algorithm 3 step 1); they differ in the L-1 chain steps.
    stats:
        Optional mutable diagnostics accumulator.
    backend:
        As for :class:`IncrementalStratifier`.

    Returns
    -------
    GradedDecomposition
        ``Q diag(D) T`` equal to the product, with T carried in original
        (unpermuted) column order.
    """
    chain = IncrementalStratifier(method, backend)
    for f in factors:
        chain.push(f)
    out = chain.decomposition()
    if stats is not None:
        stats.n_factors = chain.n_factors
        stats.sync_points = chain.sync_points
        stats.max_pivot_displacement = chain.max_pivot_displacement
        stats.grading_ratio = out.grading_ratio()
    return out


def stratified_inverse(
    factors: Iterable[np.ndarray],
    method: StratificationMethod = "prepivot",
    stats: StratificationStats | None = None,
    backend=None,
) -> np.ndarray:
    """``(I + F_L ... F_1)^{-1}`` via stratification + the stable solve.

    This is the full Algorithm 2 (``method="qrp"``) or Algorithm 3
    (``method="prepivot"``) including step 4.
    """
    return stable_inverse_from_graded(
        stratified_decomposition(factors, method, stats, backend)
    )
