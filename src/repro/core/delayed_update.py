"""Delayed (block) rank-1 updates of the Green's function.

Paper Sec. II-B final remark: QUEST postpones accepted-flip updates so a
batch of rank-1 modifications is applied as one rank-m GEMM (Jarrell's
delayed-update trick). Between flushes the *effective* Green's function is

    G_eff = G + U @ W

with one column of U / row of W per accepted flip. Proposals only need
single rows/columns of G_eff, which cost O(n m) against the pending
buffers — far better cache behaviour than n^2 rank-1 touches per flip.

Update algebra (leftmost-B_l convention used throughout the package): an
accepted flip at site i with factor alpha and denominator
``d = 1 + alpha (1 - G_eff[i, i])`` transforms

    G  <-  G_eff - (alpha / d) * G_eff[:, i] (e_i - G_eff[i, :])^T
"""

from __future__ import annotations

import numpy as np

from ..backends.registry import resolve_backend
from ..linalg import flops

__all__ = ["DelayedUpdater"]


class DelayedUpdater:
    """Accumulates pending rank-1 Green's-function updates.

    One updater serves a stack of independent sectors: the sweep hands
    it the ``(2, N, N)`` spin stack, and an accepted flip forms both
    sectors' ``G_eff`` column and row with one batched product each. A
    2-D ``g`` is the one-sector case of the same code; :meth:`accept`
    then takes scalars and :meth:`column` / :meth:`row` return vectors.

    Parameters
    ----------
    g:
        The dense Green's function, ``(n, n)`` or a stack ``(S, n, n)``,
        modified in place on :meth:`flush`.
    max_delay:
        Flush automatically once this many updates are pending. 1
        degenerates to plain rank-1 updates (the ablation baseline).
    backend:
        The :class:`~repro.backends.PropagatorBackend` (or registry name)
        executing the rank-m flush GEMM of each sector and counting it in
        the dispatch telemetry; ``None`` uses a fresh serial numpy backend.
    """

    def __init__(self, g: np.ndarray, max_delay: int = 32, backend=None):
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if g.ndim not in (2, 3) or g.shape[-2] != g.shape[-1]:
            raise ValueError("G must be square, or a stack of square matrices")
        n = g.shape[-1]
        s = g.shape[0] if g.ndim == 3 else 1
        self.n = n
        self.max_delay = max_delay
        self.backend = resolve_backend(backend or "numpy")
        # Buffers follow G's dtype: under a narrowed precision policy
        # the rank-1 blocks accumulate in the compute dtype and the
        # rank-m flush GEMM runs at single-precision GEMM rates.
        u = self._u = np.empty((s, n, max_delay), dtype=g.dtype)
        w = self._w = np.empty((s, max_delay, n), dtype=g.dtype)
        #: The effective diagonals ``G_eff[s, i, i]``, maintained
        #: incrementally (one vectorized axpy per accepted flip) so each
        #: *proposal* - the overwhelmingly common operation - reads them
        #: in O(1). Updated in place, so a reference stays valid across
        #: flushes and re-anchors. Read-only for callers.
        self.diag = np.empty((s, n), dtype=g.dtype)
        self._colbuf = np.empty((s, n, 1), dtype=g.dtype)
        self._rowbuf = np.empty((s, 1, n), dtype=g.dtype)
        self._prod = np.empty((s, n), dtype=g.dtype)
        # -alpha / d per sector: written as scalars through the flat
        # array, broadcast against (S,n,1) columns through the 3-D view
        self._coef = np.empty(s, dtype=g.dtype)
        self._coef3 = self._coef[:, None, None]
        # Every slice of the pending blocks the hot path touches, built
        # once: heads[m] are the m filled columns/rows, slots[m] the next
        # free pair as (S,n,1)/(S,1,n) matrices and as (S,n) vectors.
        self._heads = [(u[:, :, :m], w[:, :m, :]) for m in range(max_delay + 1)]
        self._slots = [
            (u[:, :, m : m + 1], w[:, m : m + 1, :], u[:, :, m], w[:, m, :])
            for m in range(max_delay)
        ]
        self._flops = 0  # booked, not yet handed to the ledger
        self._read_flops = 2 * s * n  # one G_eff line, per pending update
        self.pending = 0
        self.flushes = 0
        self.updates = 0
        self.anchor(g)

    def anchor(self, g: np.ndarray) -> None:
        """Adopt ``g`` (same shape and dtype) as the matrix being updated.

        The sweep keeps one updater and re-anchors it on each slice's
        freshly wrapped G. Updates still pending belong to the previous
        G and are folded into it first.
        """
        self.flush()
        stack = g[None] if g.ndim == 2 else g
        if stack.shape != (*self.diag.shape, self.n) or g.dtype != self._u.dtype:
            raise ValueError("anchor needs a G of the constructed shape and dtype")
        self.g = g
        self._stack = stack
        self._gdiag = stack.diagonal(axis1=1, axis2=2)
        np.copyto(self.diag, self._gdiag)

    # -- reads against G_eff = G + U W --------------------------------------

    def diag_element(self, i: int, s: int = 0) -> float:
        """``G_eff[s, i, i]`` - the only number a Metropolis proposal needs."""
        return self.diag.item(s, i)

    def _record_flops(self, count: int) -> None:
        """Book ``delayed_update`` flops; :meth:`flush` hands the exact
        integer sum to the ledger (a thread-local ``flops.record`` lookup
        per booking is too dear on the per-accept path)."""
        self._flops += count

    def _column(self, i: int) -> np.ndarray:
        """``G_eff[:, :, i]`` as (S,n,1): a view of G while nothing is
        pending, the scratch buffer after."""
        col = self._stack[:, :, i : i + 1]
        m = self.pending
        if m:
            u, w = self._heads[m]
            np.matmul(u, w[:, :, i : i + 1], out=self._colbuf)
            col = np.add(col, self._colbuf, out=self._colbuf)
        return col

    def _row(self, i: int) -> np.ndarray:
        """``G_eff[:, i, :]`` as (S,1,n), like :meth:`_column`."""
        row = self._stack[:, i : i + 1, :]
        m = self.pending
        if m:
            u, w = self._heads[m]
            np.matmul(u[:, i : i + 1, :], w, out=self._rowbuf)
            row = np.add(row, self._rowbuf, out=self._rowbuf)
        return row

    def column(self, i: int) -> np.ndarray:
        """``G_eff[:, i]`` (fresh array; one row per sector for a stack)."""
        self._record_flops(self._read_flops * self.pending)
        return self._column(i).reshape(self.g.shape[:-1]).copy()

    def row(self, i: int) -> np.ndarray:
        """``G_eff[i, :]`` (fresh array; one row per sector for a stack)."""
        self._record_flops(self._read_flops * self.pending)
        return self._row(i).reshape(self.g.shape[:-1]).copy()

    # -- writes ----------------------------------------------------------------

    def accept(self, i: int, alphas, ds) -> None:
        """Record an accepted flip at site i in every sector.

        ``alphas`` and ``ds`` hold one flip factor and one Metropolis
        denominator ``1 + alpha * (1 - G_eff[i, i])`` per sector (plain
        scalars for a 2-D G) - the denominators are passed in rather
        than recomputed so the update uses exactly the accepted ratio.
        """
        if self.g.ndim == 2:
            alphas, ds = (alphas,), (ds,)
        coef = self._coef
        for s, d in enumerate(ds):
            if d == 0.0:
                raise ZeroDivisionError("singular Metropolis denominator")
            coef[s] = -alphas[s] / d
        m = self.pending
        # Per sector: the G_eff column and row reads (2nm each), then 4n
        # for the scaled writes and the incremental-diagonal axpy.
        self._record_flops(2 * self._read_flops * (m + 1))
        col = self._column(i)
        row = self._row(i)
        u_col, w_row, u_vec, w_vec = self._slots[m]
        np.multiply(col, self._coef3, out=u_col)
        np.negative(row, out=w_row)
        e_i = w_vec[:, i]
        e_i += 1.0  # e_i - G_eff[i, :]
        np.add(self.diag, np.multiply(u_vec, w_vec, out=self._prod), out=self.diag)
        self.pending = m + 1
        self.updates += 1
        if self.pending >= self.max_delay:
            self.flush()

    def flush(self) -> None:
        """Fold pending updates into G with one rank-m GEMM per sector,
        and hand the flops booked since the last flush to the ledger."""
        m = self.pending
        if m == 0:
            return
        for g, u, w in zip(self._stack, *self._heads[m]):
            g += self.backend.gemm(u, w, category="delayed_update")
        flops.record("delayed_update", self._flops)
        self._flops = 0
        # Re-anchor the incremental diagonal on the freshly updated G so
        # roundoff never accumulates across flushes.
        np.copyto(self.diag, self._gdiag)
        self.pending = 0
        self.flushes += 1

    def dense(self) -> np.ndarray:
        """``G_eff`` as a dense matrix (flushing first)."""
        self.flush()
        return self.g
