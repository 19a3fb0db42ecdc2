"""Delayed (block) rank-1 updates of the Green's function.

Paper Sec. II-B final remark: QUEST postpones accepted-flip updates so a
batch of rank-1 modifications is applied as one rank-m GEMM (Jarrell's
delayed-update trick). Between flushes the *effective* Green's function is

    G_eff = G + U @ W

with one column of U / row of W per accepted flip. Proposals only need
single rows/columns of G_eff, which cost O(n m) against the pending
buffers — far better cache behaviour than n^2 rank-1 touches per flip —
and the flush accumulates the rank-m product into G in place.

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
    it the ``(S, N, N)`` spin stack (``S = 1`` when the down sector is
    the particle-hole image of the up one), and an accepted flip forms
    every sector's ``G_eff`` column and row with one batched product. A 2-D
    ``g`` is the one-sector case of the same code; :meth:`accept` then
    takes scalars and :meth:`column` / :meth:`row` return vectors.

    The pending updates live in one ``(max_delay, 2, S, N)`` buffer:
    slot m holds every sector's ``U^T`` row in ``[m, 0]`` and ``W`` row
    in ``[m, 1]``, each a C-contiguous ``(S, N)`` block, so every ufunc
    of an accept writes a contiguous operand, and the scale, ``e_i -
    row`` and the diagonal axpy read one. Column i of ``G_eff`` is ``G[:, i] + W[:m,
    i] @ U^T`` and row i is ``G[i, :] + U^T[:m, i] @ W``: one ``(S, 2, 1,
    m) @ (S, 2, m, N)`` product over strided views of the buffer gives
    both lines of every sector, and their sums with G land straight in
    slot m.
    :meth:`flush` copies each sector's ``(m, N)`` blocks (strided across
    slots) into a preallocated ``(2, max_delay, N)`` scratch, which f2py
    would otherwise copy into a fresh array, and accumulates ``U @ W``
    into G in place (``backend.gemm(..., c=g)``): a flush allocates
    nothing, and no N x N temporary exists.

    Parameters
    ----------
    g:
        The dense Green's function, ``(n, n)`` or a stack ``(S, n, n)``,
        C-contiguous per sector, modified in place on :meth:`flush`.
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
        p = self._pending = np.empty((max_delay, 2, s, n), dtype=g.dtype)
        #: The effective diagonals ``G_eff[s, i, i]``, maintained
        #: incrementally (one vectorized axpy per accepted flip) so each
        #: *proposal* - the overwhelmingly common operation - reads them
        #: in O(1). Updated in place, so a reference stays valid across
        #: flushes and re-anchors. Read-only for callers.
        self.diag = np.empty((s, n), dtype=g.dtype)
        # The line product's G_eff-minus-G parts: column i in [0] and row
        # i in [1], each (S, n) contiguous; written through an (S, 2, 1, n)
        # view, the shape of the product
        lines = np.empty((2, s, 1, n), dtype=g.dtype)
        self._lines = lines.transpose(1, 0, 2, 3)
        self._col_line, self._row_line = lines[0, :, 0], lines[1, :, 0]
        # e_i in every sector, (S, n) so that e_i - row reads two operands
        # of one shape; column i is set and reset around one write through
        # a view built here
        unit = self._unit = np.zeros((s, n), dtype=g.dtype)
        self._unit_cols = [unit[:, i] for i in range(n)]
        self._prod = np.empty((s, n), dtype=g.dtype)
        # -alpha / d per sector: written as scalars through the flat
        # array, broadcast against (S, n) lines through the 2-D view
        self._coef = np.empty(s, dtype=g.dtype)
        self._coef2 = self._coef[:, None]
        # The line product's operands for m pending updates: indexed
        # [i], heads[m][0] is (S, 2, 1, m) with W[:m, i] in [:, 0] and
        # U^T[:m, i] in [:, 1]; heads[m][1] is (S, 2, m, N).
        self._heads = []
        for m in range(max_delay + 1):
            rhs = p[:m].transpose(2, 1, 0, 3)
            self._heads.append((np.moveaxis(rhs[:, ::-1, None], -1, 0), rhs))
        # slots[m]: the free U^T row and W row of every sector, (S, n) each
        self._slots = [(p[m, 0], p[m, 1]) for m in range(max_delay)]
        # One sector's (m, N) U^T and W blocks, made contiguous per flush
        self._flush_buf = np.empty((2, max_delay, n), dtype=g.dtype)
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
        if (
            stack.shape != (*self.diag.shape, self.n)
            or g.dtype != self.diag.dtype
            or not g.flags.c_contiguous
        ):
            raise ValueError(
                "anchor needs a C-contiguous G of the constructed shape and dtype"
            )
        self.g = g
        self._stack = stack
        # G[:, :, i] and G[:, i, :] as [i]: one integer index is the
        # cheapest view numpy builds
        self._cols, self._rows = stack.transpose(2, 0, 1), stack.transpose(1, 0, 2)
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

    def _lines_at(self, i: int, col: np.ndarray, row: np.ndarray):
        """``(G_eff[:, :, i], G_eff[:, i, :])`` as (S, n) arrays: views of G
        while nothing is pending, else their sums with the line product,
        written in place into ``col`` and ``row``."""
        gcol, grow = self._cols[i], self._rows[i]
        m = self.pending
        if not m:
            return gcol, grow
        lhs, rhs = self._heads[m]
        np.matmul(lhs[i], rhs, out=self._lines)
        return (
            np.add(gcol, self._col_line, out=col),
            np.add(grow, self._row_line, out=row),
        )

    def column(self, i: int) -> np.ndarray:
        """``G_eff[:, i]`` (fresh array; one row per sector for a stack)."""
        self._record_flops(self._read_flops * self.pending)
        col = self._lines_at(i, self._col_line, self._row_line)[0]
        return col.reshape(self.g.shape[:-1]).copy()

    def row(self, i: int) -> np.ndarray:
        """``G_eff[i, :]`` (fresh array; one row per sector for a stack)."""
        self._record_flops(self._read_flops * self.pending)
        row = self._lines_at(i, self._col_line, self._row_line)[1]
        return row.reshape(self.g.shape[:-1]).copy()

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
        # The G_eff sums land in slot m (in place from here on)
        u_row, w_row = self._slots[m]
        col, row = self._lines_at(i, u_row, w_row)
        np.multiply(col, self._coef2, out=u_row)
        e_i = self._unit_cols[i]
        e_i[...] = 1.0
        np.subtract(self._unit, row, out=w_row)  # e_i - G_eff[i, :]
        e_i[...] = 0.0
        np.add(self.diag, np.multiply(u_row, w_row, out=self._prod), out=self.diag)
        self.pending = m + 1
        self.updates += 1
        if self.pending >= self.max_delay:
            self.flush()

    def flush(self) -> None:
        """Fold pending updates into G with one in-place rank-m GEMM per
        sector (``G += U @ W``), and hand the flops booked since the last
        flush to the ledger."""
        m = self.pending
        if m == 0:
            return
        blocks = self._flush_buf[:, :m]
        ut, w = blocks
        for g, pending in zip(self._stack, self._heads[m][1]):
            np.copyto(blocks, pending)
            self.backend.gemm(ut.T, w, category="delayed_update", c=g)
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
