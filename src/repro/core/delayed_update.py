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
    in ``[m, 1]``, each a C-contiguous ``(S, N)`` block. Column i of
    ``G_eff`` is ``G[:, i] + W[:m, i] @ U^T`` and row i is ``G[i, :] +
    U^T[:m, i] @ W``: one ``(S, 2, 1, m) @ (S, 2, m, N)`` product over
    strided views of the buffer gives both lines of every sector, and
    their sums with G land straight in slot m.

    Past that product, every ufunc of an accept reads and writes 1-D
    operands of ``S N`` elements, contiguous or of one stride: the slot
    rows, the diagonals, the line buffers, a ``-alpha_s / d_s``
    coefficient row and column i of G in every sector. Row i of G is 1-D
    for one sector and an ``(S, N)`` view for more, and so is ``e_i``:
    row i of a read-only window onto one ``(S + 1) N`` buffer, so no
    N x N identity exists.
    :meth:`anchor` binds these operands into the :meth:`accept` closure,
    which reads no instance attribute but the pending count; the sweep
    keeps one updater per engine and :meth:`release` unbinds it between
    sweeps.

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
        dtype = g.dtype
        p = self._pending = np.empty((max_delay, 2, s, n), dtype=dtype)
        #: The effective diagonals ``G_eff[s, i, i]``, maintained
        #: incrementally (one vectorized axpy per accepted flip) so each
        #: *proposal* - the overwhelmingly common operation - reads them
        #: in O(1). Updated in place, so a reference stays valid across
        #: flushes and re-anchors. Read-only for callers.
        self.diag = np.empty((s, n), dtype=dtype)
        # Row-i operands are (S, n) for several sectors, 1-D for one
        rows = (s, n) if s > 1 else (n,)
        # The line product's G_eff-minus-G parts: column i in [0] and row
        # i in [1]; written through an (S, 2, 1, n) view, the shape of
        # the product
        lines = np.empty((2, s, 1, n), dtype=dtype)
        self._lines = lines.transpose(1, 0, 2, 3)
        self._col_line = lines[0].reshape(s * n)
        self._row_line = lines[1].reshape(rows)
        self._prod = np.empty(s * n, dtype=dtype)
        # -alpha / d of sector s fills [s]; read flat
        self._coef = np.empty((s, n), dtype=dtype)
        # e_i in every sector: row i of a negative-stride window whose
        # ones, at k n + n - 1 of the buffer, fall at k n + i
        ones = np.zeros((s + 1) * n, dtype=dtype)
        ones[n - 1 : s * n : n] = 1.0
        window = np.lib.stride_tricks.sliding_window_view(ones, s * n)
        self._unit = window[n - 1 :: -1].reshape(n, *rows)
        # The line product's operands for m pending updates: indexed
        # [i], heads[m][0] is (S, 2, 1, m) with W[:m, i] in [:, 0] and
        # U^T[:m, i] in [:, 1]; heads[m][1] is (S, 2, m, N).
        self._heads = []
        for m in range(max_delay + 1):
            rhs = p[:m].transpose(2, 1, 0, 3)
            self._heads.append((np.moveaxis(rhs[:, ::-1, None], -1, 0), rhs))
        # slots[m]: the free U^T row and W row of every sector, flat, and
        # the W row again in the row shape
        self._slots = [
            (p[m, 0].reshape(s * n), p[m, 1].reshape(s * n), p[m, 1].reshape(rows))
            for m in range(max_delay)
        ]
        # One sector's (m, N) U^T and W blocks, made contiguous per flush
        self._flush_buf = np.empty((2, max_delay, n), dtype=dtype)
        self._flops = 0  # booked by the line reads, not yet handed to the ledger
        self._read_flops = 2 * s * n  # one G_eff line, per pending update
        self._flushed_updates = 0
        self.pending = 0
        self.flushes = 0
        self.anchor(g)

    @property
    def updates(self) -> int:
        """Accepted flips recorded since construction."""
        return self._flushed_updates + self.pending

    def anchor(self, g: np.ndarray) -> None:
        """Adopt ``g`` (same shape and dtype) as the matrix being updated.

        The sweep keeps one updater and re-anchors it on each slice's
        freshly wrapped G. Updates still pending belong to the previous
        G and are folded into it first.
        """
        self.flush()
        stack = g[None] if g.ndim == 2 else g
        s, n = self.diag.shape
        if (
            stack.shape != (s, n, n)
            or g.dtype != self.diag.dtype
            or not g.flags.c_contiguous
        ):
            raise ValueError(
                "anchor needs a C-contiguous G of the constructed shape and dtype"
            )
        self.g = g
        self._stack = stack
        # G[:, :, i] as one single-stride line over the sectors, and
        # G[:, i, :] in the row shape, as [i]: one integer index is the
        # cheapest view numpy builds
        self._cols = stack.reshape(s * n, n).T
        self._rows = stack[0] if s == 1 else stack.transpose(1, 0, 2)
        self._gdiag = stack.diagonal(axis1=1, axis2=2)
        np.copyto(self.diag, self._gdiag)
        self.accept = self._bind_accept(scalars=g.ndim == 2)

    def release(self) -> None:
        """Fold pending updates into G, then drop every reference to it
        (until the next :meth:`anchor`), so a kept updater pins no G."""
        self.flush()
        self.g = self._stack = self._cols = self._rows = self._gdiag = None
        vars(self).pop("accept", None)

    # -- reads against G_eff = G + U W --------------------------------------

    def diag_element(self, i: int, s: int = 0) -> float:
        """``G_eff[s, i, i]`` - the only number a Metropolis proposal needs."""
        return self.diag.item(s, i)

    def _lines_at(self, i: int, col: np.ndarray, row: np.ndarray):
        """``(G_eff[:, :, i], G_eff[:, i, :])``, flat and in the row shape:
        views of G while nothing is pending, else their sums with the
        line product, written in place into ``col`` and ``row``."""
        gcol, grow = self._cols[i], self._rows[i]
        m = self.pending
        if not m:
            return gcol, grow
        lhs, rhs = self._heads[m]
        np.matmul(lhs[i], rhs, out=self._lines)
        return np.add(gcol, self._col_line, out=col), np.add(grow, self._row_line, out=row)

    def column(self, i: int) -> np.ndarray:
        """``G_eff[:, i]`` (fresh array; one row per sector for a stack)."""
        self._flops += self._read_flops * self.pending
        col = self._lines_at(i, self._col_line, self._row_line)[0]
        return col.reshape(self.g.shape[:-1]).copy()

    def row(self, i: int) -> np.ndarray:
        """``G_eff[i, :]`` (fresh array; one row per sector for a stack)."""
        self._flops += self._read_flops * self.pending
        row = self._lines_at(i, self._col_line, self._row_line)[1]
        return row.reshape(self.g.shape[:-1]).copy()

    # -- writes ----------------------------------------------------------------

    def accept(self, i: int, alphas, ds) -> None:
        """Record an accepted flip at site i in every sector.

        ``alphas`` and ``ds`` hold one flip factor and one Metropolis
        denominator ``1 + alpha * (1 - G_eff[i, i])`` per sector (plain
        scalars for a 2-D G) - the denominators are passed in rather
        than recomputed so the update uses exactly the accepted ratio.

        :meth:`anchor` replaces this method on the instance with a
        closure over the anchored G; it runs only on a released updater.
        """
        raise RuntimeError("accept needs an anchored G")

    def _bind_accept(self, scalars: bool):
        """The :meth:`accept` kernel over the anchored G, its operands
        bound as locals (a per-call attribute lookup costs as much as a
        small ufunc); taking one sector's scalars when ``scalars``."""
        matmul, add, multiply, subtract = np.matmul, np.add, np.multiply, np.subtract
        cols, rows, unit = self._cols, self._rows, self._unit
        heads, slots, lines = self._heads, self._slots, self._lines
        col_line, row_line, prod = self._col_line, self._row_line, self._prod
        coef = self._coef.reshape(-1)
        coefs = list(self._coef)
        diag = self.diag.reshape(-1)
        max_delay, flush = self.max_delay, self.flush

        def accept(i, alphas, ds):
            for part, a, d in zip(coefs, alphas, ds):
                if d == 0.0:
                    raise ZeroDivisionError("singular Metropolis denominator")
                part.fill(-a / d)
            m = self.pending
            # The G_eff sums land in slot m (in place from here on)
            u_row, w_row, w_rows = slots[m]
            if m:
                lhs, rhs = heads[m]
                matmul(lhs[i], rhs, out=lines)
                col = add(cols[i], col_line, out=u_row)
                row = add(rows[i], row_line, out=w_rows)
            else:
                col, row = cols[i], rows[i]
            multiply(col, coef, out=u_row)
            subtract(unit[i], row, out=w_rows)  # e_i - G_eff[i, :]
            add(diag, multiply(u_row, w_row, out=prod), out=diag)
            self.pending = m + 1
            if m + 1 == max_delay:
                flush()

        if scalars:
            return lambda i, alpha, d: accept(i, (alpha,), (d,))
        return accept

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
        # The m accepts since the last flush read two G_eff lines at k =
        # 0..m-1 pending (r k flops each, r = 2 S n) and spent 2 r on the
        # scaled writes and the diagonal axpy: sum_k 2 r (k + 1) = r m (m + 1)
        flops.record(
            "delayed_update", self._flops + self._read_flops * m * (m + 1)
        )
        self._flops = 0
        # Re-anchor the incremental diagonal on the freshly updated G so
        # roundoff never accumulates across flushes.
        np.copyto(self.diag, self._gdiag)
        self._flushed_updates += m
        self.pending = 0
        self.flushes += 1

    def dense(self) -> np.ndarray:
        """``G_eff`` as a dense matrix (flushing first)."""
        self.flush()
        return self.g
