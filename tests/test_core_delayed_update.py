"""Unit tests for delayed (block) rank-1 Green's function updates."""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core import DelayedUpdater
from tests.helpers import relerr


def reference_update(g, i, alpha):
    """Direct Sherman-Morrison update of (I + B...)^{-1} after a flip at
    site i multiplying row i of the leftmost B by (1 + alpha)."""
    d = 1.0 + alpha * (1.0 - g[i, i])
    u = g[:, i].copy()
    w = -g[i, :].copy()
    w[i] += 1.0
    return g - (alpha / d) * np.outer(u, w), d


@pytest.fixture
def g0(rng):
    # a generic dense matrix playing the role of G
    return rng.normal(size=(12, 12)) * 0.3 + 0.5 * np.eye(12)


class TestSingleUpdate:
    def test_matches_reference(self, g0):
        g = g0.copy()
        upd = DelayedUpdater(g, max_delay=8)
        alpha = 0.7
        i = 3
        d = 1.0 + alpha * (1.0 - upd.diag_element(i))
        upd.accept(i, alpha, d)
        upd.flush()
        expected, _ = reference_update(g0, i, alpha)
        assert relerr(g, expected) < 1e-13

    def test_matches_brute_force_inverse(self, rng):
        """End-to-end: updating G = (I + A)^{-1} for A <- (I+alpha e_i e_i^T) A
        must equal inverting the modified matrix from scratch."""
        n = 10
        a = rng.normal(size=(n, n)) * 0.5
        g = np.linalg.inv(np.eye(n) + a)
        upd = DelayedUpdater(g, max_delay=4)
        i, alpha = 6, -0.45
        d = 1.0 + alpha * (1.0 - upd.diag_element(i))
        upd.accept(i, alpha, d)
        upd.flush()
        a2 = a.copy()
        a2[i, :] *= 1.0 + alpha
        expected = np.linalg.inv(np.eye(n) + a2)
        assert relerr(g, expected) < 1e-12


class TestDelayedSemantics:
    def test_effective_reads_before_flush(self, g0):
        g = g0.copy()
        upd = DelayedUpdater(g, max_delay=16)
        seq = [(2, 0.4), (7, -0.3), (2, 0.9)]
        ref = g0.copy()
        for i, alpha in seq:
            d_ref = 1.0 + alpha * (1.0 - ref[i, i])
            d = 1.0 + alpha * (1.0 - upd.diag_element(i))
            assert d == pytest.approx(d_ref, rel=1e-12)
            np.testing.assert_allclose(upd.column(i), ref[:, i], atol=1e-12)
            np.testing.assert_allclose(upd.row(i), ref[i, :], atol=1e-12)
            upd.accept(i, alpha, d)
            ref, _ = reference_update(ref, i, alpha)
        upd.flush()
        assert relerr(g, ref) < 1e-12

    def test_delay_one_equals_delay_many(self, g0, rng):
        seq = [(int(i), float(a)) for i, a in
               zip(rng.integers(0, 12, size=10), rng.normal(size=10) * 0.3)]

        def run(delay):
            g = g0.copy()
            upd = DelayedUpdater(g, max_delay=delay)
            for i, alpha in seq:
                d = 1.0 + alpha * (1.0 - upd.diag_element(i))
                upd.accept(i, alpha, d)
            upd.flush()
            return g

        np.testing.assert_allclose(run(1), run(32), atol=1e-11)
        np.testing.assert_allclose(run(3), run(32), atol=1e-11)

    def test_auto_flush_at_max_delay(self, g0):
        upd = DelayedUpdater(g0.copy(), max_delay=2)
        for k, i in enumerate([0, 1, 2]):
            d = 1.0 + 0.1 * (1.0 - upd.diag_element(i))
            upd.accept(i, 0.1, d)
        assert upd.flushes == 1  # flushed automatically after 2 updates
        assert upd.pending == 1

    def test_flush_empty_is_noop(self, g0):
        g = g0.copy()
        upd = DelayedUpdater(g, max_delay=4)
        upd.flush()
        assert upd.flushes == 0
        np.testing.assert_array_equal(g, g0)

    def test_dense_flushes(self, g0):
        upd = DelayedUpdater(g0.copy(), max_delay=8)
        d = 1.0 + 0.2 * (1.0 - upd.diag_element(0))
        upd.accept(0, 0.2, d)
        out = upd.dense()
        assert upd.pending == 0
        assert out is upd.g


class TestValidation:
    def test_bad_delay(self, g0):
        with pytest.raises(ValueError):
            DelayedUpdater(g0, max_delay=0)

    def test_non_square(self):
        with pytest.raises(ValueError):
            DelayedUpdater(np.ones((3, 4)))

    def test_singular_denominator(self, g0):
        upd = DelayedUpdater(g0.copy())
        with pytest.raises(ZeroDivisionError):
            upd.accept(0, 1.0, 0.0)


def loop_reference(g, seq, max_delay):
    """The per-spin delayed update spelled out with plain slices and a
    Python loop - the arithmetic the stacked kernel must reproduce,
    summing each G_eff line in the kernel's order (``W[:m, i] @ U^T``
    for the column, ``U^T[:m, i] @ W`` for the row)."""
    n = g.shape[0]
    ut = np.empty((max_delay, n), dtype=g.dtype)
    w = np.empty((max_delay, n), dtype=g.dtype)
    diag = np.diag(g).copy()
    m = 0
    for i, alpha in seq:
        d = 1.0 + alpha * (1.0 - float(diag[i]))
        col = g[:, i] + w[:m, i] @ ut[:m] if m else g[:, i].copy()
        row = g[i, :] + ut[:m, i] @ w[:m] if m else g[i, :].copy()
        ut[m] = g.dtype.type(-alpha / d) * col
        e_i = np.zeros(n, dtype=g.dtype)
        e_i[i] = 1.0
        w[m] = e_i - row
        diag += ut[m] * w[m]
        m += 1
        if m == max_delay:
            g += ut.T @ w
            diag = np.diag(g).copy()
            m = 0
    return diag, ut[:m].copy(), w[:m].copy()


class TestSpinStack:
    """One updater over an (S, n, n) stack is S independent updaters."""

    SEQ = [(2, 0.4, -0.3), (7, -0.3, 0.5), (2, 0.9, -0.6), (0, 0.2, 0.1),
           (11, -0.5, 0.7), (5, 0.3, -0.2), (7, 0.1, 0.1)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stack_equals_independent_sectors_bit_for_bit(self, g0, rng, dtype):
        stack = np.stack([g0, g0.T + 0.1 * rng.normal(size=g0.shape)]).astype(dtype)
        both = DelayedUpdater(stack.copy(), max_delay=3)
        singles = [DelayedUpdater(g.copy(), max_delay=3) for g in stack]
        for step, (i, a_up, a_dn) in enumerate(self.SEQ):
            alphas = (a_up, a_dn)
            ds = tuple(
                1.0 + a * (1.0 - both.diag_element(i, s))
                for s, a in enumerate(alphas)
            )
            both.accept(i, alphas, ds)
            for upd, a, d in zip(singles, alphas, ds):
                upd.accept(i, a, d)
            # 7 accepts at max_delay=3: two auto-flushes, one pending
            assert both.pending == (step + 1) % 3
            for s, upd in enumerate(singles):
                np.testing.assert_array_equal(both.diag[s], upd.diag[0])
                np.testing.assert_array_equal(both.column(5)[s], upd.column(5))
                np.testing.assert_array_equal(both.row(5)[s], upd.row(5))
                m = both.pending
                np.testing.assert_array_equal(
                    both._pending[:m, :, s], upd._pending[:m, :, 0]
                )
        assert both.flushes == 2 and both.updates == len(self.SEQ)
        both.flush()
        for s, upd in enumerate(singles):
            upd.flush()
            np.testing.assert_array_equal(both.g[s], upd.g)
        assert both.g.dtype == dtype

    @pytest.mark.parametrize("max_delay", [1, 3, 16])
    def test_matches_loop_reference_bit_for_bit(self, g0, max_delay):
        seq = [(i, a) for i, a, _ in self.SEQ]
        g_ref = g0.copy()
        diag, ut, w = loop_reference(g_ref, seq, max_delay)
        g = g0.copy()
        upd = DelayedUpdater(g, max_delay=max_delay)
        for i, alpha in seq:
            upd.accept(i, alpha, 1.0 + alpha * (1.0 - upd.diag_element(i)))
        m = upd.pending
        np.testing.assert_array_equal(g, g_ref)
        np.testing.assert_array_equal(upd.diag[0], diag)
        np.testing.assert_array_equal(upd._pending[:m, 0, 0], ut)
        np.testing.assert_array_equal(upd._pending[:m, 1, 0], w)

    def test_anchor_adopts_a_new_matrix(self, g0):
        upd = DelayedUpdater(g0.copy(), max_delay=4)
        upd.accept(1, 0.3, 1.0 + 0.3 * (1.0 - upd.diag_element(1)))
        first = upd.g
        g1 = g0.T.copy()
        upd.anchor(g1)
        # the pending update went into the matrix it was made against
        assert upd.pending == 0 and not np.array_equal(first, g0)
        assert upd.g is g1
        np.testing.assert_array_equal(upd.diag[0], np.diag(g1))
        with pytest.raises(ValueError):
            upd.anchor(np.eye(5))
        with pytest.raises(ValueError):
            upd.anchor(g1.astype(np.float32))

    def test_singular_denominator_in_any_sector(self, g0):
        upd = DelayedUpdater(np.stack([g0, g0]))
        with pytest.raises(ZeroDivisionError):
            upd.accept(0, (1.0, 1.0), (0.5, 0.0))

    def test_flops_reach_the_ledger_once_per_flush(self, g0):
        from repro.linalg import flops

        n = g0.shape[0]
        upd = DelayedUpdater(np.stack([g0, g0]), max_delay=8)
        with flops.tally() as t:
            for i in (0, 1, 2):
                d = 1.0 + 0.1 * (1.0 - upd.diag_element(i))
                upd.accept(i, (0.1, 0.1), (d, d))
            assert "delayed_update" not in t.flops
            upd.flush()
        reads = sum(2 * 2 * n * m for m in range(3))
        expected = 2 * (reads + 3 * 4 * n + flops.gemm_flops(n, n, 3))
        assert t.flops["delayed_update"] == expected


class TestMemory:
    """No N x N temporary: the pending blocks are O(N max_delay), and the
    flush accumulates into G in place."""

    N, DELAY = 256, 16

    def _traced_peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _stack(self):
        rng = np.random.default_rng(3)
        eye = np.eye(self.N)
        return np.stack([0.5 * eye + 0.05 * rng.normal(size=eye.shape)] * 2)

    def test_construction_allocates_no_n_by_n_buffer(self):
        g = self._stack()
        DelayedUpdater(g, max_delay=self.DELAY)  # imports and backend warm
        held = []
        peak = self._traced_peak(
            lambda: held.append(DelayedUpdater(g, max_delay=self.DELAY))
        )
        nn = self.N * self.N * g.itemsize
        assert held[0]._pending.nbytes == 2 * 2 * self.DELAY * self.N * g.itemsize
        assert peak - held[0]._pending.nbytes < nn // 4

    def test_full_flush_allocates_less_than_one_n_by_n_matrix(self):
        upd = DelayedUpdater(self._stack(), max_delay=self.DELAY)

        def accept(i):
            ds = tuple(1.0 + 0.1 * (1.0 - upd.diag_element(i, s)) for s in (0, 1))
            upd.accept(i, (0.1, 0.1), ds)

        for i in range(self.DELAY - 1):
            accept(i)
        peak = self._traced_peak(lambda: accept(self.DELAY))  # auto-flush
        assert upd.flushes == 1 and upd.pending == 0
        assert peak < self.N * self.N * upd.g.itemsize


class TestContiguousSlots:
    """An accept writes each sector's U^T row and W row into one
    C-contiguous (S, N) slot, and allocates nothing that grows with N."""

    def _updater(self, n):
        rng = np.random.default_rng(n)
        eye = np.eye(n)
        stack = np.stack([0.5 * eye + 0.05 * rng.normal(size=eye.shape)] * 2)
        return DelayedUpdater(stack, max_delay=32), rng

    @staticmethod
    def _accept_random(upd, rng):
        i = int(rng.integers(upd.n))
        alphas = tuple(float(a) for a in 0.3 * rng.normal(size=2))
        ds = tuple(
            1.0 + a * (1.0 - upd.diag_element(i, s)) for s, a in enumerate(alphas)
        )
        upd.accept(i, alphas, ds)

    @pytest.mark.parametrize("n", [64, 256])
    def test_accept_writes_one_contiguous_slot_per_line(self, n):
        upd, rng = self._updater(n)
        for _ in range(40):  # one auto-flush on the way
            m = upd.pending
            i = int(rng.integers(n))
            col, row = upd.column(i), upd.row(i)
            alphas = tuple(float(a) for a in 0.3 * rng.normal(size=2))
            ds = tuple(1.0 + a * (1.0 - upd.diag_element(i, s))
                       for s, a in enumerate(alphas))
            upd.accept(i, alphas, ds)
            ut, w = upd._pending[m]
            for line in (ut, w):
                assert line.shape == (2, n) and line.flags.c_contiguous
            e_i = np.zeros(n)
            e_i[i] = 1.0
            for s, (a, d) in enumerate(zip(alphas, ds)):
                np.testing.assert_array_equal(ut[s], (-a / d) * col[s])
                np.testing.assert_array_equal(w[s], e_i - row[s])

    def _accept_peak(self, n):
        """Traced peak bytes of 100 accepts (three auto-flushes), after a
        warm-up that ran the same code; the lower of two measurements, as
        the first tracing in a process pays one-time costs."""
        return min(self._traced_accepts(n) for _ in range(2))

    def _traced_accepts(self, n):
        upd, rng = self._updater(n)
        for _ in range(40):
            self._accept_random(upd, rng)
        # numpy's ufunc iterator buffers (up to np.getbufsize() elements
        # per operand) are traced too; capped at 16 elements, only
        # arrays can still grow with N
        bufsize = np.setbufsize(16)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                self._accept_random(upd, rng)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
            gc.enable()
            np.setbufsize(bufsize)

    @pytest.mark.parametrize("n", [64, 256])
    def test_accepts_allocate_no_array_of_n_elements(self, n):
        """Against the same accepts at N = 16: an array of N or more
        elements would raise the peak by at least N - 16 elements."""
        extra = self._accept_peak(n) - self._accept_peak(16)
        assert extra < (n - 16) * np.dtype(np.float64).itemsize


class TestGoldenAcceptKernel:
    """SHA-1s of the accept kernel's state, recorded before the kernel
    was rewritten over flat operands: after every accept of a seeded
    sequence the incremental diagonals and the written pending slots, and
    G after the last flush. The sequence starts at m = 0 after every
    flush and auto-flushes whenever max_delay fills (at every accept for
    max_delay = 1). Slots at or past ``pending`` are never hashed: they
    hold whatever the buffer's memory held."""

    N, ACCEPTS = 16, 40
    GOLDEN = {  # (S, dtype, max_delay) -> (per-accept state, final G)
        (1, "float64", 1): ("1107c7e48196ce8e5e60529d1c0c886ef8da1207",
                            "e796f74e1c32c8340800436d2158177732ad4bab"),
        (1, "float64", 7): ("92ab6d1f977ef89cf93a31cd4380fbe41ee26303",
                            "3550c7c5712bafef2d7df6a3261fd78d5c2b59c1"),
        (1, "float64", 32): ("7f9306dfa418754589207da13f49a078cc1867b1",
                             "0000762a3682db234987c781a0247faed59454a5"),
        (1, "float32", 1): ("67e6e7e2ee15981f1e966e8c7cd2989bfb97f296",
                            "c2d4895dad91f67b1766df6cce40f30db3fe6542"),
        (1, "float32", 7): ("a222d331887541baba8eddc2c4b5368297841253",
                            "5c2227778e462869f2f06f380a9e1f06de1d29dc"),
        (1, "float32", 32): ("ddc2b5b9aa2f1013b04a42ae6ca0dc3a44c06497",
                             "a99daaf03aa62a0966cec339caf2ce2a61048ee7"),
        (2, "float64", 1): ("cd72050beaa93ab487cab4345e68c051b0852819",
                            "529b6d674fad2b404bb59bf124bd4c4722bf847d"),
        (2, "float64", 7): ("85163c6bf8eb40a6e19eb212ca25abd4505bcd4e",
                            "edb7eedbf988044c8b75e785dbe0de225a5ba5a5"),
        (2, "float64", 32): ("5541d867aca392c41a70007d90c98e6d93aac00f",
                             "9faf0807e2333aaf15c0ec43d872f47182631b0c"),
        (2, "float32", 1): ("569cab9378e1d516b66f4bd7e5ed2e7c2ab24d8f",
                            "c121c03cce6e0be3d317a5e72b582ab5a0f691a4"),
        (2, "float32", 7): ("72ddb431580d27427dfad17eb5c9418dbadd98f9",
                            "97f7a56589e40626893a4719d441eed654beb872"),
        (2, "float32", 32): ("a4f7946625404b79be2df5c7e02e00a6a16370fc",
                             "93e537a74ff697779820a20a0d7378d45143ab8c"),
    }

    @staticmethod
    def _run(s, dtype, max_delay, n, accepts):
        rng = np.random.default_rng(1000 * s + max_delay)
        g = (0.5 * np.eye(n) + 0.1 * rng.normal(size=(s, n, n))).astype(dtype)
        upd = DelayedUpdater(g, max_delay=max_delay)
        steps = hashlib.sha1()
        for _ in range(accepts):
            i = int(rng.integers(n))
            alphas = tuple(float(a) for a in 0.4 * rng.normal(size=s))
            ds = tuple(
                1.0 + a * (1.0 - upd.diag_element(i, k)) for k, a in enumerate(alphas)
            )
            upd.accept(i, alphas, ds)
            steps.update(upd.diag.tobytes())
            steps.update(upd._pending[: upd.pending].tobytes())
        upd.flush()
        return steps.hexdigest(), hashlib.sha1(g.tobytes()).hexdigest()

    @pytest.mark.parametrize("max_delay", [1, 7, 32])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("s", [1, 2])
    def test_accept_state_matches_golden(self, s, dtype, max_delay):
        got = self._run(s, dtype, max_delay, self.N, self.ACCEPTS)
        assert got == self.GOLDEN[s, np.dtype(dtype).name, max_delay]
