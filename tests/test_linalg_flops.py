"""Unit tests for flop accounting."""

import threading

import numpy as np
import pytest

from repro.linalg import flops
from repro.linalg import (
    column_norms,
    gemm_flops,
    qr_flops,
    qr_pivoted,
    qr_prepivoted,
    qrp_flops,
    tally,
)


class TestFormulas:
    def test_gemm(self):
        assert gemm_flops(2, 3, 4) == 48

    def test_qr_square_leading_order(self):
        # 2 n^2 (m - n/3) + 4(mn^2 - n^3/3); for m = n both give (4/3 +
        # 8/3) n^3 = 4 n^3.
        n = 300
        assert qr_flops(n, n) == pytest.approx(4.0 * n**3, rel=1e-12)

    def test_qrp_exceeds_qr(self):
        assert qrp_flops(100, 100) > qr_flops(100, 100)

    def test_scale_and_norms(self):
        assert flops.scale_flops(10, 20) == 200
        assert flops.norms_flops(10, 20) == 400

    def test_lu_solve(self):
        n = 30
        expected = 2 * n**3 / 3 + 2 * n * n * n
        assert flops.lu_solve_flops(n, n) == pytest.approx(expected)


class TestTally:
    def test_records_categories(self):
        with tally() as t:
            flops.record("a", 10)
            flops.record("a", 5, nbytes=100)
            flops.record("b", 1)
        assert t.flops == {"a": 15.0, "b": 1.0}
        assert t.bytes_moved == {"a": 100.0}
        assert t.total_flops == 16.0

    def test_no_tally_is_noop(self):
        flops.record("ignored", 1e9)  # must not raise
        assert flops.current_tally() is None

    def test_nested_tallies_merge_outward(self):
        with tally() as outer:
            flops.record("x", 1)
            with tally() as inner:
                flops.record("x", 2)
            assert inner.total_flops == 2
        assert outer.flops["x"] == 3.0

    def test_library_calls_feed_tally(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(16, 16))
        with tally() as t:
            qr_prepivoted(a, piv=np.arange(16))  # no norms pass: books "qr" only
            qr_pivoted(a)
            column_norms(a)
        assert t.flops["qr"] == qr_flops(16, 16)
        assert t.flops["qrp"] == qrp_flops(16, 16)
        assert t.flops["norms"] == flops.norms_flops(16, 16)

    def test_gflops_rate(self):
        t = flops.FlopTally()
        t.add("a", 2e9)
        assert t.gflops_rate(2.0) == pytest.approx(1.0)
        assert t.gflops_rate(0.0) == 0.0

    def test_reset(self):
        t = flops.FlopTally()
        t.add("a", 1, nbytes=2)
        t.reset()
        assert t.total_flops == 0 and t.total_bytes == 0

    def test_thread_local_isolation(self):
        """A tally installed in one thread must not leak into another."""
        seen = {}

        def worker():
            seen["inner"] = flops.current_tally()

        with tally():
            th = threading.Thread(target=worker)
            th.start()
            th.join()
        assert seen["inner"] is None
