"""Figure 1: GFlops of DGEMM vs DGEQRF vs DGEQP3 across matrix sizes.

The paper's motivating measurement: matrix-matrix multiply runs near
machine peak even at DQMC sizes, unpivoted QR reaches a large fraction of
it, and pivoted QR is far behind because its pivot updates are level-2.
Here the same three kernels are timed through numpy/scipy's BLAS/LAPACK
and reported as GFlops against the standard nominal flop counts.

Expected shape (asserted): rate(DGEMM) > rate(DGEQRF) > rate(DGEQP3) at
the largest size, with DGEQP3 under half of DGEMM.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from bench_common import format_table, time_call
from repro.linalg import gemm_flops, qr_flops, qrp_flops

SIZES = [64, 128, 256, 384, 512]


def dgemm(a, b):
    return a @ b


def dgeqrf(a):
    # mode="raw" is the bare LAPACK DGEQRF call (no Q formation), the
    # routine Figure 1 actually plots
    return sla.qr(a, mode="raw", check_finite=False)


def dgeqp3(a):
    return sla.qr(a, mode="raw", pivoting=True, check_finite=False)


def _rates(n, rng):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    t_gemm = time_call(dgemm, a, b)
    t_qr = time_call(dgeqrf, a)
    t_qrp = time_call(dgeqp3, a)
    return (
        gemm_flops(n, n, n) / t_gemm / 1e9,
        # factorization-only counts (no explicit Q) match LAPACK timing
        # convention for this comparison
        (2 * n**3 * 2 / 3) / t_qr / 1e9,
        (2 * n**3 * 2 / 3) / t_qrp / 1e9,
    )


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("routine", ["dgemm", "dgeqrf", "dgeqp3"])
def test_kernel_rates(benchmark, n, routine):
    """Headline timings for the three kernels at two representative sizes."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    if routine == "dgemm":
        fn, args, nominal = dgemm, (a, b), gemm_flops(n, n, n)
    elif routine == "dgeqrf":
        fn, args, nominal = dgeqrf, (a,), qr_flops(n, n)
    else:
        fn, args, nominal = dgeqp3, (a,), qrp_flops(n, n)
    benchmark(fn, *args)
    # The rate comes from the bench's own timer: pytest-benchmark's
    # ``stats`` is None under --benchmark-disable.
    benchmark.extra_info["gflops"] = nominal / time_call(fn, *args) / 1e9


def test_fig1_series(benchmark, report):
    """The full Figure 1 series + the paper's qualitative assertions."""
    rng = np.random.default_rng(1)
    rows = []
    rates = {}
    for n in SIZES:
        g, q, p = _rates(n, rng)
        rates[n] = (g, q, p)
        rows.append([n, f"{g:.1f}", f"{q:.1f}", f"{p:.1f}"])
    text = format_table(
        ["n", "DGEMM GF/s", "DGEQRF GF/s", "DGEQP3 GF/s"], rows
    )
    report("fig01_lapack_rates", text)

    g, q, p = rates[SIZES[-1]]
    assert g > q > p, "paper ordering DGEMM > DGEQRF > DGEQP3 violated"
    assert p < 0.5 * g, "QP3 should run far below GEMM (level-2 pivoting)"

    # benchmark the largest-size GEMM as this test's headline number
    a = rng.normal(size=(SIZES[-1], SIZES[-1]))
    benchmark(dgemm, a, a)
