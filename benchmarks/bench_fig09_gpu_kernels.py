"""Figure 9: GPU GFlops of matrix clustering (Alg 4/5) and wrapping (Alg 6/7).

The paper measures, on a Tesla C2050 including transfer time, that
clustering approaches GPU DGEMM speed (k products amortize one transfer)
while wrapping — two GEMMs per G round-trip — lands well below it but
still far above CPU DGEMM, improving with matrix size.

GPU times here come from the simulated device's calibrated virtual clock
(see DESIGN.md's substitution table); the numerics are executed for real
so the rates correspond to verified-correct kernels. CPU DGEMM is
measured on the host for the comparison line.

Asserted shape, at the largest size:
rate(GPU dgemm) >= rate(clustering) > rate(wrapping) > rate(CPU dgemm),
with clustering within 2x of GPU DGEMM.
"""

import numpy as np
import pytest

from bench_common import format_table, make_field_engine, time_call
from repro.gpu import GPUPropagatorOps, SimulatedDevice, TESLA_C2050
from repro.hamiltonian import KineticPropagator
from repro.linalg import gemm_flops

SIZES = [128, 256, 512, 1024]
K = 10


def _fake_propagator(n, rng):
    """A dense kinetic operator over a random symmetric K at size n: the
    model columns depend only on the shapes it is applied at."""
    a = rng.normal(size=(n, n))
    return KineticPropagator((a + a.T) / n, dtau=0.1)


def _cluster_rate(n, rng) -> float:
    dev = SimulatedDevice(TESLA_C2050)
    ops = GPUPropagatorOps(dev, _fake_propagator(n, rng), fused=True)
    vs = [np.exp(rng.normal(size=n) * 0.3) for _ in range(K)]
    dev.reset_clock()
    ops.cluster_product(vs)
    nominal = (K - 1) * gemm_flops(n, n, n) + K * n * n
    return nominal / dev.elapsed / 1e9


def _wrap_rate(n, rng) -> float:
    dev = SimulatedDevice(TESLA_C2050)
    ops = GPUPropagatorOps(dev, _fake_propagator(n, rng), fused=True)
    g = rng.normal(size=(n, n))
    v = np.exp(rng.normal(size=n) * 0.3)
    dev.reset_clock()
    ops.wrap(g, v)
    nominal = 2 * gemm_flops(n, n, n) + 2 * n * n
    return nominal / dev.elapsed / 1e9


def _gpu_dgemm_rate(n) -> float:
    return 2.0 * n**3 / TESLA_C2050.time_gemm(n, n, n) / 1e9


def _cpu_dgemm_rate(n, rng) -> float:
    a = rng.normal(size=(n, n))
    return gemm_flops(n, n, n) / time_call(lambda: a @ a) / 1e9


def test_fig9_gpu_kernel_rates(benchmark, report):
    rng = np.random.default_rng(9)
    rows = []
    last = None
    for n in SIZES:
        r_cluster = _cluster_rate(n, rng)
        r_wrap = _wrap_rate(n, rng)
        r_gpu = _gpu_dgemm_rate(n)
        r_cpu = _cpu_dgemm_rate(n, rng)
        rows.append(
            [n, f"{r_cluster:.0f}", f"{r_wrap:.0f}", f"{r_gpu:.0f}", f"{r_cpu:.0f}"]
        )
        last = (r_cluster, r_wrap, r_gpu, r_cpu)
    text = format_table(
        ["n", "clustering GF/s", "wrapping GF/s",
         "GPU DGEMM GF/s", "CPU DGEMM GF/s (measured)"],
        rows,
    )
    report("fig09_gpu_kernels", text)

    r_cluster, r_wrap, r_gpu, r_cpu = last
    assert r_gpu >= r_cluster > r_wrap, "paper's kernel ordering"
    assert r_cluster > 0.5 * r_gpu, "clustering approaches GPU DGEMM"
    assert r_wrap > r_cpu, "GPU wrapping still beats CPU DGEMM"

    # wrapping's rate must improve with n (transfer amortization)
    rates = [float(r[2]) for r in rows]
    assert rates == sorted(rates)

    benchmark(_cluster_rate, 256, np.random.default_rng(10))
