"""Figure 10: GFlops of the whole Green's function evaluation, hybrid CPU+GPU.

The paper's preliminary hybrid pipeline offloads clustering and wrapping
to the GPU while the QR stratification stays on the CPU, and reports the
combined rate of a full G evaluation rising with N well past the
CPU-only rate.

Here the engine on the ``gpu-sim`` backend runs the real computation; GPU
phases advance the simulated device's clock (``engine.device.elapsed``),
the CPU phase is the measured wall-clock of the "stratification" profiler
phase, and the rate divides the nominal flops by their sum — the two are
serialized, as in the paper's preliminary implementation (documented as
model-derived in EXPERIMENTS.md). The CPU-only line is the same
evaluation timed entirely on the host.

The model sits on ``dense_gemm_lattice`` (the torus as a bond list), so
clustering and wrapping are the dense ``exp(-dtau K)`` GEMMs the paper
offloads (Algorithms 4-7), not the small Kronecker-block applications a
plain ``SquareLattice`` gets — those are too small to feed a GPU.

Asserted shape: hybrid beats CPU-only at the largest size, with the
advantage growing with N as GEMM work dominates.
"""

import numpy as np
import pytest

from bench_common import dense_gemm_lattice, format_table, time_call
from repro import BMatrixFactory, HSField, HubbardModel
from repro.core import GreensFunctionEngine
from repro.linalg import tally
from repro.profiling import PhaseProfiler

SIZES = [(6, 6), (10, 10), (14, 14), (16, 16)]
L = 40


def _build(lx, ly, hybrid: bool):
    model = HubbardModel(
        dense_gemm_lattice(lx, ly), u=4.0, beta=5.0, n_slices=L
    )
    rng = np.random.default_rng(lx)
    field = HSField.random(L, model.n_sites, rng)
    factory = BMatrixFactory(model)
    return GreensFunctionEngine(
        factory, field, cluster_size=10,
        backend="gpu-sim" if hybrid else "numpy",
        profiler=PhaseProfiler(),
    )


def _nominal_flops(engine) -> float:
    engine.invalidate_all()
    with tally() as t:
        engine.boundary_greens(1, 0)
    return t.total_flops


def _cpu_rate(lx, ly) -> float:
    eng = _build(lx, ly, hybrid=False)
    nominal = _nominal_flops(eng)

    def eval_once():
        eng.invalidate_all()
        eng.boundary_greens(1, 0)

    return nominal / time_call(eval_once) / 1e9


def _hybrid_rate(lx, ly) -> float:
    eng = _build(lx, ly, hybrid=True)
    nominal = _nominal_flops(eng)
    # time one steady-state evaluation on the hybrid clocks
    eng.invalidate_all()
    strat_before = eng.profiler.seconds.get("stratification", 0.0)
    gpu_before = eng.device.elapsed
    eng.boundary_greens(1, 0)
    cpu = eng.profiler.seconds.get("stratification", 0.0) - strat_before
    gpu = eng.device.elapsed - gpu_before
    return nominal / (cpu + gpu) / 1e9


def test_fig10_hybrid_rates(benchmark, report):
    rows = []
    ratios = []
    for lx, ly in SIZES:
        n = lx * ly
        r_cpu = _cpu_rate(lx, ly)
        r_hyb = _hybrid_rate(lx, ly)
        ratios.append(r_hyb / r_cpu)
        rows.append(
            [n, f"{r_cpu:.2f}", f"{r_hyb:.2f}", f"{r_hyb/r_cpu:.2f}x"]
        )
    text = format_table(
        ["N", "CPU-only GF/s", "hybrid GF/s", "hybrid/CPU"], rows
    )
    report("fig10_hybrid", text)

    assert ratios[-1] > 1.0, "hybrid must win at the largest size"
    assert ratios[-1] > ratios[0], "advantage should grow with N"

    benchmark(_hybrid_rate, *SIZES[0])
