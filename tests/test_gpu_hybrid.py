"""The engine on the ``gpu-sim`` backend: the paper's hybrid CPU+GPU
division of labour (Sec. VI) — clustering and wrapping on the simulated
device, the QR chain on the host."""

import numpy as np
import pytest

from repro.core import GreensFunctionEngine
from repro.dqmc import sweep
from repro.profiling import PhaseProfiler
from tests.helpers import relerr


@pytest.fixture
def hybrid(factory4x4, field4x4):
    return GreensFunctionEngine(
        factory4x4, field4x4, cluster_size=10, backend="gpu-sim",
        profiler=PhaseProfiler(),
    )


class TestNumericalEquivalence:
    def test_boundary_greens_matches_cpu(self, hybrid, factory4x4, field4x4):
        cpu = GreensFunctionEngine(factory4x4, field4x4, cluster_size=10)
        for sigma in (1, -1):
            np.testing.assert_allclose(
                hybrid.boundary_greens(sigma, 0),
                cpu.boundary_greens(sigma, 0),
                atol=1e-12,
            )

    def test_wrap_matches_cpu(self, hybrid, factory4x4, field4x4):
        cpu = GreensFunctionEngine(factory4x4, field4x4, cluster_size=10)
        g = cpu.boundary_greens(1, 0)
        assert relerr(hybrid.wrap(g.copy(), 0, 1), cpu.wrap(g.copy(), 0, 1)) < 1e-12

    def test_full_sweep_identical_markov_chain(self, factory4x4, field4x4):
        """A sweep driven by the hybrid engine must walk the *same*
        Markov chain as the CPU engine — offload changes timing, never
        physics."""
        f_cpu = field4x4.copy()
        f_gpu = field4x4.copy()
        cpu_eng = GreensFunctionEngine(factory4x4, f_cpu, cluster_size=10)
        gpu_eng = GreensFunctionEngine(
            factory4x4, f_gpu, cluster_size=10, backend="gpu-sim"
        )
        st_cpu = sweep(cpu_eng, np.random.default_rng(3))
        st_gpu = sweep(gpu_eng, np.random.default_rng(3))
        assert st_cpu.accepted == st_gpu.accepted
        assert np.array_equal(f_cpu.h, f_gpu.h)


class TestTimingAccounts:
    def test_clocks_accumulate(self, hybrid):
        hybrid.boundary_greens(1, 0)
        g = hybrid.boundary_greens(-1, 0)
        hybrid.wrap(g, 0, -1)
        # device work on the virtual clock, the QR chain on the host's
        assert hybrid.device.elapsed > 0
        assert hybrid.profiler.seconds["stratification"] > 0

    def test_cache_avoids_gpu_rebuilds(self, hybrid):
        hybrid.boundary_greens(1, 0)
        launches = hybrid.device.kernel_launches
        hybrid.boundary_greens(1, 0)  # served from the kept decomposition
        assert hybrid.device.kernel_launches == launches

    def test_invalidation_triggers_gpu_rebuild(self, hybrid, field4x4):
        hybrid.boundary_greens(1, 0)
        launches = hybrid.device.kernel_launches
        field4x4.flip(0, 0)
        hybrid.invalidate_slice(0)
        hybrid.boundary_greens(1, 0)
        assert hybrid.device.kernel_launches > launches
