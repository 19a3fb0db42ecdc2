"""Unit tests for GPU clustering (Alg 4/5) and wrapping (Alg 6/7)."""

import numpy as np
import pytest

from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
from repro.backends.gpu_sim import SimulatedGPUBackend
from repro.core import cluster_product, wrap_forward
from repro.gpu import GPUPropagatorOps, SimulatedDevice
from tests.helpers import dense_twin, relerr


@pytest.fixture
def dev():
    return SimulatedDevice()


@pytest.fixture(params=[True, False], ids=["fused", "cublas"])
def ops(request, dev, factory4x4):
    return GPUPropagatorOps(dev, factory4x4.kinetic, fused=request.param)


class TestClusterProduct:
    def test_matches_cpu(self, ops, factory4x4, field4x4):
        for sigma in (1, -1):
            vs = [
                field4x4.v_diagonal(l, sigma, factory4x4.nu) for l in range(10)
            ]
            gpu = ops.cluster_product(vs)
            cpu = cluster_product(factory4x4, field4x4, sigma, range(10))
            assert relerr(gpu, cpu) < 1e-12

    def test_single_matrix_cluster(self, ops, factory4x4, field4x4):
        vs = [field4x4.v_diagonal(0, 1, factory4x4.nu)]
        gpu = ops.cluster_product(vs)
        cpu = factory4x4.b_matrix(field4x4, 0, 1)
        assert relerr(gpu, cpu) < 1e-13

    def test_empty_cluster_raises(self, ops):
        with pytest.raises(ValueError):
            ops.cluster_product([])

    def test_transfer_volume(self, dev, factory4x4, field4x4):
        """Paper Sec. VI-A: one cluster rebuild moves N*L floats up and
        N^2 down (the resident exponentials move only at setup)."""
        ops = GPUPropagatorOps(dev, factory4x4.kinetic)
        h2d0, d2h0 = dev.h2d_bytes, dev.d2h_bytes
        k = 10
        vs = [field4x4.v_diagonal(l, 1, factory4x4.nu) for l in range(k)]
        ops.cluster_product(vs)
        n = 16
        assert dev.h2d_bytes - h2d0 == n * k * 8
        assert dev.d2h_bytes - d2h0 == n * n * 8


class TestLaunchCounts:
    def test_fused_eliminates_per_row_launches(self, dev, factory4x4, field4x4):
        """The structural claim of Algorithm 5: launches per scaling drop
        from N to 1."""
        n = 16
        k = 5
        vs = [field4x4.v_diagonal(l, 1, factory4x4.nu) for l in range(k)]

        fused = GPUPropagatorOps(dev, factory4x4.kinetic, fused=True)
        before = dev.kernel_launches
        fused.cluster_product(vs)
        fused_launches = dev.kernel_launches - before

        plain = GPUPropagatorOps(dev, factory4x4.kinetic, fused=False)
        before = dev.kernel_launches
        plain.cluster_product(vs)
        plain_launches = dev.kernel_launches - before

        # fused: k scalings + (k-1) gemms; plain spends dcopy/dgemm + N
        # dscal + dcopy on every step: k*(n+2) launches in total.
        assert fused_launches == k + (k - 1)
        assert plain_launches == k * (n + 2)
        assert fused_launches < plain_launches / 4

    def test_fused_is_faster_on_virtual_clock(self, factory4x4, field4x4):
        vs = [field4x4.v_diagonal(l, 1, factory4x4.nu) for l in range(10)]
        times = {}
        for fused in (True, False):
            dev = SimulatedDevice()
            ops = GPUPropagatorOps(dev, factory4x4.kinetic, fused=fused)
            t0 = dev.elapsed
            ops.cluster_product(vs)
            times[fused] = dev.elapsed - t0
        assert times[True] < times[False]


class TestWrap:
    def test_matches_cpu(self, ops, factory4x4, field4x4, engine4x4):
        g = engine4x4.boundary_greens(1, 0)
        cpu = wrap_forward(factory4x4, field4x4, g.copy(), 3, 1)
        v = field4x4.v_diagonal(3, 1, factory4x4.nu)
        gpu = ops.wrap(g.copy(), v)
        assert relerr(gpu, cpu) < 1e-12

    def test_does_not_mutate_input(self, ops, factory4x4, field4x4, rng):
        g = rng.normal(size=(16, 16))
        g0 = g.copy()
        ops.wrap(g, np.exp(rng.normal(size=16)))
        np.testing.assert_array_equal(g, g0)

    def test_transfer_volume_per_wrap(self, factory4x4, field4x4, rng):
        """One wrap moves N^2 + N floats up, N^2 down — the paper's
        reason wrapping cannot reach clustering's GPU efficiency."""
        dev = SimulatedDevice()
        ops = GPUPropagatorOps(dev, factory4x4.kinetic)
        h2d0, d2h0 = dev.h2d_bytes, dev.d2h_bytes
        ops.wrap(rng.normal(size=(16, 16)), np.exp(rng.normal(size=16)))
        assert dev.h2d_bytes - h2d0 == (16 * 16 + 16) * 8
        assert dev.d2h_bytes - d2h0 == 16 * 16 * 8


def _rectangle_backend(kinetic="exact", dense=False, fused=True):
    """A gpu-sim backend bound to the 4x4 torus (or its ``GeneralLattice``
    twin), with four seeded cluster diagonals and a seeded G."""
    lattice = SquareLattice(4, 4)
    if dense:
        lattice = dense_twin(lattice)
    model = HubbardModel(lattice, u=4.0, beta=2.0, n_slices=20)
    factory = BMatrixFactory(model, kinetic=kinetic)
    backend = SimulatedGPUBackend(fused=fused, precision="full64").bind(factory)
    rng = np.random.default_rng(3)
    field = HSField.random(model.n_slices, model.n_sites, rng)
    vs = np.stack([field.v_diagonal(l, 1, factory.nu) for l in range(4)])
    return backend, vs, rng.normal(size=(16, 16))


def _charges(backend, call):
    """``(model seconds, launches, H2D bytes)`` one call charges the device."""
    dev = backend.device
    dev.reset_clock()
    launches, h2d = dev.kernel_launches, dev.h2d_bytes
    call()
    return dev.elapsed, dev.kernel_launches - launches, dev.h2d_bytes - h2d


class TestGoldenAccounting:
    """Exact device charges of the fused cluster product (k = 4), wrap and
    unwrap on the 4x4 torus, recorded before the dense exponential became
    a kinetic operator like the Kronecker blocks. On the C2050 model the
    exact 16 x 16 blocks are priced as the resident GEMM they replace, so
    the rectangle and its dense twin charge the same."""

    EXACT = {
        "cluster": (0.0010647895009523814, 7, 512),
        "wrap": (0.0006918800609523812, 3, 2176),
        "unwrap": (0.0007069013942857147, 3, 2304),
    }
    GOLDEN = {
        ("exact", False): EXACT,
        ("exact", True): EXACT,
        ("checkerboard", False): {
            "cluster": (0.00020405569523809523, 16, 512),
            "wrap": (0.00011805752380952382, 9, 2176),
            "unwrap": (0.00013307885714285714, 9, 2304),
        },
    }

    @pytest.mark.parametrize(
        "kinetic, dense", list(GOLDEN), ids=["exact", "dense_twin", "checkerboard"]
    )
    def test_charges_are_unchanged(self, kinetic, dense):
        backend, vs, g = _rectangle_backend(kinetic, dense)
        charged = {
            "cluster": _charges(backend, lambda: backend.cluster_product_batched(vs)),
            "wrap": _charges(backend, lambda: backend.wrap_batched(g, vs[0])),
            "unwrap": _charges(backend, lambda: backend.unwrap_batched(g, vs[0])),
        }
        assert charged == self.GOLDEN[(kinetic, dense)]

    def test_rectangle_cublas_listing_matches_dense_twin(self):
        """Algorithm 4's per-row dscal listing scales every factor of the
        cluster, whichever kinetic operator the factory holds."""
        launches = []
        for dense in (False, True):
            backend, vs, _ = _rectangle_backend(dense=dense, fused=False)
            launches.append(
                _charges(backend, lambda: backend.cluster_product_batched(vs))[1]
            )
        n, k = 16, 4
        assert launches == [k * (n + 2)] * 2
