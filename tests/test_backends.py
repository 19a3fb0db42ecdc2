"""The execution-backend layer: protocol, registry, and bit-identity.

The tentpole contract: one Green's-function pipeline over numpy /
threaded / simulated-GPU execution, with the *same bits* out of each.
The equivalence class is enforced here on a seeded 4x4 beta=2 run —
Green's functions, configuration sign, and observables bit-identical
across backends — plus 0-ULP checks that each propagator kernel, run on
an ``(S, N, N)`` sector stack, equals the same kernel on each sector.
"""

import dataclasses

import numpy as np
import pytest

from repro import HubbardModel, Simulation, SquareLattice
from repro.backends import (
    BackendError,
    BaseBackend,
    NumpyBackend,
    SimulatedGPUBackend,
    ThreadedBackend,
    get_backend,
    known_backends,
    register_backend,
    resolve_backend,
)
from repro.dqmc.config import parse_config
from repro.hamiltonian import BMatrixFactory
from tests.helpers import dense_twin

#: The backends whose outputs must be bit-for-bit identical.
IDENTITY_BACKENDS = ("numpy", "threaded", "gpu-sim")


def model_4x4(beta=2.0, n_slices=16):
    return HubbardModel(SquareLattice(4, 4), u=4.0, beta=beta, n_slices=n_slices)


def bound_backend(name):
    factory = BMatrixFactory(model_4x4())
    return get_backend(name).bind(factory), factory


# ---------------------------------------------------------------------------
# registry + options
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_known_backends(self):
        assert set(known_backends()) >= {"numpy", "threaded", "gpu-sim"}

    def test_unknown_name_raises_with_catalogue(self):
        with pytest.raises(BackendError, match="numpy"):
            get_backend("cuda")

    def test_resolve_passthrough_and_default(self):
        b = NumpyBackend()
        assert resolve_backend(b) is b
        assert resolve_backend("threaded").name == "threaded"
        # No implicit default: choosing one (and reading $REPRO_BACKEND)
        # is repro.options' job, see tests/test_options.py.
        with pytest.raises(BackendError):
            resolve_backend(None)

    def test_resolve_binds_to_factory_once(self):
        factory = BMatrixFactory(model_4x4())
        b = resolve_backend("numpy", factory=factory)
        assert b.bound_factory is factory
        expk = b.expk
        assert resolve_backend(b, factory=factory).expk is expk
        other = BMatrixFactory(model_4x4(beta=1.0))
        assert resolve_backend(b, factory=other).bound_factory is other

    def test_custom_backend_registration(self):
        class MyBackend(NumpyBackend):
            name = "my-test-backend"

        register_backend("my-test-backend", MyBackend)
        assert get_backend("my-test-backend").name == "my-test-backend"


class TestLoudOptionRejection:
    """Satellite 1: no backend knob is ever silently dropped."""

    @pytest.mark.parametrize("name", IDENTITY_BACKENDS)
    def test_unknown_options_raise(self, name):
        with pytest.raises(BackendError, match="threaded_norms"):
            get_backend(name, threaded_norms=True)


class TestMethodValidation:
    """Satellite 2: method/backend combos validated before anything runs."""

    @staticmethod
    def engine(**kwargs):
        from repro.core import GreensFunctionEngine
        from repro.hamiltonian import HSField

        model = model_4x4()
        field = HSField.random(
            model.n_slices, model.n_sites, np.random.default_rng(0)
        )
        return GreensFunctionEngine(
            BMatrixFactory(model), field, cluster_size=4, **kwargs
        )

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            self.engine(method="cholesky").boundary_greens(1)
        with pytest.raises(ValueError, match="unknown method"):
            Simulation(model_4x4(), cluster_size=4, method="cholesky")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend.*numpy"):
            self.engine(backend="cuda")

    def test_config_parse_time_validation(self):
        good = "l = 8\nnorth = 4\nbackend = threaded\n"
        assert parse_config(good).backend == "threaded"
        with pytest.raises(ValueError, match="backend"):
            parse_config("l = 8\nnorth = 4\nbackend = cuda\n")

    def test_config_auto_backend_defers(self, monkeypatch):
        cfg = parse_config("l = 8\nnorth = 4\n")
        assert cfg.backend == "auto"
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert cfg.simulation().engine.backend.name == "numpy"
        # "auto" is env-aware: the CI backend-matrix leg rides on this.
        monkeypatch.setenv("REPRO_BACKEND", "gpu-sim")
        assert cfg.simulation().engine.backend.name == "gpu-sim"

    def test_config_backend_override(self):
        cfg = parse_config("l = 8\nnorth = 4\nbackend = numpy\n")
        sim = dataclasses.replace(cfg, backend="threaded").simulation()
        assert sim.engine.backend.name == "threaded"


# ---------------------------------------------------------------------------
# bit-identity of the single ops
# ---------------------------------------------------------------------------


def _rng_ops(seed=3):
    rng = np.random.default_rng(seed)
    n = 16
    g = rng.standard_normal((n, n))
    v = np.exp(rng.standard_normal(n))
    return g, v


class TestSingleOpIdentity:
    @pytest.mark.parametrize("name", IDENTITY_BACKENDS)
    def test_wrap_unwrap_identity_across_backends(self, name):
        ref, factory = bound_backend("numpy")
        other = get_backend(name).bind(factory)
        g, v = _rng_ops()
        assert np.array_equal(other.wrap(g, v), ref.wrap(g, v))
        assert np.array_equal(other.unwrap(g, v), ref.unwrap(g, v))

    @pytest.mark.parametrize("name", IDENTITY_BACKENDS)
    def test_cluster_product_across_backends(self, name):
        ref, factory = bound_backend("numpy")
        other = get_backend(name).bind(factory)
        rng = np.random.default_rng(5)
        vs = np.array([np.exp(rng.standard_normal(16)) for _ in range(4)])
        assert np.array_equal(
            other.cluster_product_batched(vs), ref.cluster_product_batched(vs)
        )

    def test_unwrap_inverts_wrap_to_rounding(self):
        b, _ = bound_backend("numpy")
        g, v = _rng_ops()
        np.testing.assert_allclose(b.unwrap(b.wrap(g, v), v), g, rtol=1e-10)

    @pytest.mark.parametrize("name", IDENTITY_BACKENDS)
    def test_scalings_bit_identical(self, name):
        b = get_backend(name)
        ref = NumpyBackend()
        g, v = _rng_ops()
        assert np.array_equal(b.scale_rows(g, v), ref.scale_rows(g, v))
        assert np.array_equal(b.scale_columns(g, v), ref.scale_columns(g, v))
        assert np.array_equal(
            b.scale_two_sided(g, v), ref.scale_two_sided(g, v)
        )

    @pytest.mark.parametrize("name", IDENTITY_BACKENDS)
    def test_prepivot_permutation_identical(self, name):
        """4x4 lattice (n=16) is below the threaded grain, so even the
        reassociating norm reduction is single-chunk → bit-identical."""
        b = get_backend(name)
        g, _ = _rng_ops()
        assert np.array_equal(
            b.prepivot_permutation(g), NumpyBackend().prepivot_permutation(g)
        )


class TestGemmAccumulate:
    """``gemm(a, b, c=c)`` is ``c += a @ b`` in place, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", IDENTITY_BACKENDS)
    def test_equals_c_plus_product(self, name, dtype):
        rng = np.random.default_rng(9)
        n, m = 48, 7
        ut = rng.standard_normal((m, n)).astype(dtype)  # a = ut.T is a view
        w = rng.standard_normal((m, n)).astype(dtype)
        c = rng.standard_normal((n, n)).astype(dtype)
        expected = c + ut.T @ w
        b = get_backend(name)
        assert b.gemm(ut.T, w, category="delayed_update", c=c) is c
        assert np.array_equal(c, expected)
        assert b.op_counts["gemm"] == 1

    @pytest.mark.parametrize("name", IDENTITY_BACKENDS)
    def test_non_contiguous_or_mismatched_c_raises(self, name):
        b = get_backend(name)
        a = np.ones((8, 3))
        bb = np.ones((3, 8))
        wide = np.zeros((8, 16))
        with pytest.raises(BackendError, match="C-contiguous"):
            b.gemm(a, bb, c=wide[:, ::2])
        with pytest.raises(BackendError, match="C-contiguous"):
            b.gemm(a, bb, c=np.zeros((8, 8)).T)
        with pytest.raises(BackendError, match="dtype"):
            b.gemm(a, bb, c=np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(BackendError):
            b.gemm(a, bb, c=np.zeros((8, 4)))
        assert not wide.any()


# ---------------------------------------------------------------------------
# one kernel per op: a sector stack is 0 ULP from its sectors one by one
# ---------------------------------------------------------------------------

#: the propagator kernels; each takes a leading sector axis
KERNELS = (
    "wrap_batched", "unwrap_batched", "cluster_product_batched", "apply_structured",
)
BACKEND_CLASSES = (NumpyBackend, ThreadedBackend, SimulatedGPUBackend)
#: every kernel on every kinetic path it has (the dense torus has no
#: structured operator to apply)
OP_KINETIC = [
    (op, kinetic)
    for op in KERNELS
    for kinetic in ("dense", "exact", "checkerboard")
    if (op, kinetic) != ("apply_structured", "dense")
]


def kinetic_factory(kinetic):
    """``dense``: the torus as a ``GeneralLattice`` (the dense GEMM path);
    ``exact`` / ``checkerboard``: the rectangle's structured operator."""
    if kinetic == "dense":
        lattice = dense_twin(SquareLattice(4, 4))
        return BMatrixFactory(HubbardModel(lattice, u=4.0, beta=2.0, n_slices=16))
    return BMatrixFactory(model_4x4(), kinetic=kinetic)


class TestStackedKernels:
    @pytest.mark.parametrize("precision", ["full64", "mixed"])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("name", IDENTITY_BACKENDS)
    @pytest.mark.parametrize("op, kinetic", OP_KINETIC)
    def test_stack_equals_each_sector(self, op, kinetic, name, s, precision):
        """``(S, N, N)`` in, ``(S, N, N)`` out, and sector i of the result
        is the same kernel run on the ``(N, N)`` sector i, bit for bit
        (for the cluster product: on the ``(k, N)`` diagonals of i)."""
        b = get_backend(name, precision=precision).bind(kinetic_factory(kinetic))
        rng = np.random.default_rng(7)
        if op == "cluster_product_batched":
            operands = (np.exp(rng.standard_normal((s, 4, 16))),)
        elif op == "apply_structured":
            operands = (rng.standard_normal((s, 16, 16)),)
        else:
            operands = (
                rng.standard_normal((s, 16, 16)),
                np.exp(rng.standard_normal((s, 16))),
            )
        kernel = getattr(b, op)
        stacked = kernel(*(a.copy() for a in operands))
        assert stacked.shape == (s, 16, 16)
        assert stacked.dtype == b.policy.compute_dtype
        for i in range(s):
            single = kernel(*(a[i] for a in operands))
            assert single.shape == (16, 16)
            assert np.array_equal(stacked[i], single), f"sector {i} differs"

    def test_unwrap_round_trips_wrap_on_a_stack(self):
        b, _ = bound_backend("numpy")
        rng = np.random.default_rng(10)
        gs = rng.standard_normal((2, 16, 16))
        vs = np.exp(rng.standard_normal((2, 16)))
        np.testing.assert_allclose(
            b.unwrap_batched(b.wrap_batched(gs, vs), vs), gs, rtol=1e-10
        )

    @pytest.mark.parametrize("cls", BACKEND_CLASSES, ids=lambda c: c.name)
    def test_traced_names_are_aliases_of_the_kernels(self, cls):
        """``wrap`` / ``unwrap`` stay bound for the benchmark tracer, as
        the wrap kernels themselves: no second body to keep equal."""
        assert cls.wrap is cls.wrap_batched
        assert cls.unwrap is cls.unwrap_batched
        for gone in ("cluster_product", "apply_structured_batched"):
            assert not hasattr(cls, gone), gone


class TestBatchedOpsZeroULP:
    @pytest.mark.parametrize("name", IDENTITY_BACKENDS)
    def test_cluster_product_batched_matches_loop(self, name):
        """A stack of cluster diagonals gives, sector by sector, the bits
        of the same kernel looped over the sectors."""
        b, factory = bound_backend(name)
        rng = np.random.default_rng(9)
        v_stack = np.exp(rng.standard_normal((2, 4, 16)))
        batched = b.cluster_product_batched(v_stack)
        want = np.stack([b.cluster_product_batched(v) for v in v_stack])
        assert np.array_equal(batched, want)


# ---------------------------------------------------------------------------
# the headline contract: one seeded run, identical bits out of every backend
# ---------------------------------------------------------------------------


def run_backend(name, seed=42):
    sim = Simulation(
        model_4x4(), seed=seed, cluster_size=4, backend=name
    )
    res = sim.run(warmup_sweeps=2, measurement_sweeps=4)
    g_up = sim.engine.greens_at_slice(1, 3)
    g_dn = sim.engine.greens_at_slice(-1, 3)
    return {
        "h": sim.field.h.copy(),
        "g_up": g_up,
        "g_dn": g_dn,
        "sign": sim.engine.configuration_sign(),
        "density": res.observables["density"].mean,
        "double_occ": res.observables["double_occupancy"].mean,
        "kinetic": res.observables["kinetic_energy"].mean,
    }


class TestEndToEndBitIdentity:
    """Seeded 4x4 beta=2 run: every backend in the identity class must
    produce the same Markov chain, Green's functions, sign, and
    observables down to the last bit."""

    @pytest.fixture(scope="class")
    def reference(self):
        return run_backend("numpy")

    @pytest.mark.parametrize("name", ("threaded", "gpu-sim"))
    def test_identical_run(self, name, reference):
        got = run_backend(name)
        np.testing.assert_array_equal(got["h"], reference["h"])
        assert np.array_equal(got["g_up"], reference["g_up"])
        assert np.array_equal(got["g_dn"], reference["g_dn"])
        assert got["sign"] == reference["sign"]
        assert got["density"] == reference["density"]
        assert got["double_occ"] == reference["double_occ"]
        assert got["kinetic"] == reference["kinetic"]

    def test_gpu_sim_device_clock_advances(self):
        sim = Simulation(
            model_4x4(), seed=1, cluster_size=4, backend="gpu-sim"
        )
        sim.warmup(1)
        assert sim.engine.device.elapsed > 0.0
        assert sim.engine.device.kernel_launches > 0


# ---------------------------------------------------------------------------
# engine integration + telemetry
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_backend_stats_have_dispatch_counts(self):
        sim = Simulation(model_4x4(), seed=2, cluster_size=4, backend="numpy")
        sim.warmup(1)
        stats = sim.engine.backend.stats()
        assert stats.get("backend.active.numpy") == 1.0
        assert stats.get("backend.dispatch.wrap_batched", 0.0) > 0
        assert stats.get("backend.dispatch.gemm", 0.0) > 0

    def test_batched_dual_spin_prefetch(self):
        sim = Simulation(model_4x4(), seed=2, cluster_size=4, backend="numpy")
        sim.warmup(1)
        cache = sim.engine.cache
        assert cache.batched_builds > 0
        # every miss pair was served by one batched build
        assert cache.stats()["cluster_cache.batched_builds"] == float(
            cache.batched_builds
        )

    def test_device_property_raises_on_cpu_backend(self):
        sim = Simulation(model_4x4(), seed=0, cluster_size=4, backend="numpy")
        with pytest.raises(AttributeError, match="no device"):
            sim.engine.device

