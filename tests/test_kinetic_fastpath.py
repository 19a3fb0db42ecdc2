"""Integration tests for the structured (separable) kinetic fast path.

The propagators' unit behaviour lives in
``test_hamiltonian_checkerboard.py``; this file covers the *pipeline*:
the factory's kinetic modes (exact Kronecker blocks and the checkerboard
split both ride the structured path on a rectangle; only lattices with
no such structure keep the dense GEMM), the backend ``apply_structured``
protocol, cross-backend equivalence under the fast path, the
Trotter-error property the checkerboard mode trades on, and end-to-end
observable parity between the two kinetic modes.
"""

import numpy as np
import pytest

from repro import (
    BMatrixFactory,
    HSField,
    HubbardModel,
    Simulation,
    SquareLattice,
    free_greens_function,
)
from repro.backends import get_backend
from repro.core import GreensFunctionEngine
from repro.gpu.kernels import structured_apply_kernel
from repro.gpu.perfmodel import TESLA_C2050
from repro.hamiltonian import (
    CheckerboardError,
    CheckerboardPropagator,
    KINETIC_MODES,
    KineticPropagator,
    SeparablePropagator,
    bond_groups,
)
from repro.lattice import GeneralLattice, MultilayerLattice
from tests.helpers import dense_twin

STRUCTURED_BACKENDS = ("numpy", "threaded", "gpu-sim")


def model_4x4(beta=2.0, n_slices=16, u=4.0, mu=0.0):
    return HubbardModel(
        SquareLattice(4, 4), u=u, beta=beta, n_slices=n_slices, mu=mu
    )


def dense_factories():
    """Exact-mode factories on lattices with no separable structure."""
    torus = dense_twin(SquareLattice(4, 4))
    return [
        BMatrixFactory(HubbardModel(lat, u=4.0, beta=2.0, n_slices=16))
        for lat in (torus, MultilayerLattice(2, 2, 4))
    ]


def factories(model=None):
    model = model if model is not None else model_4x4()
    return (
        BMatrixFactory(model, kinetic="exact"),
        BMatrixFactory(model, kinetic="checkerboard"),
    )


# ---------------------------------------------------------------------------
# mode resolution + typed failures
# ---------------------------------------------------------------------------


class TestKineticModes:
    def test_catalogue(self):
        assert KINETIC_MODES == ("exact", "checkerboard")

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kinetic mode"):
            BMatrixFactory(model_4x4(), kinetic="trotterize-harder")

    def test_factory_default_is_exact(self, monkeypatch):
        monkeypatch.delenv("REPRO_KINETIC", raising=False)
        factory = BMatrixFactory(model_4x4())
        assert factory.kinetic_mode == "exact"
        # on a rectangle exact means the exact Kronecker blocks ...
        assert type(factory.kinetic) is SeparablePropagator
        # ... and the dense exponential only where no such structure exists
        for dense in dense_factories():
            assert dense.kinetic_mode == "exact"
            assert type(dense.kinetic) is KineticPropagator

    def test_multilayer_lattice_raises_typed_error(self):
        lat = MultilayerLattice(4, 4, 2)
        with pytest.raises(CheckerboardError):
            bond_groups(lat)
        model = HubbardModel(lat, u=2.0, beta=1.0, n_slices=8)
        with pytest.raises(CheckerboardError):
            BMatrixFactory(model, kinetic="checkerboard")

    def test_general_lattice_raises_typed_error(self):
        lat = GeneralLattice(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
        with pytest.raises(CheckerboardError):
            bond_groups(lat)

    def test_checkerboard_error_is_value_error(self):
        # The CLI's one-line error report catches ValueError; the typed
        # error must stay inside that net.
        assert issubclass(CheckerboardError, ValueError)


# ---------------------------------------------------------------------------
# group invariants
# ---------------------------------------------------------------------------


class TestGroupInvariants:
    @pytest.mark.parametrize(
        "shape", [(4, 4), (6, 4), (5, 5), (5, 3), (2, 2), (8, 1), (16, 16)]
    )
    def test_groups_disjoint_and_exact_cover(self, shape):
        """Within each group no site appears twice (the rotations
        commute), and across all groups every lattice bond appears
        exactly once (the split loses no hopping)."""
        lat = SquareLattice(*shape)
        seen = {}
        for gi, group in enumerate(bond_groups(lat)):
            sites = [s for bond in group for s in bond]
            assert len(sites) == len(set(sites)), (shape, gi)
            for i, j in group:
                key = frozenset((i, j))
                seen[key] = seen.get(key, 0) + 1
        adj = lat.adjacency
        n = lat.n_sites
        for i in range(n):
            for j in range(i + 1, n):
                if adj[i, j] > 0:
                    assert seen.get(frozenset((i, j))) == 1, (shape, i, j)
        assert len(seen) == sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if adj[i, j] > 0
        )


# ---------------------------------------------------------------------------
# Trotter-error property: the constant shrinks 4x when dtau halves
# ---------------------------------------------------------------------------


class TestSplittingErrorScaling:
    @pytest.mark.parametrize("shape", [(6, 6), (6, 4), (5, 5)])
    def test_error_constant_shrinks_4x_per_halving(self, shape):
        """|| B_cb - B_exact || = C * dtau^2 + O(dtau^3): halving dtau
        must shrink the measured error by ~4x (we accept [3, 5] to
        leave room for the cubic term at the coarse end)."""
        lat = SquareLattice(*shape)
        dtaus = (0.2, 0.1, 0.05)
        errs = [
            CheckerboardPropagator(lat, t=1.0, dtau=d).splitting_error()
            for d in dtaus
        ]
        for coarse, fine in zip(errs, errs[1:]):
            ratio = coarse / fine
            assert 3.0 < ratio < 5.0, (shape, errs)

    def test_error_constant_is_dtau_free(self):
        """The same statement as a collapsed constant: C = err / dtau^2
        is flat across dtau to ~25%."""
        lat = SquareLattice(6, 6)
        consts = [
            CheckerboardPropagator(lat, t=1.0, dtau=d).splitting_error() / d**2
            for d in (0.2, 0.1, 0.05)
        ]
        assert max(consts) / min(consts) < 1.25


# ---------------------------------------------------------------------------
# factory routing
# ---------------------------------------------------------------------------


class TestFactoryRouting:
    def test_exact_mode_bit_identical_to_legacy(self, rng):
        """kinetic='exact' must be byte-for-byte the default pipeline."""
        model = model_4x4()
        legacy = BMatrixFactory(model)
        exact = BMatrixFactory(model, kinetic="exact")
        assert np.array_equal(legacy.expk, exact.expk)
        assert np.array_equal(legacy.inv_expk, exact.inv_expk)
        a = rng.standard_normal((model.n_sites, 5))
        assert np.array_equal(
            legacy.apply_expk_left(a), exact.apply_expk_left(a)
        )

    def test_checkerboard_expk_is_structured_product(self):
        exact, cb = factories()
        np.testing.assert_allclose(
            cb.expk, cb.kinetic.as_matrix(), atol=0.0
        )
        # ... and close to (but not equal to) the dense exponential.
        assert not np.array_equal(cb.expk, exact.expk)
        assert (
            np.linalg.norm(cb.expk - exact.expk)
            / np.linalg.norm(exact.expk)
            < 0.05
        )

    @pytest.mark.parametrize("inverse", [False, True])
    def test_apply_expk_left_matches_dense(self, rng, inverse):
        _, cb = factories()
        a = rng.standard_normal((16, 7))
        dense = cb.inv_expk if inverse else cb.expk
        np.testing.assert_allclose(
            cb.apply_expk_left(a, inverse=inverse), dense @ a, atol=1e-13
        )

    @pytest.mark.parametrize("inverse", [False, True])
    def test_apply_expk_right_matches_dense(self, rng, inverse):
        _, cb = factories()
        a = rng.standard_normal((7, 16))
        dense = cb.inv_expk if inverse else cb.expk
        np.testing.assert_allclose(
            cb.apply_expk_right(a, inverse=inverse), a @ dense, atol=1e-13
        )

    def test_inverse_round_trip(self, rng):
        _, cb = factories()
        a = rng.standard_normal((16, 16))
        out = cb.apply_expk_left(cb.apply_expk_left(a), inverse=True)
        np.testing.assert_allclose(out, a, atol=1e-12)

    def test_b_matrix_definition_under_checkerboard(self, rng):
        """B_l = diag(v) * B_cb exactly, in either mode's own algebra."""
        model = model_4x4()
        cb = BMatrixFactory(model, kinetic="checkerboard")
        field = HSField.random(model.n_slices, model.n_sites, rng)
        b = cb.b_matrix(field, 0, +1)
        v = field.v_diagonal(0, +1, cb.nu)
        np.testing.assert_allclose(
            b, v[:, None] * cb.kinetic.as_matrix(), atol=1e-13
        )

    def test_mu_enters_structured_propagator(self, rng):
        model = model_4x4(mu=0.3)
        cb = BMatrixFactory(model, kinetic="checkerboard")
        a = rng.standard_normal((16, 3))
        base = CheckerboardPropagator(model.lattice, t=model.t, dtau=model.dtau)
        np.testing.assert_allclose(
            cb.apply_expk_left(a),
            np.exp(model.dtau * 0.3) * base.apply_expk_left(a),
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# backend protocol
# ---------------------------------------------------------------------------


class TestBackendStructuredOps:
    @pytest.mark.parametrize("name", STRUCTURED_BACKENDS)
    def test_apply_structured_matches_numpy(self, name, rng):
        a = rng.standard_normal((16, 16))
        for factory in factories():
            ref = get_backend("numpy").bind(factory)
            other = get_backend(name).bind(factory)
            for side in ("left", "right"):
                for inverse in (False, True):
                    assert np.array_equal(
                        other.apply_structured(a, side=side, inverse=inverse),
                        ref.apply_structured(a, side=side, inverse=inverse),
                    ), (factory.kinetic_mode, name, side, inverse)

    @pytest.mark.parametrize("name", STRUCTURED_BACKENDS)
    def test_apply_structured_on_dense_k(self, name, rng):
        """Without separable structure the bound operator is the dense
        exponential: the application is one GEMM against it."""
        a = rng.standard_normal((16, 16))
        for dense in dense_factories():
            backend = get_backend(name).bind(dense)
            for inverse in (False, True):
                b = dense.inv_expk if inverse else dense.expk
                assert np.array_equal(backend.apply_structured(a, inverse=inverse), b @ a)
                assert np.array_equal(
                    backend.apply_structured(a, side="right", inverse=inverse), a @ b
                )

    def test_apply_structured_counts_dispatch(self, rng):
        _, cb = factories()
        backend = get_backend("numpy").bind(cb)
        backend.apply_structured(rng.standard_normal((16, 4)))
        assert backend.stats()["backend.dispatch.apply_structured"] == 1.0

    def test_apply_structured_records_flops(self, rng):
        from repro.linalg import flops

        _, cb = factories()
        backend = get_backend("numpy").bind(cb)
        a = rng.standard_normal((16, 16))
        with flops.tally() as t:
            backend.apply_structured(a, category="structured")
        assert t.flops.get("structured", 0) >= cb.kinetic.apply_flops(16)

    @pytest.mark.parametrize("name", STRUCTURED_BACKENDS)
    def test_wrap_matches_exact_mode_to_splitting_error(self, name, rng):
        """Under checkerboard the wrap is the same transform with the
        structured propagator; on 4x4 the split is exact (commuting
        groups), so wraps agree to rounding across kinetic modes."""
        exact, cb = factories()
        b_exact = get_backend(name).bind(exact)
        b_cb = get_backend(name).bind(cb)
        g = rng.standard_normal((16, 16))
        v = np.exp(rng.standard_normal(16))
        np.testing.assert_allclose(
            b_cb.wrap(g, v), b_exact.wrap(g, v), atol=1e-11
        )

    @pytest.mark.parametrize("name", STRUCTURED_BACKENDS)
    def test_unwrap_inverts_wrap_under_checkerboard(self, name, rng):
        _, cb = factories()
        backend = get_backend(name).bind(cb)
        g = rng.standard_normal((16, 16))
        v = np.exp(rng.standard_normal(16))
        np.testing.assert_allclose(
            backend.unwrap(backend.wrap(g, v), v), g, atol=1e-11
        )

    @pytest.mark.parametrize("name", STRUCTURED_BACKENDS)
    def test_cluster_product_matches_structured_reference(self, name, rng):
        _, cb = factories()
        backend = get_backend(name).bind(cb)
        vs = np.array([np.exp(rng.standard_normal(16)) for _ in range(4)])
        expect = cb.kinetic.as_matrix() * vs[0][:, None]
        for v in vs[1:]:
            expect = cb.kinetic.apply_expk_left(expect) * v[:, None]
        np.testing.assert_allclose(
            backend.cluster_product_batched(vs), expect, atol=1e-12
        )

    @pytest.mark.parametrize("name", STRUCTURED_BACKENDS)
    def test_batched_ops_match_loop(self, name, rng):
        """On both kinetic modes a stack through wrap and through the
        structured application (tall ``(N, k)`` sectors too) is the loop
        over its sectors, bit for bit."""
        gs = rng.standard_normal((2, 16, 16))
        vs = np.exp(rng.standard_normal((2, 16)))
        stack = rng.standard_normal((2, 16, 5))
        for factory in factories():
            backend = get_backend(name).bind(factory)
            want = np.stack([backend.wrap_batched(g, v) for g, v in zip(gs, vs)])
            assert np.array_equal(backend.wrap_batched(gs, vs), want)
            want = np.stack([backend.apply_structured(a) for a in stack])
            assert np.array_equal(backend.apply_structured(stack), want)

    def test_gpu_sim_launches_checkerboard_kernels(self, rng):
        _, cb = factories()
        backend = get_backend("gpu-sim").bind(cb)
        before = backend.device.kernel_launches
        clock = backend.device.elapsed
        backend.wrap(rng.standard_normal((16, 16)), np.exp(rng.standard_normal(16)))
        assert backend.device.kernel_launches > before
        assert backend.device.elapsed > clock


# ---------------------------------------------------------------------------
# exact mode on a rectangle: Kronecker blocks through the structured path
# ---------------------------------------------------------------------------


class TestExactSeparablePipeline:
    @pytest.mark.parametrize("name", STRUCTURED_BACKENDS)
    def test_ops_match_the_dense_gemm_path(self, name, rng):
        """Wrap, unwrap and cluster product on the 4x4 rectangle agree
        with the same ops on its ``GeneralLattice`` twin (dense GEMMs),
        and are bit-identical to numpy's on every backend."""
        exact, _ = factories()
        dense = get_backend(name).bind(dense_factories()[0])
        backend = get_backend(name).bind(exact)
        ref = get_backend("numpy").bind(exact)
        g = rng.standard_normal((16, 16))
        vs = np.array([np.exp(rng.standard_normal(16)) for _ in range(4)])
        for op, args in (
            ("wrap", (g, vs[0])),
            ("unwrap", (g, vs[0])),
            ("cluster_product_batched", (vs,)),
        ):
            got = getattr(backend, op)(*args)
            assert np.array_equal(got, getattr(ref, op)(*args)), (name, op)
            np.testing.assert_allclose(got, getattr(dense, op)(*args), atol=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_free_fermions_at_every_boundary_of_a_rectangle(self, mu):
        """U = 0 on 6x4: every boundary G from the Kronecker-factor
        pipeline is the analytic free Green's function to 1e-12."""
        model = HubbardModel(
            SquareLattice(6, 4), u=0.0, beta=4.0, n_slices=40, mu=mu
        )
        rng = np.random.default_rng(5)
        field = HSField.random(model.n_slices, model.n_sites, rng)
        eng = GreensFunctionEngine(
            BMatrixFactory(model, kinetic="exact"), field, cluster_size=10
        )
        assert eng.backend.kinetic is eng.factory.kinetic
        exact = free_greens_function(model.kinetic_matrix(), model.beta)
        for c in range(eng.n_clusters):
            for sigma in (1, -1):
                g = eng.boundary_greens(sigma, c)
                assert np.max(np.abs(g - exact)) < 1e-12, (sigma, c)

    @pytest.mark.parametrize("shape, mu", [((4, 4), 0.0), ((6, 3), 0.3)])
    def test_gpu_sim_charges_two_gemm_launches_per_application(self, shape, mu, rng):
        """One exact-mode blocked application of a device-resident matrix,
        as the operator reports it: two batched small-GEMM launches
        through ``time_gemm`` (plus a diagonal pass when mu folds in)."""
        lx, ly = shape
        n = lx * ly
        model = HubbardModel(SquareLattice(lx, ly), u=4.0, beta=2.0, n_slices=16, mu=mu)
        backend = get_backend("gpu-sim").bind(BMatrixFactory(model, kinetic="exact"))
        dev, m = backend.device, TESLA_C2050
        apply_s = [m.time_gemm(lx, ly * n, lx), m.time_gemm(ly, lx * n, ly)]
        if mu:
            apply_s.append(m.time_bandwidth_kernel(2 * 8 * n * n))
        assert backend.kinetic.device_pass_seconds(m, n, np.float64) == apply_s
        a = rng.standard_normal((n, n))
        da = dev.set_matrix(a)
        launches, clock = dev.kernel_launches, dev.elapsed
        structured_apply_kernel(dev, backend.kinetic, da)
        assert dev.kernel_launches - launches == len(apply_s)
        assert dev.elapsed - clock == pytest.approx(sum(apply_s), rel=1e-12)
        assert np.array_equal(dev.get_matrix(da), backend.kinetic.apply_expk_left(a))
        # the checkerboard operator reports one rotation pass per bond group
        cb = BMatrixFactory(model, kinetic="checkerboard").kinetic
        assert cb.device_pass_seconds(m, n, np.float64)[: len(cb.groups)] == [
            m.time_checkerboard_pass(len(g), n, 8) for g in cb.groups
        ]

    @pytest.mark.parametrize(
        "shape, kinetic, blocked",
        [((4, 4), "exact", False), ((20, 20), "exact", True), ((4, 4), "checkerboard", True)],
    )
    def test_gpu_sim_wrap_is_charged_the_cheaper_launch_plan(self, shape, kinetic, blocked, rng):
        """The ops fix the launch plan of an N x N kinetic application at
        bind time: the operator's passes, or the one resident-exponential
        GEMM where the device model prices that lower (exact blocks below
        N ~ 370 on the C2050). The result is the blocked spelling's —
        bit-identical to numpy — under either plan."""
        lx, ly = shape
        n = lx * ly
        model = HubbardModel(SquareLattice(lx, ly), u=4.0, beta=2.0, n_slices=16, mu=0.3)
        factory = BMatrixFactory(model, kinetic=kinetic)
        backend = get_backend("gpu-sim").bind(factory)
        dev, m = backend.device, TESLA_C2050
        passes = factory.kinetic.device_pass_seconds(m, n, np.float64)
        gemm = m.time_gemm(n, n, n)
        assert (sum(passes) < gemm) is blocked
        plan = passes if blocked else [gemm]
        g, v = rng.standard_normal((n, n)), np.exp(rng.standard_normal(n))
        launches, clock = dev.kernel_launches, dev.elapsed
        got = backend.wrap(g, v)
        want_s = (
            2 * m.time_transfer(8 * n * n) + m.time_transfer(8 * n)
            + 2 * sum(plan)
            + m.time_bandwidth_kernel(2 * 8 * n * n + 2 * 8 * n)
        )
        assert dev.kernel_launches - launches == 2 * len(plan) + 1
        assert dev.elapsed - clock == pytest.approx(want_s, rel=1e-12)
        assert np.array_equal(got, get_backend("numpy").bind(factory).wrap(g, v))


# ---------------------------------------------------------------------------
# the kinetic mode is chosen at construction (there is no live switch)
# ---------------------------------------------------------------------------


class TestKineticSwitching:
    def test_constructor_kinetic(self):
        sim = Simulation(
            model_4x4(n_slices=8), seed=3, cluster_size=4,
            kinetic="checkerboard",
        )
        assert sim.options.kinetic == "checkerboard"
        assert sim.factory.kinetic_mode == "checkerboard"
        assert sim.engine.backend.kinetic is sim.factory.kinetic


# ---------------------------------------------------------------------------
# end-to-end observable parity (same seed, both modes)
# ---------------------------------------------------------------------------


class TestObservableParity:
    def test_4x4_beta2_same_seed_parity(self):
        """On 4x4 the checkerboard split is exact in the one-body
        sector, so a same-seed beta = 2 run must reproduce the exact
        mode's observables within (tight) statistical error — this
        exercises every structured pipeline branch end to end."""
        results = {}
        for mode in KINETIC_MODES:
            sim = Simulation(
                model_4x4(beta=2.0, n_slices=16),
                seed=42,
                cluster_size=4,
                kinetic=mode,
            )
            results[mode] = sim.run(warmup_sweeps=5, measurement_sweeps=15)
        for name in ("density", "double_occupancy", "kinetic_energy"):
            a = results["exact"].observables[name]
            b = results["checkerboard"].observables[name]
            err = max(float(a.error), float(b.error), 1e-12)
            assert abs(float(a.mean) - float(b.mean)) < 5.0 * err, name
