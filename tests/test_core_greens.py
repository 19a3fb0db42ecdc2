"""Unit tests for the Green's function engine."""

import numpy as np
import pytest

from repro import (
    BMatrixFactory,
    HSField,
    HubbardModel,
    SquareLattice,
    free_greens_function,
)
from repro.core import GreensFunctionEngine, stratified_inverse
from repro.dqmc import sweep
from repro.profiling import PhaseProfiler
from tests.helpers import brute_greens, relerr
from tests.oracles.stratifier import oracle_decomposition


class TestBoundaryGreens:
    def test_boundary_zero_matches_brute_force(self, engine4x4, factory4x4, field4x4):
        for sigma in (1, -1):
            g = engine4x4.boundary_greens(sigma, 0)
            expected = brute_greens(factory4x4, field4x4, sigma)
            assert relerr(g, expected) < 1e-9

    def test_boundary_rotation_matches_direct(self, factory4x4, field4x4):
        """Boundary c's G must equal the slice-level direct evaluation
        with rightmost slice c*k."""
        eng = GreensFunctionEngine(factory4x4, field4x4, cluster_size=5)
        k = eng.cluster_size
        for c in (1, 2, 3):
            g = eng.boundary_greens(1, c)
            # direct G with rightmost factor = slice c*k, i.e. G_{c*k - 1}
            direct = eng.greens_at_slice_direct(1, c * k - 1)
            assert relerr(g, direct) < 1e-9

    def test_methods_agree(self, factory4x4, field4x4):
        gs = {}
        for method in ("qrp", "prepivot"):
            eng = GreensFunctionEngine(
                factory4x4, field4x4, method=method, cluster_size=10
            )
            gs[method] = eng.boundary_greens(1, 0)
        assert relerr(gs["prepivot"], gs["qrp"]) < 1e-11

    def test_stats_updated(self, engine4x4):
        engine4x4.boundary_greens(1, 0)
        assert engine4x4.last_stats.n_factors == engine4x4.n_clusters


    def test_out_of_range_cluster_raises(self, engine4x4):
        for c in (-1, engine4x4.n_clusters + 1):
            with pytest.raises(IndexError):
                engine4x4.boundary_greens(1, c)

    def test_index_nc_is_boundary_zero(self, engine4x4):
        """Index ``nc`` is the prefix ``R_nc`` alone, index 0 the suffix
        ``S_nc`` alone: one G, each rounded as its own side rounds it."""
        nc = engine4x4.n_clusters
        for sigma in (1, -1):
            g0 = engine4x4.boundary_greens(sigma, 0)
            gnc = engine4x4.boundary_greens(sigma, nc)
            assert engine4x4.last_stats.n_factors == nc  # the other side
            assert relerr(gnc, g0) < 1e-12


def make_engine(lx=4, u=4.0, beta=2.0, k=5, seed=5, kinetic="exact", mu=0.0,
                **options):
    """At the default ``mu = 0`` the engine evaluates the spin-up sector
    alone (the down one is its particle-hole image); a doped copy
    (``mu != 0``) evaluates both."""
    model = HubbardModel(
        SquareLattice(lx, lx), u=u, beta=beta, n_slices=int(round(10 * beta)),
        mu=mu,
    )
    rng = np.random.default_rng(seed)
    field = HSField.random(model.n_slices, model.n_sites, rng)
    factory = BMatrixFactory(model, kinetic=kinetic)
    return GreensFunctionEngine(factory, field, cluster_size=k, **options), rng


def counting_pushes(engine):
    """Shadow ``boundary_greens`` the way the e2e tracer does; returns the
    per-spin totals of ``last_stats.n_factors``, filled as calls happen."""
    pushes = {1: 0, -1: 0}
    inner = engine.boundary_greens

    def counted(sigma, c=0, **kwargs):
        g = inner(sigma, c, **kwargs)
        pushes[sigma] += engine.last_stats.n_factors
        return g

    engine.boundary_greens = counted
    return pushes


class TestHistoryIndependence:
    """``boundary_greens`` is a pure function of (field, options, c) for
    every index ``c`` in ``0 .. nc``: the kept partial decompositions
    change how many pushes a call performs, never a bit of what it
    returns."""

    OPTIONS = dict(precision="full64", kinetic="exact")

    def assert_like_fresh(self, eng, **options):
        opts = {**self.OPTIONS, "backend": eng.backend.name, **options}
        fresh = GreensFunctionEngine(
            BMatrixFactory(eng.factory.model, kinetic=opts.pop("kinetic")),
            HSField(eng.field.h.copy()),
            cluster_size=eng.cluster_size,
            **opts,
        )
        for c in range(eng.n_clusters + 1):
            for sigma in (1, -1):
                # every c served cold on the reference engine
                fresh.invalidate_all()
                assert np.array_equal(
                    eng.boundary_greens(sigma, c), fresh.boundary_greens(sigma, c)
                ), (sigma, c)

    @pytest.mark.parametrize("backend", ["numpy", "threaded", "gpu-sim"])
    def test_flips_between_calls_at_random_boundaries(self, backend):
        eng, rng = make_engine(backend=backend, **self.OPTIONS)
        for _ in range(6):
            for _ in range(int(rng.integers(1, 6))):
                eng.boundary_greens(
                    int(rng.choice((1, -1))),
                    int(rng.integers(eng.n_clusters + 1)),
                )
            for _ in range(int(rng.integers(1, 4))):
                l = int(rng.integers(eng.field.n_slices))
                eng.field.flip(l, int(rng.integers(eng.n)))
                eng.invalidate_slice(l)
            self.assert_like_fresh(eng)

    @pytest.mark.parametrize("backend", ["numpy", "threaded", "gpu-sim"])
    def test_every_drop_entry_point(self, backend):
        eng, rng = make_engine(backend=backend, **self.OPTIONS)

        def warm():
            for c in rng.permutation(eng.n_clusters + 1):
                eng.boundary_greens(1, int(c))
                eng.boundary_greens(-1, int(c))
            assert eng.n_kept(1) and eng.n_kept(-1)

        warm()
        eng.field.h[:, 3] *= -1.0  # a global move's proposal
        eng.invalidate_all()
        assert eng.n_kept(1) == eng.n_kept(-1) == 0
        self.assert_like_fresh(eng)

        warm()
        for j in range(eng.n_clusters):  # a reader that releases products
            eng.cache.take(1, j)
        self.assert_like_fresh(eng)

        warm()
        assert eng.set_precision("mixed")
        assert eng.n_kept(1) == eng.n_kept(-1) == 0
        self.assert_like_fresh(eng, precision="mixed")

        # the kinetic mode is fixed at construction: a checkerboard engine
        # over the same field, built fresh, serves its kept partials too
        eng = GreensFunctionEngine(
            BMatrixFactory(eng.factory.model, kinetic="checkerboard"),
            HSField(eng.field.h.copy()),
            cluster_size=eng.cluster_size,
            backend=backend,
            precision="mixed",
        )
        warm()
        self.assert_like_fresh(eng, precision="mixed", kinetic="checkerboard")

    def test_sweeps_in_both_directions(self):
        """After every sweep of an alternating run, and of the orders a
        direct caller may pick, on every backend; a sweep's flips are
        the slice invalidations."""
        for backend in ("numpy", "threaded", "gpu-sim"):
            eng, rng = make_engine(backend=backend, **self.OPTIONS)
            for direction in (
                "forward", "backward", "forward", "backward", "backward",
                "forward", "forward",
            ):
                sweep(eng, rng, direction=direction)
                self.assert_like_fresh(eng)


class TestAgainstSliceBySliceReference:
    """The two-sided G against ``greens_at_slice_direct`` (one QR step per
    time slice, no clusters, no kept state; within 1e-14 of a 120-digit
    evaluation at U = 8, beta = 16) at every boundary of real sweeps,
    judged against what one full cluster chain achieves there."""

    @pytest.mark.parametrize("u, beta, mu", [
        pytest.param(u, beta, mu, id=f"{u}-{beta}" + (f"-mu{mu}" if mu else ""))
        for mu in (0.0, -0.5) for u in (4.0, 8.0) for beta in (4.0, 8.0, 16.0)
    ])
    def test_no_worse_than_the_full_chain(self, u, beta, mu):
        """Both evaluations sit on the same floor, eps x the conditioning
        of a k = 10 cluster product, and scatter around it by a factor
        of ~100 from one boundary to the next, independently of each
        other. So each boundary is held to 10 x the worst full-chain
        error of the run, and the typical boundary to the typical one.
        At half filling the down sector is judged as the image of the up
        one; on the doped copy (``mu = -0.5``) both sectors are evaluated
        independently, and each is held to the same bounds."""
        eng, rng = make_engine(lx=6, u=u, beta=beta, k=10, seed=19, mu=mu)
        assert len(eng.sectors) == (1 if mu == 0.0 else 2)
        k, n_slices = eng.cluster_size, eng.field.n_slices
        ours, full_chain = [], []

        def check(c, gs, sign):
            for sigma in (1, -1):
                direct = eng.greens_at_slice_direct(sigma, (c * k - 1) % n_slices)
                if sigma in gs:
                    g = gs[sigma]
                    full = stratified_inverse(
                        eng.cache.chain(sigma, c), backend=eng.backend
                    )
                else:
                    # at half filling the down sector is the image of the up
                    # one the sweep carries, and so is what a full chain
                    # gives for it: each inherits its up sector's error
                    image = eng.particle_hole.greens
                    g = image(gs[1])
                    full = image(stratified_inverse(
                        eng.cache.chain(1, c), backend=eng.backend
                    ))
                ours.append(relerr(g, direct))
                full_chain.append(relerr(full, direct))

        for direction in ("forward", "forward", "backward", "backward"):
            sweep(eng, rng, direction=direction, on_boundary=check)
        assert len(ours) == 2 * 4 * eng.n_clusters
        assert max(ours) <= max(10 * max(full_chain), 1e-11)
        assert np.median(ours) <= 3 * np.median(full_chain)

    @pytest.mark.parametrize("beta", [4.0, 8.0, 16.0])
    def test_free_fermions_at_every_boundary(self, beta):
        eng, _ = make_engine(lx=6, u=0.0, beta=beta, k=10)
        exact = free_greens_function(eng.factory.model.kinetic_matrix(), beta)
        for c in range(eng.n_clusters):
            for sigma in (1, -1):
                g = eng.boundary_greens(sigma, c)
                assert np.max(np.abs(g - exact)) < 1e-12, (sigma, c)


class TestChainStepsAndKeptState:
    """Complexity and memory are part of the contract: pushes per sweep,
    kept decompositions per spin, cluster products alive next to them."""

    #: second column: what the same call cost when a side kept a running
    #: decomposition and one mid-chain checkpoint (the counts these tests
    #: pinned before the stack) - to be beaten, not matched
    @pytest.mark.parametrize("c, again_before", [(0, 2), (1, 1), (3, 1)])
    def test_cold_call_pushes_every_cluster_once(self, c, again_before):
        eng, _ = make_engine()
        eng.boundary_greens(1, c)
        assert eng.last_stats.n_factors == eng.n_clusters == 4
        # every push is kept, on the side it extended
        assert eng.n_kept(1) == 4
        assert [len(side) for side in eng._partials[1]] == [c, 4 - c]
        eng.boundary_greens(1, c)
        assert eng.last_stats.n_factors == 0 < again_before

    #: second column: pushes per spin of a forward-only sweep before the
    #: suffix stack was kept - to be beaten, not matched
    @pytest.mark.parametrize("beta, pushes_before", [(8.0, 27), (4.0, 9)])
    def test_forward_sweeps(self, beta, pushes_before):
        """Forward after forward (not the driver's order): the suffix
        stack from scratch at boundary 0, then one prefix push per
        boundary. The prefixes the sweep before left are of no use to it,
        and every push takes its product, so each cluster is built once
        per side per sweep: for the spin-up sector alone at half filling,
        for both sectors (one stacked build) on the doped copy."""
        for mu in (0.0, -0.5):
            eng, rng = make_engine(beta=beta, k=10, mu=mu)
            nc = eng.n_clusters
            assert 2 * nc - 1 < pushes_before
            pushes = counting_pushes(eng)
            builds = []
            for n in (1, 2, 3):
                before = eng.cache.batched_builds
                sweep(eng, rng)
                assert pushes[1] == n * (2 * nc - 1)
                assert pushes[-1] == (0 if mu == 0.0 else pushes[1])
                builds.append(eng.cache.batched_builds - before)
            assert builds == [2 * nc - 1] * 3

    def test_live_set_of_a_forward_sweep(self):
        """What is alive at boundary index c of a forward sweep and of the
        backward sweep after it: ``R_1 .. R_c`` and ``S_1 .. S_{nc-c}``,
        nc decompositions in all (one side shrinks as the other grows),
        and no cluster product - every push took its own, and a swept
        cluster's is rebuilt only when a push needs it. Per evaluated
        sector: the up one at half filling, both on the doped copy."""
        for mu in (0.0, -0.5):
            eng, rng = make_engine(beta=8.0, k=10, mu=mu)
            nc = eng.n_clusters
            seen = []
            sweep_boundary = iter(
                list(range(nc)) + [nc] + list(range(nc - 1, 0, -1))
            )

            def on_boundary(c, gs, sign):
                index = next(sweep_boundary)
                assert c == index % nc  # what the measurements see
                for sigma in (1, -1):
                    prefix, suffix = eng._partials[sigma]
                    if sigma in eng.sectors:
                        assert (len(prefix), len(suffix)) == (index, nc - index)
                    else:
                        assert not prefix and not suffix
                assert not eng.cache._cache
                seen.append(index)

            for direction in ("forward", "backward"):
                sweep(eng, rng, direction=direction, on_boundary=on_boundary)
            assert len(seen) == 2 * nc
            # the backward sweep leaves S_1 .. S_{nc-1} for the next boundary 0
            assert eng.n_kept(1) == nc - 1
            assert eng.n_kept(-1) == (0 if mu == 0.0 else nc - 1)

    def test_kept_prefixes_of_a_measurement_sweep(self):
        """A sweep that hands its boundaries' ``G(tau_c, 0)`` to a dynamic
        sample pushes, builds and keeps exactly what a plain sweep does:
        ``R_1 .. R_{nc-1}`` after a forward sweep, ``S_1 .. S_{nc-1}``
        after a backward one, ``2 nc - 1`` pushes on the cold sweep and
        nc on every one after it, where rebuilding the side a sweep did
        not build took ``4 nc - 1`` per two sweeps and samples. Its G's
        and field are bit for bit the plain sweep's."""
        plain, rng_plain = make_engine(beta=8.0, k=10)
        eng, rng = make_engine(beta=8.0, k=10)
        nc = eng.n_clusters
        pushes, plain_pushes = counting_pushes(eng), counting_pushes(plain)
        handed = []
        seen, plain_seen = [], []

        def on_displaced(c, g_tau, sign):
            handed.append(c)

        for direction in ("forward", "backward") * 2:
            sweep(
                eng, rng, direction=direction, on_displaced=on_displaced,
                on_boundary=lambda c, g, s: seen.append(g[1].copy()),
            )
            sweep(
                plain, rng_plain, direction=direction,
                on_boundary=lambda c, g, s: plain_seen.append(g[1].copy()),
            )
            assert pushes == plain_pushes
            assert eng.cache.batched_builds == plain.cache.batched_builds
            assert [len(side) for side in eng._partials[1]] == [
                len(side) for side in plain._partials[1]
            ]
            assert eng.n_kept(1) == nc - 1
        assert pushes[1] == 2 * nc - 1 + 3 * nc
        one_pair = list(range(nc)) + [0] + list(range(nc - 1, 0, -1))
        assert handed == one_pair * 2
        assert all(np.array_equal(a, b) for a, b in zip(seen, plain_seen))
        assert np.array_equal(eng.field.h, plain.field.h)

    def test_alternating_sweeps(self):
        """Pushes per evaluated sector and builds per sweep, at half
        filling (the up sector alone) and on the doped copy (both)."""
        for mu in (0.0, -0.5):
            eng, rng = make_engine(beta=8.0, k=10, mu=mu)
            nc = eng.n_clusters
            pushes = counting_pushes(eng)
            totals, builds = [], []
            for direction in ("forward", "backward", "forward", "backward"):
                before, built = dict(pushes), eng.cache.batched_builds
                sweep(eng, rng, direction=direction)
                totals.append([pushes[s] - before[s] for s in eng.sectors])
                builds.append(eng.cache.batched_builds - built)
            # 64 per spin per sweep for a full chain at every boundary;
            # [27, 28, 24, 28] with one mid-chain checkpoint per side, and
            # [15, 22, 15, 22] when a complete prefix was not kept
            s = len(eng.sectors)
            assert totals == [[2 * nc - 1] * s] + [[nc] * s] * 3
            # one build per cluster per sweep, after it was swept (and all
            # of them on the cold one); [15, 15, 8, 15] before
            assert builds == [2 * nc - 1, nc, nc, nc]

    def test_peak_memory_of_forward_sweeps(self):
        """Traced allocations (numpy's included) over two alternating
        sweeps at N = 64, nc = 8, in units of one N x N float64 matrix.
        The peak is the cold sweep's boundary 1 with both spins built:
        2 x nc decompositions of two matrices each (4 nc), the old and
        the fresh G stack (4), cluster 0's rebuilt products (2), and the
        transients of one push and one join plus the updater's blocks
        (~10 measured, 12 allowed); the products the stacks replaced are
        gone. A second stack would add 4 nc, products held until a build
        returns 6, never released 2 nc. That is the doped copy; at half
        filling one sector is kept and the peak is about half (27.5
        measured, 2 nc + 14 allowed)."""
        import tracemalloc

        nc, unit = 8, 64 * 64 * 8
        for mu, bound in ((-0.5, 4 * nc + 18), (0.0, 2 * nc + 14)):
            tracemalloc.start()
            try:
                eng, rng = make_engine(lx=8, beta=8.0, k=10, mu=mu)
                assert eng.n_clusters == nc
                built, _ = tracemalloc.get_traced_memory()
                for direction in ("forward", "backward", "forward"):
                    sweep(eng, rng, direction=direction)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (peak - built) / unit < bound, mu

    def test_peak_memory_of_measure_dynamic_sweeps(self):
        """The same three sweeps and bound with the dynamic sample on,
        driven by the simulation: the sample holds no chain side, only the
        spin sum of each boundary's ``G(tau_c, 0)`` pair until the sweep
        ends (nc N x N; keeping both spins' matrices measured 52)."""
        import tracemalloc

        from repro import Simulation

        nc, unit = 8, 64 * 64 * 8
        model = HubbardModel(SquareLattice(8, 8), u=4.0, beta=8.0, n_slices=80)
        tracemalloc.start()
        try:
            sim = Simulation(model, seed=5, cluster_size=10, measure_dynamic=True)
            assert sim.engine.n_clusters == nc
            built, _ = tracemalloc.get_traced_memory()
            sim.measure_sweeps(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sim.collector.accumulator.n_samples("g_k_tau") == 3
        assert (peak - built) / unit < 4 * nc + 18


class TestSliceGreens:
    def test_greens_at_slice_consistency(self, engine4x4):
        for l in (0, 7, 13, 19):
            via_wraps = engine4x4.greens_at_slice(1, l)
            direct = engine4x4.greens_at_slice_direct(1, l)
            assert relerr(via_wraps, direct) < 1e-8, l

    def test_out_of_range_raises(self, engine4x4):
        with pytest.raises(IndexError):
            engine4x4.greens_at_slice_direct(1, 20)


class TestInvalidation:
    def test_field_change_changes_greens(self, engine4x4, field4x4):
        g_before = engine4x4.boundary_greens(1, 0)
        field4x4.flip(0, 0)
        engine4x4.invalidate_slice(0)
        g_after = engine4x4.boundary_greens(1, 0)
        assert relerr(g_after, g_before) > 1e-10

    def test_missing_invalidation_is_stale(self, engine4x4, field4x4):
        """Documents the invalidation contract: without it, the engine
        serves the old G."""
        g_before = engine4x4.boundary_greens(1, 0)
        field4x4.flip(0, 0)
        g_stale = engine4x4.boundary_greens(1, 0)
        assert relerr(g_stale, g_before) < 1e-14
        field4x4.flip(0, 0)  # restore


def jacobi_profile(engine, sigma=1):
    """``grading_profile`` of the engine's chain under the relative-accuracy
    Jacobi stratifier: the exact singular spectrum."""
    dec = oracle_decomposition(engine.cache.chain(sigma, 0), "jacobi")
    return np.sort(np.abs(dec.d))[::-1]


class TestGradingProfile:
    def test_descending_and_wide(self, engine4x4):
        d = engine4x4.grading_profile(1)
        assert np.all(d[1:] <= d[:-1] * (1 + 1e-9))  # sorted by contract
        assert d[0] / d[-1] > 1e3  # beta U = 8: already graded

    def test_spread_grows_with_beta_u(self, rng):
        from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice

        ratios = []
        for beta in (2.0, 8.0):
            model = HubbardModel(
                SquareLattice(2, 2), u=6.0, beta=beta, n_slices=int(beta * 8)
            )
            fac = BMatrixFactory(model)
            field = HSField.random(model.n_slices, 4, rng)
            eng = GreensFunctionEngine(fac, field, cluster_size=8)
            d = eng.grading_profile(1)
            ratios.append(d[0] / d[-1])
        assert ratios[1] > 100 * ratios[0]

    def test_free_fermion_profile_is_kinetic_spectrum(self, rng):
        """U = 0 with the (exact-SVD) jacobi stratifier: |D| must be the
        singular values exp(-beta w) of exp(-beta K), whatever the field."""
        from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice

        model = HubbardModel(SquareLattice(3, 3), u=0.0, beta=2.0, n_slices=16)
        fac = BMatrixFactory(model)
        field = HSField.random(16, 9, rng)
        eng = GreensFunctionEngine(fac, field, cluster_size=8)
        d = jacobi_profile(eng)
        w = np.linalg.eigvalsh(model.kinetic_matrix())
        np.testing.assert_allclose(
            d, np.sort(np.exp(-2.0 * w))[::-1], rtol=1e-8
        )

    def test_qr_profile_tracks_svd_profile(self, engine4x4, factory4x4, field4x4):
        """diag(R) magnitudes approximate the singular spectrum within
        modest factors — the property that lets the profile diagnose
        grading without an SVD."""
        d_qr = engine4x4.grading_profile(1)
        d_svd = jacobi_profile(
            GreensFunctionEngine(factory4x4, field4x4, cluster_size=10)
        )
        ratio = d_qr / d_svd
        assert ratio.max() < 50 and ratio.min() > 1 / 50


class TestConfigurationSign:
    def test_positive_at_half_filling(self, engine4x4):
        assert engine4x4.configuration_sign() == 1.0

    def test_matches_brute_force_determinants(self, rng):
        model = HubbardModel(SquareLattice(2, 2), u=4.0, beta=1.0, n_slices=10, mu=-0.5)
        fac = BMatrixFactory(model)
        field = HSField.random(10, 4, rng)
        eng = GreensFunctionEngine(fac, field, cluster_size=5)
        sign = eng.configuration_sign()
        brute = 1.0
        for s in (1, -1):
            m = np.eye(4) + fac.full_product(field, s)
            brute *= np.sign(np.linalg.det(m))
        assert sign == brute


class TestProfilerIntegration:
    def test_phases_recorded(self, factory4x4, field4x4):
        prof = PhaseProfiler()
        eng = GreensFunctionEngine(
            factory4x4, field4x4, cluster_size=10, profiler=prof
        )
        g = eng.boundary_greens(1, 0)
        eng.wrap(g, 0, 1)
        assert prof.seconds.get("stratification", 0) > 0
        assert prof.seconds.get("clustering", 0) > 0
        assert prof.seconds.get("wrapping", 0) > 0
