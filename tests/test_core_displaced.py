"""Time-displaced Green's functions: the engine's hand-over against the
references in :mod:`tests.oracles.displaced`, and those references
against brute force and the U = 0 closed form."""

import numpy as np
import pytest

from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
from repro.core import (
    IncrementalStratifier,
    build_clusters,
    stratified_decomposition,
)
from repro.linalg import GradedDecomposition
from tests.helpers import recording_displaced, relerr
from tests.oracles.displaced import (
    displaced_greens,
    displaced_series_fast,
    stable_sum_inverse,
)
from tests.test_dqmc_sweep import golden_engine, sha1


def bai_series(factory, field, sigma, k, method="prepivot"):
    """The series as the Bai sum-inverse joins it: prefixes ``R_1 ..
    R_nc`` against the transposed suffixes, ``R_nc`` against the
    identity (three solves per tau; how the series was evaluated before
    the two-sided joins)."""
    clusters = build_clusters(factory, field, sigma, k)
    nc, n = len(clusters), factory.n
    prefix, suffix = IncrementalStratifier(method), IncrementalStratifier(method)
    rs, ls = [], []
    for c in range(nc):
        prefix.push(clusters[c])
        rs.append(prefix.decomposition())
        suffix.push(clusters[nc - 1 - c].T)
        ls.append(suffix.decomposition())
    out = []
    for c in range(nc - 1):
        s = ls[nc - c - 2]
        a2 = GradedDecomposition(q=s.t.T, d=s.d, t=s.q.T)
        out.append(stable_sum_inverse(rs[c], a2))
    ident = GradedDecomposition(q=np.eye(n), d=np.ones(n), t=np.eye(n))
    out.append(stable_sum_inverse(rs[nc - 1], ident))
    return out


def brute_displaced(factory, field, sigma, l):
    """Unstabilized B_l ... B_0 (I + B_{L-1} ... B_0)^{-1}."""
    n = factory.n
    full = factory.full_product(field, sigma)
    g0 = np.linalg.inv(np.eye(n) + full)
    left = np.eye(n)
    for ll in range(l + 1):
        left = factory.b_matrix(field, ll, sigma) @ left
    return left @ g0


class TestStableSumInverse:
    def test_identity_left_reduces_to_equal_time(self, factory4x4, field4x4):
        chain = [
            factory4x4.b_matrix(field4x4, l, 1)
            for l in range(field4x4.n_slices)
        ]
        a2 = stratified_decomposition(chain, method="prepivot")
        ident = GradedDecomposition(
            q=np.eye(16), d=np.ones(16), t=np.eye(16)
        )
        from repro.linalg import stable_inverse_from_graded

        got = stable_sum_inverse(ident, a2)
        expected = stable_inverse_from_graded(a2)
        assert relerr(got, expected) < 1e-10

    def test_size_mismatch_raises(self):
        a = GradedDecomposition(q=np.eye(3), d=np.ones(3), t=np.eye(3))
        b = GradedDecomposition(q=np.eye(4), d=np.ones(4), t=np.eye(4))
        with pytest.raises(ValueError):
            stable_sum_inverse(a, b)


class TestDisplacedGreens:
    @pytest.mark.parametrize("l", [-1, 0, 7, 19])
    def test_matches_brute_force_benign(self, factory4x4, field4x4, l):
        got = displaced_greens(factory4x4, field4x4, 1, l)
        expected = brute_displaced(factory4x4, field4x4, 1, l)
        assert relerr(got, expected) < 1e-9

    def test_out_of_range(self, factory4x4, field4x4):
        with pytest.raises(IndexError):
            displaced_greens(factory4x4, field4x4, 1, 20)
        with pytest.raises(IndexError):
            displaced_greens(factory4x4, field4x4, 1, -2)

    def test_stable_at_strong_coupling(self, rng):
        """Midpoint tau at beta*U where the naive left product overflows
        by hundreds of orders of magnitude: result finite, methods agree."""
        model = HubbardModel(SquareLattice(2, 2), u=8.0, beta=16.0, n_slices=128)
        fac = BMatrixFactory(model)
        field = HSField.random(128, 4, rng)
        g_qrp = displaced_greens(fac, field, 1, 63, method="qrp")
        g_pre = displaced_greens(fac, field, 1, 63, method="prepivot")
        assert np.all(np.isfinite(g_pre))
        assert relerr(g_pre, g_qrp) < 1e-10

    def test_u0_analytic(self, rng):
        """Free fermions: G(tau) = e^{-tau K'} (1 - f) in the eigenbasis."""
        model = HubbardModel(SquareLattice(4, 4), u=0.0, beta=4.0, n_slices=40)
        fac = BMatrixFactory(model)
        field = HSField.random(40, 16, rng)
        l = 9  # tau = 1.0
        got = displaced_greens(fac, field, 1, l)
        w, v = np.linalg.eigh(model.kinetic_matrix())
        tau = (l + 1) * model.dtau
        f = 1.0 / (1.0 + np.exp(model.beta * w))
        expected = (v * (np.exp(-tau * w) * (1.0 - f))) @ v.T
        assert relerr(got, expected) < 1e-10

    def test_antiperiodic_boundary(self, factory4x4, field4x4):
        """G(beta, 0) + G(0, 0) = I: fermionic antiperiodicity.

        tau = beta means the full left chain: A1 (I + A1)^{-1}; adding
        the equal-time (I + A1)^{-1} gives exactly I.
        """
        g_beta = displaced_greens(factory4x4, field4x4, 1, field4x4.n_slices - 1)
        g_0 = displaced_greens(factory4x4, field4x4, 1, -1)
        np.testing.assert_allclose(g_beta + g_0, np.eye(16), atol=1e-9)


class TestFastSeries:
    def test_matches_per_tau_evaluation(self, factory4x4, field4x4):
        taus, greens = displaced_series_fast(
            factory4x4, field4x4, 1, cluster_size=5
        )
        assert len(taus) == 4
        for j, g in enumerate(greens):
            l = (j + 1) * 5 - 1
            ref = displaced_greens(factory4x4, field4x4, 1, l)
            assert relerr(g, ref) < 1e-10, j

    def test_tau_grid(self, factory4x4, field4x4):
        taus, _ = displaced_series_fast(factory4x4, field4x4, 1, 10)
        np.testing.assert_allclose(taus, [1.0, 2.0])

    def test_stable_at_strong_coupling(self, rng):
        model = HubbardModel(SquareLattice(2, 2), u=8.0, beta=12.0, n_slices=96)
        fac = BMatrixFactory(model)
        field = HSField.random(96, 4, rng)
        taus, greens = displaced_series_fast(fac, field, 1, cluster_size=8)
        for j, g in enumerate(greens):
            assert np.all(np.isfinite(g)), j
            # spot-check the midpoint against the two-chain evaluation
        mid = len(greens) // 2
        ref = displaced_greens(fac, field, 1, (mid + 1) * 8 - 1)
        assert relerr(greens[mid], ref) < 1e-8

    #: SHA-1 of the stacked spin-up series on the seed-11 4x4 beta=2 U=4
    #: field (``GeneralLattice`` twin: the dense GEMM path the hashes were
    #: first recorded on)
    GOLDEN = {
        "prepivot": "a515fa2911a67ebef1f9759004adf26ece34554f",
        "qrp": "14f625bec931db0fc9d3bed024caf21d0b6be921",
    }

    @pytest.mark.parametrize("method", ["prepivot", "qrp"])
    def test_series_is_bit_identical_to_parent(self, method):
        """Re-recorded when the joins moved from the Bai sum-inverse
        (three solves) to the two-sided ``Q_L D_Lb M^-1 D_Rs T_R`` (one
        solve) and ``G(beta, 0)`` to ``I - G(0, 0)``: the same chains,
        rounded differently. The old hashes (prepivot ``c2314d2c``, qrp
        ``b2c43d6c``) are what :func:`bai_series` still gives; the new
        series is within 3e-15 relative of it at every tau."""
        engine, _ = golden_engine(11, dense=True)
        taus, greens = displaced_series_fast(
            engine.factory, engine.field, 1, 5, method=method
        )
        assert sha1(taus) == "1954f3046f071947e46eb8190a538013a6d1fbbb"
        assert sha1(np.stack(greens)) == self.GOLDEN[method]
        bai = bai_series(engine.factory, engine.field, 1, 5, method)
        assert sha1(np.stack(bai)) == {
            "prepivot": "c2314d2c7e2a1425c45b695a9a719798e3fbab32",
            "qrp": "b2c43d6cf6ba6334cf09c8003199fad26bd74a90",
        }[method]
        for g, b in zip(greens, bai):
            assert relerr(g, b) < 1e-14

    @pytest.mark.parametrize("warm", ["cold", "forward", "backward", "partial"])
    def test_engine_suffix_stack_gives_the_same_series(self, warm):
        """The series from the engine's own joins, whatever it kept
        before: ``boundary_greens(1, c, displaced=True)`` is the
        standalone routine's ``G(tau_c, 0)`` bit for bit at every interior
        index and at index 0 (``G(beta, 0)`` from ``S_nc``); index ``nc``
        rounds it through ``R_nc`` instead. The ``G`` next to it is bit
        for bit that of a call without ``displaced``. The spin-down
        function that comes with it (the chain is at half filling) is the
        standalone routine's down series to 1e-12."""
        from repro.dqmc import sweep

        engine, rng = golden_engine(11)
        nc = engine.n_clusters
        if warm == "partial":  # S_1 .. S_{nc-1} stacked, S_nc one push away
            engine.boundary_greens(1, 1)
        elif warm != "cold":
            sweep(engine, rng, direction=warm)
        _, expected = displaced_series_fast(
            engine.factory, engine.field, 1, 5, backend=engine.backend
        )
        _, expected_dn = displaced_series_fast(
            engine.factory, engine.field, -1, 5, backend=engine.backend
        )
        for c in range(nc + 1):
            g, (g_tau, g_tau_dn) = engine.boundary_greens(1, c, displaced=True)
            assert np.array_equal(g, engine.boundary_greens(1, c))
            assert engine.last_stats.n_factors == 0
            if c < nc:
                assert sha1(g_tau) == sha1(expected[(c - 1) % nc]), c
            else:
                assert relerr(g_tau, expected[-1]) < 1e-13
            assert relerr(g_tau_dn, expected_dn[(c - 1) % nc]) < 1e-12, c


class TestEngineFedSeries:
    """The dynamic sample's ``G(tau_c, 0)``, handed over by each boundary's
    join as the sweep passes it, against independent references on the
    field as it stood at that boundary."""

    @pytest.mark.parametrize(
        "options, n_sweeps",
        [({}, 1), ({}, 3), ({"global_flips_per_sweep": 1}, 3)],
        ids=["forward", "alternating", "global-flips"],
    )
    def test_free_fermions_at_every_tau(self, options, n_sweeps, monkeypatch):
        """U = 0: ``e^{-tau K} (I + e^{-beta K})^-1`` at every tau, ``tau =
        beta`` included, both spins, from a forward sweep, from
        alternating ones (a backward sweep starts at index ``nc``) and
        with global moves dropping every kept decomposition in between.
        Every spin-up tau but that of index ``nc`` is also bit for bit the
        standalone routine's on the boundary's field; the spin-down one,
        the particle-hole image of the up join, agrees with it to 1e-12."""
        from repro import Simulation

        model = HubbardModel(SquareLattice(4, 4), u=0.0, beta=4.0, n_slices=32)
        sim = Simulation(
            model, seed=3, cluster_size=8, measure_dynamic=True, **options
        )
        w, v = np.linalg.eigh(model.kinetic_matrix())
        seen = recording_displaced(monkeypatch)
        sim.measure_sweeps(n_sweeps)
        engine = sim.engine
        nc, k = engine.n_clusters, engine.cluster_size
        assert len(seen) == nc * n_sweeps
        for i, (c, h, g_tau, sign) in enumerate(seen):
            backward = (i // nc) % 2 == 1
            assert c == ((nc - i % nc) % nc if backward else i % nc)
            j = (c - 1) % nc
            tau = (j + 1) * k * model.dtau
            exact = (v * (np.exp(-tau * w) / (1.0 + np.exp(-model.beta * w)))) @ v.T
            assert sign == 1.0
            for sigma, g in zip((1, -1), g_tau):
                assert np.max(np.abs(g - exact)) < 1e-12, (c, tau)
                if backward and c == 0:  # index nc, rounded through R_nc
                    continue
                _, standalone = displaced_series_fast(
                    sim.factory, HSField(h), sigma, k,
                    method=engine.method, backend=engine.backend,
                )
                if sigma in engine.sectors:
                    assert sha1(g) == sha1(standalone[j]), (c, sigma)
                else:
                    assert relerr(g, standalone[j]) < 1e-12, (c, sigma)

    def test_strong_coupling_against_slice_by_slice(self, monkeypatch):
        """6x6, U = 8, beta = 16, k = 10, one measurement sweep: every tau
        against ``displaced_greens(method="qrp")`` (one QR step per slice,
        no clusters) on the field as it stood at the boundary that
        produced it, held to 10 x the worst the Bai sum-inverse reaches on
        the same chains, or 1e-11."""
        from repro import Simulation

        model = HubbardModel(SquareLattice(6, 6), u=8.0, beta=16.0, n_slices=160)
        sim = Simulation(model, seed=19, cluster_size=10, measure_dynamic=True)
        seen = recording_displaced(monkeypatch)
        sim.measure_sweeps(1)
        nc = sim.engine.n_clusters
        ours, theirs = [], []
        for c, h, g_tau, _ in seen:
            j = (c - 1) % nc
            field = HSField(h)
            bai = bai_series(sim.factory, field, 1, 10)[j]
            ref = displaced_greens(
                sim.factory, field, 1, (j + 1) * 10 - 1, method="qrp"
            )
            ours.append(relerr(g_tau[0], ref))
            theirs.append(relerr(bai, ref))
        assert len(ours) == 16
        assert max(ours) <= max(10 * max(theirs), 1e-11), (max(ours), max(theirs))
