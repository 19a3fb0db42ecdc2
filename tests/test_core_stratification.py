"""Unit tests for Algorithms 2 and 3 (stratified chain evaluation)."""

import numpy as np
import pytest

from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
from repro.core import (
    METHODS,
    IncrementalStratifier,
    StratificationStats,
    stratified_decomposition,
    stratified_inverse,
)
from repro.linalg import naive_inverse
from tests.helpers import brute_greens, brute_product, dense_chain
from tests.test_dqmc_sweep import golden_engine, sha1


class TestDecomposition:
    def test_reconstructs_benign_chain(self, factory4x4, field4x4):
        chain = dense_chain(factory4x4, field4x4, 1)
        expected = brute_product(factory4x4, field4x4, 1)
        for method in ("qrp", "prepivot"):
            dec = stratified_decomposition(chain, method=method)
            got = dec.dense()
            assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-10

    def test_single_factor_chain(self, factory4x4, field4x4):
        b = factory4x4.b_matrix(field4x4, 0, 1)
        dec = stratified_decomposition([b], method="prepivot")
        np.testing.assert_allclose(dec.dense(), b, atol=1e-11)

    def test_diagonal_is_descending(self, factory4x4, field4x4):
        """The progressive graded structure: both pivoting policies must
        deliver a descending |D| (this is the property pre-pivoting
        exploits, so it is asserted for the pre-pivoted variant too)."""
        chain = dense_chain(factory4x4, field4x4, 1)
        for method in ("qrp", "prepivot"):
            dec = stratified_decomposition(chain, method=method)
            assert dec.is_descending(rtol=1e-9), method

    def test_empty_chain_raises(self):
        with pytest.raises(ValueError):
            stratified_decomposition([], method="qrp")

    def test_unknown_method_raises(self, factory4x4, field4x4):
        with pytest.raises(ValueError):
            stratified_decomposition(
                dense_chain(factory4x4, field4x4, 1), method="magic"
            )

    def test_mismatched_sizes_raise(self):
        with pytest.raises(ValueError):
            stratified_decomposition([np.eye(4), np.eye(5)])
        with pytest.raises(ValueError):
            stratified_decomposition([np.ones((3, 4))])

    def test_singular_factor_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            stratified_decomposition([np.zeros((4, 4))])

    def test_stats_populated(self, factory4x4, field4x4):
        chain = dense_chain(factory4x4, field4x4, 1)
        stats = StratificationStats()
        stratified_decomposition(chain, method="prepivot", stats=stats)
        assert stats.n_factors == len(chain)
        # first factor fully pivoted (n sync points) + 1 per later step
        assert stats.sync_points == 16 + (len(chain) - 1)
        assert stats.grading_ratio > 1.0

    def test_sync_point_accounting_by_method(self, factory4x4, field4x4):
        chain = dense_chain(factory4x4, field4x4, 1)
        counts = {}
        for method in METHODS:
            stats = StratificationStats()
            stratified_decomposition(chain, method=method, stats=stats)
            counts[method] = stats.sync_points
        # the paper's communication hierarchy
        assert counts["qrp"] > counts["prepivot"] > counts["nopivot"]

    def test_accepts_generator_input(self, factory4x4, field4x4):
        gen = (
            factory4x4.b_matrix(field4x4, l, 1)
            for l in range(field4x4.n_slices)
        )
        dec = stratified_decomposition(gen, method="prepivot")
        expected = brute_product(factory4x4, field4x4, 1)
        assert np.linalg.norm(dec.dense() - expected) / np.linalg.norm(expected) < 1e-10


class TestInverse:
    def test_matches_naive_on_benign_chain(self, factory4x4, field4x4):
        expected = brute_greens(factory4x4, field4x4, -1)
        chain = dense_chain(factory4x4, field4x4, -1)
        for method in ("qrp", "prepivot"):
            g = stratified_inverse(chain, method=method)
            assert np.linalg.norm(g - expected) / np.linalg.norm(expected) < 1e-9

    def test_prepivot_agrees_with_qrp_at_strong_coupling(self, rng):
        """The paper's Fig 2 claim: relative difference ~1e-12 even at
        large U and beta, where the chain's grading is extreme."""
        model = HubbardModel(SquareLattice(4, 4), u=8.0, beta=8.0, n_slices=80)
        fac = BMatrixFactory(model)
        field = HSField.random(80, 16, rng)
        chain = dense_chain(fac, field, 1)
        g2 = stratified_inverse(chain, method="qrp")
        g3 = stratified_inverse(chain, method="prepivot")
        rel = np.linalg.norm(g2 - g3) / np.linalg.norm(g2)
        assert rel < 1e-10

    def test_nopivot_still_works_at_weak_coupling(self, factory4x4, field4x4):
        expected = brute_greens(factory4x4, field4x4, 1)
        g = stratified_inverse(
            dense_chain(factory4x4, field4x4, 1), method="nopivot"
        )
        assert np.linalg.norm(g - expected) / np.linalg.norm(expected) < 1e-8

    def test_stable_where_naive_overflows(self, rng):
        """At beta*U large the raw product overflows double precision;
        the stratified inverse must stay finite and well-scaled."""
        model = HubbardModel(SquareLattice(2, 2), u=8.0, beta=20.0, n_slices=200)
        fac = BMatrixFactory(model)
        field = HSField.ordered(200, 4)  # ferromagnetic field: worst grading
        chain = dense_chain(fac, field, 1)
        g = stratified_inverse(chain, method="prepivot")
        assert np.all(np.isfinite(g))
        # G is a contraction-like object: eigenvalue magnitudes <= ~1.
        assert np.max(np.abs(g)) < 10.0

    def test_idempotent_chain(self):
        """Chain of identities: G = I/2 exactly."""
        chain = [np.eye(6)] * 10
        g = stratified_inverse(chain, method="prepivot")
        np.testing.assert_allclose(g, 0.5 * np.eye(6), atol=1e-13)


class TestSvdMethods:
    def test_svd_matches_qrp_on_random_fields(self, factory4x4, field4x4):
        chain = dense_chain(factory4x4, field4x4, 1)
        g_svd = stratified_inverse(chain, method="svd")
        g_qrp = stratified_inverse(chain, method="qrp")
        assert np.linalg.norm(g_svd - g_qrp) / np.linalg.norm(g_qrp) < 1e-9

    def test_jacobi_matches_qrp_on_random_fields(self, factory4x4, field4x4):
        chain = dense_chain(factory4x4, field4x4, 1)
        g_jac = stratified_inverse(chain, method="jacobi")
        g_qrp = stratified_inverse(chain, method="qrp")
        assert np.linalg.norm(g_jac - g_qrp) / np.linalg.norm(g_qrp) < 1e-9

    def test_svd_diagonal_descending_nonnegative(self, factory4x4, field4x4):
        chain = dense_chain(factory4x4, field4x4, 1)
        dec = stratified_decomposition(chain, method="svd")
        assert np.all(dec.d >= 0)
        assert dec.is_descending()

    def test_jacobi_t_factor_is_orthogonal(self, factory4x4, field4x4):
        """SVD-based stratifiers accumulate T as a product of orthogonal
        matrices — it must stay orthogonal."""
        chain = dense_chain(factory4x4, field4x4, 1)
        dec = stratified_decomposition(chain, method="jacobi")
        np.testing.assert_allclose(
            dec.t @ dec.t.T, np.eye(16), atol=1e-10
        )

    def test_lapack_svd_fails_where_qr_does_not(self):
        """The documented absolute-accuracy failure of gesdd-based
        stratification on an adversarial (ordered-field) chain — the
        historical reason for pivoted-QR stratification. Pinned here so
        the method docstrings stay honest."""
        model = HubbardModel(SquareLattice(2, 2), u=8.0, beta=10.0, n_slices=80)
        fac = BMatrixFactory(model)
        field = HSField.ordered(80, 4)
        chain = dense_chain(fac, field, 1)
        ref = stratified_inverse(chain, method="qrp")
        g_svd = stratified_inverse(chain, method="svd")
        assert np.linalg.norm(g_svd - ref) / np.linalg.norm(ref) > 1e-3


class TestContinuedChain:
    """``IncrementalStratifier(start=snapshot)``: what ``boundary_greens``
    resumes its kept prefix and suffix chains with."""

    @pytest.mark.parametrize("method", ["prepivot", "qrp"])
    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_resuming_a_snapshot_is_bit_identical(self, method, n0):
        engine, _ = golden_engine(11)
        chain = engine.cache.chain(1, 0)
        whole = IncrementalStratifier(method)
        for i, f in enumerate(chain):
            whole.push(f)
            if i + 1 == n0:
                snapshot = whole.decomposition()
        resumed = IncrementalStratifier(method, start=snapshot)
        for f in chain[n0:]:
            resumed.push(f)
        a, b = whole.decomposition(), resumed.decomposition()
        assert all(np.array_equal(x, y) for x, y in ((a.q, b.q), (a.d, b.d), (a.t, b.t)))
        # the counters are this instance's own pushes
        assert resumed.n_factors == len(chain) - n0
        assert whole.n_factors == len(chain)

    def test_snapshot_survives_the_pushes_that_follow(self):
        engine, _ = golden_engine(11)
        chain = engine.cache.chain(1, 0)
        inc = IncrementalStratifier()
        inc.push(chain[0])
        snapshot = inc.decomposition()
        kept = [x.copy() for x in (snapshot.q, snapshot.d, snapshot.t)]
        resumed = IncrementalStratifier(start=snapshot)
        for f in chain[1:]:
            resumed.push(f)
        assert all(np.array_equal(x, y)
                   for x, y in zip(kept, (snapshot.q, snapshot.d, snapshot.t)))
        # a mismatched factor is still rejected on a resumed chain
        with pytest.raises(ValueError):
            resumed.push(np.eye(engine.n + 1))


class TestGoldenChainKernel:
    """Recorded from the commit before ``stratified_decomposition`` became
    a fold over ``IncrementalStratifier.push``: SHA-1 of Q, D, T and of
    the stable inverse, then the four ``StratificationStats`` fields, on
    the spin-up cluster chain (k=5: four factors) of ``TestGoldenChain``'s
    seed-11 4x4 beta=2 U=4 engine, built on the ``GeneralLattice`` twin so
    the chain factors still come from the dense ``exp(-dtau K)`` GEMM. The
    parent gave one value per method on every backend."""

    GOLDEN = {
        "prepivot": (
            "815ae0e1f6a3aaa42e8e23518b5030c0735dd38e",
            "f3a6ed7f7ccdc0dcbcc6d88b3fe31399a6d2f6a2",
            "a7a9bf16d128cdbf8bbfd8f511bc5fafedbd0baa",
            "83b349065bfa7b32886eaa6ae3e9b18be9bc445d",
            4, 19, 11, float.fromhex("0x1.6537c5c899dbfp+33"),
        ),
        "qrp": (
            "65ae12fed942ce564a41f9145b1d0922d5782622",
            "193de257fffd3da3c114b0fed5784bfc7aaa66df",
            "7ac7edc0749dc6f5342c0f1afe06849cdfdeea89",
            "b4b4f2f4153ebdfc0f5087b2e137a9924f7991ba",
            4, 64, 11, float.fromhex("0x1.6537c5c899d19p+33"),
        ),
    }

    @pytest.mark.parametrize("backend", ["numpy", "threaded", "gpu-sim"])
    @pytest.mark.parametrize("method", ["prepivot", "qrp"])
    def test_chain_is_bit_identical_to_parent(self, method, backend):
        engine, _ = golden_engine(11, backend, dense=True)
        chain = engine.cache.chain(1, 0)
        stats = StratificationStats()
        dec = stratified_decomposition(
            chain, method=method, stats=stats, backend=engine.backend
        )
        g = stratified_inverse(chain, method=method, backend=engine.backend)
        got = (
            sha1(dec.q), sha1(dec.d), sha1(dec.t), sha1(g),
            stats.n_factors, stats.sync_points,
            stats.max_pivot_displacement, stats.grading_ratio,
        )
        assert got == self.GOLDEN[method]
