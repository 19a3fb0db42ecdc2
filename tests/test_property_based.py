"""Property-based tests (hypothesis) on the core numerical invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import DelayedUpdater, stratified_decomposition, stratified_inverse
from repro.lattice import SquareLattice
from repro.linalg import (
    GradedDecomposition,
    column_norms,
    inverse_permutation,
    prepivot_permutation,
    qr_pivoted,
    qr_prepivoted,
    split_scales,
    stable_inverse_from_graded,
)
from repro.measure import binned_statistics

# Bounded, NaN-free float strategies keep the properties about algebra,
# not about IEEE edge cases the library explicitly does not handle.
finite = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def square(n_min=2, n_max=8, elements=finite):
    return st.integers(n_min, n_max).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=elements)
    )


@st.composite
def nonsingular_square(draw, n_min=2, n_max=8):
    """A comfortably invertible matrix: random + dominant diagonal."""
    a = draw(square(n_min, n_max))
    n = a.shape[0]
    return a + np.eye(n) * (np.abs(a).sum() + 1.0)


class TestQRProperties:
    @given(a=nonsingular_square())
    @settings(max_examples=40, deadline=None)
    def test_all_variants_reconstruct(self, a):
        for fn in (qr_pivoted, qr_prepivoted):
            res = fn(a)
            scale = max(np.abs(a).max(), 1.0)
            assert np.abs(res.reconstruct() - a).max() < 1e-9 * scale

    @given(a=square())
    @settings(max_examples=40, deadline=None)
    def test_q_is_orthogonal(self, a):
        q = qr_prepivoted(a).q
        n = q.shape[1]
        assert np.abs(q.T @ q - np.eye(n)).max() < 1e-10

    @given(a=square())
    @settings(max_examples=40, deadline=None)
    def test_pivot_vectors_are_permutations(self, a):
        n = a.shape[1]
        for fn in (qr_pivoted, qr_prepivoted):
            piv = fn(a).piv
            assert np.array_equal(np.sort(piv), np.arange(n))


class TestNormProperties:
    @given(a=square(n_max=10))
    @settings(max_examples=50, deadline=None)
    def test_prepivot_sorts_descending(self, a):
        piv = prepivot_permutation(a)
        nrm = column_norms(a)[piv]
        assert np.all(np.diff(nrm) <= 1e-12 * (1.0 + nrm[:-1]))

    @given(a=square(n_max=10), c=st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_norms_are_absolutely_homogeneous(self, a, c):
        # keep squares out of the subnormal range: the documented
        # contract of column_norms (stratification inputs are O(1))
        a = np.where(np.abs(a) < 1e-100, 0.0, a)
        np.testing.assert_allclose(
            column_norms(c * a), c * column_norms(a), rtol=1e-10
        )

    @given(piv=st.permutations(list(range(9))))
    def test_inverse_permutation_roundtrip(self, piv):
        piv = np.array(piv)
        inv = inverse_permutation(piv)
        assert np.array_equal(piv[inv], np.arange(9))


class TestSplitScales:
    @given(
        d=arrays(
            np.float64,
            st.integers(1, 12),
            elements=st.floats(
                min_value=1e-150, max_value=1e150, allow_nan=False
            ),
        ),
        signs=st.booleans(),
    )
    @settings(max_examples=60)
    def test_invariants(self, d, signs):
        if signs:
            d = -d
        db, ds = split_scales(d)
        assert np.all(np.abs(db) <= 1.0)
        assert np.all(np.abs(ds) <= 1.0)
        np.testing.assert_allclose(ds / db, d, rtol=1e-13)


class TestStratificationProperties:
    @given(
        chain=st.lists(nonsingular_square(n_min=4, n_max=4), min_size=1, max_size=6)
    )
    @settings(max_examples=25, deadline=None)
    def test_decomposition_reconstructs_product(self, chain):
        expected = np.eye(4)
        for f in chain:
            expected = f @ expected
        for method in ("qrp", "prepivot"):
            dec = stratified_decomposition(chain, method=method)
            scale = np.abs(expected).max()
            assert np.abs(dec.dense() - expected).max() < 1e-8 * scale

    @given(
        chain=st.lists(nonsingular_square(n_min=3, n_max=3), min_size=1, max_size=5)
    )
    @settings(max_examples=25, deadline=None)
    def test_inverse_solves_defining_equation(self, chain):
        g = stratified_inverse(chain, method="prepivot")
        prod = np.eye(3)
        for f in chain:
            prod = f @ prod
        resid = g @ (np.eye(3) + prod) - np.eye(3)
        assert np.abs(resid).max() < 1e-7 * max(1.0, np.abs(prod).max())

    @given(
        chain=st.lists(nonsingular_square(n_min=4, n_max=4), min_size=2, max_size=5)
    )
    @settings(max_examples=20, deadline=None)
    def test_methods_agree(self, chain):
        g2 = stratified_inverse(chain, method="qrp")
        g3 = stratified_inverse(chain, method="prepivot")
        assert np.abs(g2 - g3).max() < 1e-8 * (1.0 + np.abs(g2).max())


class TestStableInverse:
    @given(
        logd=arrays(
            np.float64, st.integers(2, 6),
            elements=st.floats(min_value=-30, max_value=30),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_diagonal_chain_analytic(self, logd):
        d = 10.0**logd
        n = d.size
        g = GradedDecomposition(q=np.eye(n), d=d, t=np.eye(n))
        np.testing.assert_allclose(
            stable_inverse_from_graded(g), np.diag(1.0 / (1.0 + d)), rtol=1e-10
        )


class TestDelayedUpdaterProperty:
    @given(
        seed=st.integers(0, 2**31),
        delays=st.tuples(st.integers(1, 3), st.integers(4, 16)),
        n_updates=st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_delay_invariance(self, seed, delays, n_updates):
        """The final G never depends on the block size."""
        rng = np.random.default_rng(seed)
        g0 = rng.normal(size=(8, 8)) * 0.3 + 0.5 * np.eye(8)
        sites = rng.integers(0, 8, size=n_updates)
        alphas = rng.normal(size=n_updates) * 0.3
        results = []
        for delay in delays:
            g = g0.copy()
            upd = DelayedUpdater(g, max_delay=delay)
            for i, alpha in zip(sites, alphas):
                d = 1.0 + alpha * (1.0 - upd.diag_element(int(i)))
                upd.accept(int(i), float(alpha), d)
            upd.flush()
            results.append(g)
        np.testing.assert_allclose(results[0], results[1], atol=1e-9)


class TestLatticeProperties:
    @given(
        lx=st.integers(2, 7), ly=st.integers(2, 7),
        i=st.integers(0, 48), j=st.integers(0, 48),
    )
    @settings(max_examples=60)
    def test_displacement_index_consistency(self, lx, ly, i, j):
        lat = SquareLattice(lx, ly)
        i, j = i % lat.n_sites, j % lat.n_sites
        r = lat.displacement_index(i, j)
        assert lat.translation_table[r, i] == j

    @given(lx=st.integers(1, 6), ly=st.integers(1, 6))
    def test_adjacency_row_sums_uniform(self, lx, ly):
        a = SquareLattice(lx, ly).adjacency
        sums = a.sum(axis=0)
        assert np.all(sums == sums[0])


class TestJacobiProperties:
    @given(a=nonsingular_square(n_min=3, n_max=7))
    @settings(max_examples=20, deadline=None)
    def test_factorization_invariants(self, a):
        from tests.oracles.jacobi import jacobi_svd

        u, s, vt = jacobi_svd(a)
        n = a.shape[0]
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-10 * (s[0] + 1))
        assert np.abs(u @ np.diag(s) @ vt - a).max() < 1e-9 * (np.abs(a).max() + 1)
        assert np.abs(u.T @ u - np.eye(n)).max() < 1e-9

    @given(
        logd=arrays(
            np.float64, 5, elements=st.floats(min_value=-40, max_value=0)
        ),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_relative_accuracy_on_scaled_orthogonal(self, logd, seed):
        """For Q diag(10^logd), singular values are exactly the scalings."""
        from tests.oracles.jacobi import jacobi_svd

        rng_local = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng_local.normal(size=(5, 5)))
        d = 10.0**logd
        _, s, _ = jacobi_svd(q * d[None, :])
        np.testing.assert_allclose(s, np.sort(d)[::-1], rtol=1e-10)


class TestDisplacedProperties:
    @given(seed=st.integers(0, 2**31), l_frac=st.floats(0.0, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_antiperiodic_sum_rule(self, seed, l_frac):
        """G(tau, 0) interpolates between G(0,0) and I - G(0,0); at any
        tau, G(beta,0) + G(0,0) = I holds exactly and the displaced
        function stays finite."""
        from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
        from tests.oracles.displaced import displaced_greens

        rng_local = np.random.default_rng(seed)
        model = HubbardModel(SquareLattice(2, 2), u=5.0, beta=2.0, n_slices=16)
        fac = BMatrixFactory(model)
        field = HSField.random(16, 4, rng_local)
        l = int(l_frac * 15)
        g_tau = displaced_greens(fac, field, 1, l)
        assert np.all(np.isfinite(g_tau))
        g_beta = displaced_greens(fac, field, 1, 15)
        g_0 = displaced_greens(fac, field, 1, -1)
        assert np.abs(g_beta + g_0 - np.eye(4)).max() < 1e-9


class TestCheckerboardProperties:
    @given(
        lx=st.integers(2, 6), ly=st.integers(2, 6),
        dtau=st.floats(0.01, 0.3), t=st.floats(0.2, 2.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_positive_determinant_and_bounded_error(self, lx, ly, dtau, t):
        from repro.hamiltonian import CheckerboardPropagator
        from repro.lattice import SquareLattice

        cb = CheckerboardPropagator(SquareLattice(lx, ly), t=t, dtau=dtau)
        sign, _ = np.linalg.slogdet(cb.dense())
        assert sign == 1.0
        # O(dtau^2) with a generous constant over this parameter box
        assert cb.splitting_error() < 5.0 * (t * dtau) ** 2 + 1e-12


class TestEstimatorProperties:
    @given(
        x=arrays(
            np.float64, st.integers(4, 200),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        shift=st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_binning_translation_equivariance(self, x, shift):
        a = binned_statistics(x)
        b = binned_statistics(x + shift)
        assert float(b.mean) == pytest.approx(float(a.mean) + shift, abs=1e-7)
        assert float(b.error) == pytest.approx(float(a.error), abs=1e-7)
