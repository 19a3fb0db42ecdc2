"""Unit tests for the one-sided Jacobi SVD."""

import numpy as np
import pytest

from tests.oracles.jacobi import jacobi_svd


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestBasics:
    @pytest.mark.parametrize("shape", [(8, 8), (15, 9), (20, 20)])
    def test_reconstruction_and_orthogonality(self, rng, shape):
        a = rng.normal(size=shape)
        u, s, vt = jacobi_svd(a)
        n = shape[1]
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(n), atol=1e-12)

    def test_matches_lapack_values(self, rng):
        a = rng.normal(size=(12, 12))
        _, s, _ = jacobi_svd(a)
        np.testing.assert_allclose(
            s, np.linalg.svd(a, compute_uv=False), rtol=1e-12
        )

    def test_descending_nonnegative(self, rng):
        _, s, _ = jacobi_svd(rng.normal(size=(10, 10)))
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12 * s[0])

    def test_rejects_wide_matrix(self, rng):
        with pytest.raises(ValueError):
            jacobi_svd(rng.normal(size=(3, 5)))

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            jacobi_svd(np.ones(4))

    def test_rank_deficient(self, rng):
        a = rng.normal(size=(8, 3))
        a = np.hstack([a, a[:, :2]])  # rank 3, 5 columns
        u, s, vt = jacobi_svd(a)
        assert np.sum(s > 1e-12 * s[0]) == 3
        np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-12)

    def test_diagonal_input(self):
        d = np.array([5.0, 3.0, 1.0])
        u, s, vt = jacobi_svd(np.diag(d))
        np.testing.assert_allclose(s, d)


class TestRelativeAccuracy:
    """The property LAPACK's gesdd does NOT have — the reason this
    implementation exists (Drmac-Veselic, the paper's ref [30])."""

    @pytest.mark.parametrize("span", [40, 80, 120])
    def test_graded_columns_reconstruct_relatively(self, rng, span):
        n = 10
        w, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = w + 0.1 * rng.normal(size=(n, n))
        d = np.logspace(0, -span, n)
        a = w * d[None, :]
        u, s, vt = jacobi_svd(a)
        recon = u @ np.diag(s) @ vt
        colerr = np.linalg.norm(recon - a, axis=0) / np.linalg.norm(a, axis=0)
        assert colerr.max() < 1e-12

    def test_tiny_singular_values_relatively_accurate(self, rng):
        """For A = diag-scaled orthogonal, the exact singular values are
        the scalings; Jacobi must hit each to relative precision."""
        n = 8
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = np.logspace(0, -100, n)
        a = q * d[None, :]
        _, s, _ = jacobi_svd(a)
        np.testing.assert_allclose(s, d, rtol=1e-12)

    def test_fixes_the_stratification_failure(self):
        """End-to-end: on the adversarial ordered-field chain where
        LAPACK-SVD stratification collapses, Jacobi stratification
        matches QRP."""
        from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
        from repro.core import stratified_inverse
        from tests.oracles.stratifier import oracle_inverse

        model = HubbardModel(
            SquareLattice(2, 2), u=8.0, beta=10.0, n_slices=80
        )
        fac = BMatrixFactory(model)
        field = HSField.ordered(80, 4)
        chain = [fac.b_matrix(field, l, 1) for l in range(80)]
        ref = stratified_inverse(chain, method="qrp")
        g_jac = oracle_inverse(chain, "jacobi")
        g_svd = oracle_inverse(chain, "svd")
        assert np.linalg.norm(g_jac - ref) / np.linalg.norm(ref) < 1e-10
        # and the LAPACK-SVD failure is real (pin it so the docs stay true)
        assert np.linalg.norm(g_svd - ref) / np.linalg.norm(ref) > 1e-3
