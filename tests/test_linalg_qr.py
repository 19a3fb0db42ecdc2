"""Unit tests for the QR factorization variants."""

import numpy as np
import pytest

from repro.linalg import qr_pivoted, qr_prepivoted


def random_matrix(rng, m, n, cond=None):
    a = rng.normal(size=(m, n))
    if cond is not None:
        u, _, vt = np.linalg.svd(a, full_matrices=False)
        k = min(m, n)
        s = np.logspace(0, -np.log10(cond), k)
        a = (u * s) @ vt
    return a


def graded_matrix(rng, n, span=12):
    """A column-graded matrix like the stratification chain's C_i."""
    a = rng.normal(size=(n, n))
    scales = np.logspace(0, -span, n)
    return a * scales[None, :]


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestLapackPaths:
    @pytest.mark.parametrize("shape", [(8, 8), (12, 8), (30, 30)])
    def test_qr_pivoted_reconstructs(self, rng, shape):
        a = random_matrix(rng, *shape)
        res = qr_pivoted(a)
        np.testing.assert_allclose(res.reconstruct(), a, atol=1e-12)
        assert res.sync_points == min(shape)

    def test_qr_prepivoted_reconstructs(self, rng):
        a = graded_matrix(rng, 20)
        res = qr_prepivoted(a)
        np.testing.assert_allclose(res.reconstruct(), a, atol=1e-10)
        assert res.sync_points == 1

    def test_orthogonality(self, rng):
        a = random_matrix(rng, 25, 25)
        for fn in (qr_pivoted, qr_prepivoted):
            q = fn(a).q
            np.testing.assert_allclose(q.T @ q, np.eye(25), atol=1e-12)

    def test_r_upper_triangular(self, rng):
        a = random_matrix(rng, 16, 16)
        for fn in (qr_pivoted, qr_prepivoted):
            r = fn(a).r
            np.testing.assert_allclose(np.tril(r, -1), 0.0, atol=1e-13)

    def test_pivoted_diagonal_descending(self, rng):
        a = random_matrix(rng, 30, 30, cond=1e8)
        r = qr_pivoted(a).r
        d = np.abs(np.diag(r))
        assert np.all(d[1:] <= d[:-1] * (1 + 1e-12))

    def test_prepivot_on_graded_matrix_nearly_descending(self, rng):
        """On an already-graded matrix the pre-pivoted R diagonal is
        descending to within the grading — the paper's key structural
        observation."""
        a = graded_matrix(rng, 24, span=10)
        r = qr_prepivoted(a).r
        d = np.abs(np.diag(r))
        # allow local reorderings but require global grading preserved
        assert d[0] / d[-1] > 1e6

    def test_prepivot_with_external_permutation(self, rng):
        a = graded_matrix(rng, 12)
        piv = np.arange(12)[::-1].copy()
        res = qr_prepivoted(a, piv=piv)
        assert np.array_equal(res.piv, piv)
        np.testing.assert_allclose(res.reconstruct(), a, atol=1e-10)

    def test_prepivot_rejects_bad_permutation_length(self, rng):
        a = random_matrix(rng, 6, 6)
        with pytest.raises(ValueError):
            qr_prepivoted(a, piv=np.arange(5))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            qr_prepivoted(np.ones(5))
