"""Unit tests for the stable (I + QDT)^{-1} evaluation."""

import numpy as np
import pytest

from repro.linalg import (
    GradedDecomposition,
    naive_inverse,
    stable_inverse_from_graded,
    stable_inverse_two_sided,
    stable_log_det_from_graded,
)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def make_graded(rng, n=10, span=4, signs=True):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    d = np.logspace(span / 2.0, -span / 2.0, n)
    if signs:
        d *= rng.choice([-1.0, 1.0], size=n)
    t = np.triu(rng.normal(size=(n, n)))
    np.fill_diagonal(t, 1.0)
    return GradedDecomposition(q=q, d=d, t=t)


class TestStableInverse:
    def test_matches_naive_on_benign_grading(self, rng):
        g = make_graded(rng, span=4)
        expected = naive_inverse(g.dense())
        got = stable_inverse_from_graded(g)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_survives_extreme_grading_analytic(self, rng):
        """With a 10^200 dynamic range the dense product is not even
        representable; a diagonal chain has the exact answer
        ``G = diag(1/(1+d))``, which the stable path must reproduce."""
        d = np.array([1e100, 1e40, 1e3, 1.0, 1e-3, 1e-40, 1e-100])
        n = d.size
        g = GradedDecomposition(q=np.eye(n), d=d, t=np.eye(n))
        ginv = stable_inverse_from_graded(g)
        np.testing.assert_allclose(ginv, np.diag(1.0 / (1.0 + d)), rtol=1e-12)

    def test_finite_at_extreme_grading_random(self, rng):
        n = 8
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = np.logspace(100, -100, n)
        t = np.triu(rng.normal(size=(n, n)))
        np.fill_diagonal(t, 1.0)
        g = GradedDecomposition(q=q, d=d, t=t)
        ginv = stable_inverse_from_graded(g)
        assert np.all(np.isfinite(ginv))
        # G must annihilate the huge directions: ||G|| stays O(1).
        assert np.linalg.norm(ginv) < 1e3

    def test_identity_chain(self):
        n = 6
        g = GradedDecomposition(q=np.eye(n), d=np.ones(n), t=np.eye(n))
        np.testing.assert_allclose(
            stable_inverse_from_graded(g), 0.5 * np.eye(n), atol=1e-14
        )


class Gemm:
    """The one backend operation the two-sided inversion uses."""

    def __init__(self):
        self.categories = []

    def gemm(self, a, b, category="gemm"):
        self.categories.append(category)
        return a @ b


class TestTwoSidedInverse:
    """``(I + R L)^{-1}`` from ``R = QDT`` and the decomposition of ``L^T``."""

    def test_matches_naive_on_benign_grading(self, rng):
        right, left_t = make_graded(rng, span=4), make_graded(rng, span=3)
        backend = Gemm()
        got = stable_inverse_two_sided(right, left_t, backend)
        expected = naive_inverse(right.dense() @ left_t.dense().T)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)
        assert backend.categories == ["stratification"] * 3

    def test_displaced_join_shares_the_factorization(self, rng):
        """``displaced=True``: ``(I + R L)^{-1} R`` next to a bit-identical
        ``G``, one more GEMM and no second bracket."""
        right, left_t = make_graded(rng, span=4), make_graded(rng, span=3)
        backend = Gemm()
        g, g_tau = stable_inverse_two_sided(right, left_t, backend, displaced=True)
        assert np.array_equal(g, stable_inverse_two_sided(right, left_t, Gemm()))
        r = right.dense()
        expected = naive_inverse(r @ left_t.dense().T) @ r
        np.testing.assert_allclose(g_tau, expected, rtol=1e-9, atol=1e-12)
        assert backend.categories == ["stratification"] * 4

    def test_identity_prefix_is_the_transposed_one_sided_inverse(self, rng):
        n = 10
        one = GradedDecomposition(q=np.eye(n), d=np.ones(n), t=np.eye(n))
        left_t = make_graded(rng, span=12)
        got = stable_inverse_two_sided(one, left_t, Gemm())
        expected = stable_inverse_from_graded(left_t).T
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-13)

    def test_survives_extreme_grading_analytic(self):
        """Two diagonal chains whose product spans 10^300: the dense
        product overflows, the answer is ``diag(1 / (1 + d_R d_L))``."""
        d_r = np.array([1e100, 1e40, 1e3, 1.0, 1e-3, 1e-40, 1e-100])
        d_l = np.array([1e50, 1e10, 1e-3, -2.0, 1e-3, 1e-40, 1e-50])
        eye = np.eye(d_r.size)
        got = stable_inverse_two_sided(
            GradedDecomposition(q=eye, d=d_r, t=eye),
            GradedDecomposition(q=eye, d=d_l, t=eye),
            Gemm(),
        )
        np.testing.assert_allclose(
            got, np.diag(1.0 / (1.0 + d_r * d_l)), rtol=1e-12, atol=1e-300
        )

    def test_mismatched_sizes_raise(self, rng):
        with pytest.raises(ValueError):
            stable_inverse_two_sided(
                make_graded(rng, n=4), make_graded(rng, n=5), Gemm()
            )


class TestStableLogDet:
    def test_matches_direct_determinant(self, rng):
        g = make_graded(rng, span=3)
        sign, logdet = stable_log_det_from_graded(g)
        direct = np.linalg.det(np.eye(g.n) + g.dense())
        assert sign == pytest.approx(np.sign(direct))
        assert logdet == pytest.approx(np.log(abs(direct)), rel=1e-9)

    def test_no_overflow_at_extreme_grading(self, rng):
        n = 8
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = np.logspace(150, -150, n)
        t = np.triu(rng.normal(size=(n, n)))
        np.fill_diagonal(t, 1.0)
        g = GradedDecomposition(q=q, d=d, t=t)
        sign, logdet = stable_log_det_from_graded(g)
        assert np.isfinite(logdet)
        assert sign in (-1.0, 1.0)

    def test_identity_value(self):
        n = 4
        g = GradedDecomposition(q=np.eye(n), d=np.ones(n), t=np.eye(n))
        sign, logdet = stable_log_det_from_graded(g)
        assert sign == 1.0
        assert logdet == pytest.approx(n * np.log(2.0))


class TestNaiveInverse:
    def test_simple_case(self):
        a = np.diag([1.0, 3.0])
        np.testing.assert_allclose(
            naive_inverse(a), np.diag([0.5, 0.25]), atol=1e-14
        )

    def test_breaks_down_at_extreme_conditioning(self, rng):
        """Documents *why* stratification exists: the naive inverse loses
        all accuracy once the product's range exceeds double precision."""
        import warnings

        g = make_graded(rng, n=8, span=40, signs=False)
        dense = g.dense()
        with warnings.catch_warnings():
            # the ill-conditioned solve warning is the expected symptom
            warnings.simplefilter("ignore")
            naive = naive_inverse(dense)
        stable = stable_inverse_from_graded(g)
        err = np.linalg.norm(naive - stable) / np.linalg.norm(stable)
        assert err > 1e-8  # catastrophic relative to the 1e-12 stable path
