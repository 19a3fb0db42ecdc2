"""Unit tests for conditioning diagnostics and the cluster-size choice."""

import numpy as np
import pytest

from repro import HubbardModel, SquareLattice
from repro.linalg import (
    chain_conditioning_report,
    max_safe_cluster_size,
    slice_condition_bound,
)
from repro.linalg.condition import divisor_near, divisors


class TestSliceBound:
    def test_is_actually_an_upper_bound(self):
        """cond(B) computed exactly must respect the bound, for several
        parameter points and fields."""
        from repro import BMatrixFactory, HSField

        rng = np.random.default_rng(0)
        for u, beta in [(2.0, 2.0), (8.0, 4.0)]:
            model = HubbardModel(SquareLattice(4, 4), u=u, beta=beta, n_slices=16)
            fac = BMatrixFactory(model)
            field = HSField.random(16, 16, rng)
            b = fac.b_matrix(field, 0, 1)
            cond = np.linalg.cond(b)
            w = np.linalg.eigvalsh(model.kinetic_matrix())
            bound = slice_condition_bound(model.nu, model.dtau, w[-1] - w[0])
            assert cond <= bound * (1 + 1e-10), (u, beta)

    def test_free_limit(self):
        # nu = 0: the bound is just the kinetic spread
        assert slice_condition_bound(0.0, 0.1, 8.0) == pytest.approx(
            np.exp(0.8)
        )


class TestMaxSafeClusterSize:
    def test_decreases_with_difficulty(self):
        easy = max_safe_cluster_size(0.2, 0.1, 8.0)
        hard = max_safe_cluster_size(1.0, 0.1, 8.0)
        assert easy > hard >= 1

    def test_free_fermions_unbounded(self):
        assert max_safe_cluster_size(0.0, 0.0001, 0.0) >= 10**6

    def test_never_below_one(self):
        assert max_safe_cluster_size(10.0, 1.0, 8.0) == 1

    def test_safety_margin_monotone(self):
        lo = max_safe_cluster_size(0.5, 0.125, 8.0, safety_digits=2)
        hi = max_safe_cluster_size(0.5, 0.125, 8.0, safety_digits=8)
        assert lo >= hi


class TestDivisors:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(13) == [1, 13]

    def test_divisor_near_prefers_window(self):
        # prime slice count: the only divisors are 1 and n; the window
        # 2 <= d <= cap is empty, so the whole chain wins over k = 1
        assert divisor_near(13, 10) == 13
        assert divisor_near(12, 10, cap=11) == 6
        assert divisor_near(32, 10) == 8

    def test_divisor_near_ties_prefer_smaller(self):
        # 3 and 5 do not divide 12; 4 and 6 are equidistant from 5
        assert divisor_near(12, 5) == 4


class TestReport:
    def test_paper_parameters_allow_k10(self):
        """At the paper's production point (U = 2, dtau = 0.2) the bound
        must admit the k = 10 the paper uses."""
        model = HubbardModel(
            SquareLattice(8, 8), u=2.0, beta=8.0, n_slices=40
        )
        rep = chain_conditioning_report(model)
        assert rep.suggested_cluster_size == 10

    def test_suggestion_divides_l(self):
        model = HubbardModel(
            SquareLattice(4, 4), u=8.0, beta=8.0, n_slices=48
        )
        rep = chain_conditioning_report(model)
        assert model.n_slices % rep.suggested_cluster_size == 0

    def test_suggested_k_is_numerically_safe(self):
        """Running the engine with the suggested k must agree with the
        per-slice (k = 1) evaluation to the promised headroom."""
        from repro import BMatrixFactory, HSField
        from repro.core import GreensFunctionEngine

        rng = np.random.default_rng(1)
        model = HubbardModel(SquareLattice(4, 4), u=8.0, beta=6.0, n_slices=48)
        rep = chain_conditioning_report(model)
        fac = BMatrixFactory(model)
        field = HSField.random(48, 16, rng)
        g_k = GreensFunctionEngine(
            fac, field, cluster_size=rep.suggested_cluster_size
        ).boundary_greens(1, 0)
        g_1 = GreensFunctionEngine(fac, field, cluster_size=1).boundary_greens(1, 0)
        err = np.linalg.norm(g_k - g_1) / np.linalg.norm(g_1)
        assert err < 10.0 ** (-2)  # comfortably inside the 4-digit margin

    def test_describe(self):
        model = HubbardModel(SquareLattice(2, 2), u=4.0, beta=2.0, n_slices=20)
        text = chain_conditioning_report(model).describe()
        assert "cond(B)" in text and "k <=" in text

    @pytest.mark.parametrize("n_slices, suggested", [(33, 11), (26, 13), (44, 11)])
    def test_bound_is_not_rounded_to_a_divisor(self, n_slices, suggested):
        """The safe bound is the conditioning's, whatever L is; only the
        suggestion has to divide L."""
        model = HubbardModel(
            SquareLattice(8, 8), u=4.0, beta=0.1 * n_slices, n_slices=n_slices
        )
        rep = chain_conditioning_report(model)
        assert rep.max_safe_cluster_size == 13
        assert rep.suggested_cluster_size == suggested
        assert "k <= 13" in rep.describe()
