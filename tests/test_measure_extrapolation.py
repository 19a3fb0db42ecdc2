"""Unit tests for finite-size and Trotter extrapolation."""

import numpy as np
import pytest

from repro.measure import (
    extrapolate_finite_size,
    extrapolate_trotter,
    weighted_linear_fit,
)


class TestWeightedFit:
    def test_recovers_exact_line(self):
        x = np.array([0.1, 0.2, 0.3, 0.5])
        y = 2.0 + 3.0 * x
        res = weighted_linear_fit(x, y, np.full(4, 0.01))
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert res.slope == pytest.approx(3.0, abs=1e-10)
        assert res.chi2_per_dof == pytest.approx(0.0, abs=1e-12)

    def test_weights_matter(self):
        # one precise point at the truth, one wild point with huge error
        x = np.array([0.0, 0.0001, 1.0])
        y = np.array([5.0, 5.0, 100.0])
        err = np.array([0.001, 0.001, 1000.0])
        res = weighted_linear_fit(x, y, err)
        assert res.value == pytest.approx(5.0, abs=0.01)

    def test_error_statistically_calibrated(self):
        """Over many noisy realizations, the pull of the intercept must
        be ~N(0,1): check its standard deviation is ~1."""
        rng = np.random.default_rng(0)
        x = np.linspace(0.1, 1.0, 8)
        sigma = 0.05
        pulls = []
        for _ in range(300):
            y = 1.0 + 2.0 * x + rng.normal(scale=sigma, size=8)
            res = weighted_linear_fit(x, y, np.full(8, sigma))
            pulls.append((res.value - 1.0) / res.error)
        assert np.std(pulls) == pytest.approx(1.0, abs=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_linear_fit([1.0], [1.0], [0.1])
        with pytest.raises(ValueError):
            weighted_linear_fit([1, 2], [1, 2], [0.1, -0.1])
        with pytest.raises(ValueError):
            weighted_linear_fit([1, 1], [1, 2], [0.1, 0.1])
        with pytest.raises(ValueError):
            weighted_linear_fit([1, 2], [1, 2, 3], [0.1, 0.1, 0.1])

    def test_two_points_chi2_zero(self):
        res = weighted_linear_fit([1, 2], [3, 5], [0.1, 0.1])
        assert res.chi2_per_dof == 0.0


class TestPhysicsExtrapolations:
    def test_finite_size_model(self):
        """y(L) = y_inf + a/L recovered from synthetic data."""
        sizes = [8, 12, 16, 24, 32]
        y_inf, a = 0.12, 0.8
        y = [y_inf + a / L for L in sizes]
        res = extrapolate_finite_size(sizes, y, [1e-4] * 5)
        assert res.value == pytest.approx(y_inf, abs=1e-6)
        assert res.slope == pytest.approx(a, abs=1e-4)

    def test_trotter_model_against_enumeration(self):
        """Extrapolating the exact Trotterized dimer results in dtau^2
        must land on the continuum ED answer."""
        from repro import HubbardModel, SquareLattice
        from tests.oracles.ed import HubbardED
        from tests.oracles.enumeration import enumerate_dqmc

        beta, u = 1.0, 4.0
        model = HubbardModel(SquareLattice(2, 1), u=u, beta=beta, n_slices=2)
        exact = HubbardED(model.kinetic_matrix(), u=u).double_occupancy(beta)
        dtaus, values = [], []
        # dtau <= 0.25 so the quadratic term dominates (enumeration cost
        # caps L at 8 for the dimer: 2^(N*L) configurations)
        for nl in (4, 8):
            res = enumerate_dqmc(
                HubbardModel(SquareLattice(2, 1), u=u, beta=beta, n_slices=nl)
            )
            dtaus.append(beta / nl)
            values.append(res.double_occupancy)
        fit = extrapolate_trotter(dtaus, values, [1e-8] * 2)
        # extrapolation must beat the best raw point by a wide margin
        best_raw = abs(values[-1] - exact)
        assert abs(fit.value - exact) < 0.3 * best_raw
