"""Unit tests for spin-spin correlations."""

import numpy as np
import pytest

from repro import HubbardModel, Simulation, SquareLattice
from repro.hamiltonian import free_greens_function
from repro.measure import (
    af_structure_factor,
    correlation_grid,
    longest_distance_correlation,
    spin_zz_correlation,
)


@pytest.fixture
def free_case():
    lat = SquareLattice(4, 4)
    model = HubbardModel(lat, u=0.0, beta=3.0)
    g = free_greens_function(model.kinetic_matrix(), 3.0)
    return lat, g


class TestFreeLimit:
    def test_local_moment_free_value(self, free_case):
        """U = 0 local moment: <m_z^2> = 2(<n> - 2<n+ n->)/2... at half
        filling with uncorrelated spins, C_zz(0) = <n> - 2<n+><n-> per
        site = 1 - 2 * 1/4 = 1/2."""
        lat, g = free_case
        czz = spin_zz_correlation(lat, g, g)
        assert czz[0] == pytest.approx(0.5, abs=1e-10)

    def test_wick_vs_brute_force_dimer(self):
        """Check the Wick contraction against a hand-expanded 2-site
        formula with an arbitrary (asymmetric) G."""
        lat = SquareLattice(2, 1)
        rng = np.random.default_rng(0)
        g_up = rng.normal(size=(2, 2))
        g_dn = rng.normal(size=(2, 2))
        czz = spin_zz_correlation(lat, g_up, g_dn)

        def n(g, i):
            return 1.0 - g[i, i]

        def nn_same(g, a, b):
            # <n_a n_b> for one spin: n_a n_b + (delta - G(b,a)) G(a,b)
            d = 1.0 if a == b else 0.0
            return n(g, a) * n(g, b) + (d - g[b, a]) * g[a, b]

        expected = np.zeros(2)
        for r in range(2):
            acc = 0.0
            for b in range(2):
                a = (b + r) % 2
                acc += (
                    nn_same(g_up, a, b)
                    + nn_same(g_dn, a, b)
                    - n(g_up, a) * n(g_dn, b)
                    - n(g_dn, a) * n(g_up, b)
                )
            expected[r] = acc / 2.0
        np.testing.assert_allclose(czz, expected, atol=1e-12)


class TestInteractingPattern:
    @pytest.fixture(scope="class")
    def mc_czz(self):
        model = HubbardModel(SquareLattice(4, 4), u=6.0, beta=3.0, n_slices=24)
        sim = Simulation(model, seed=8, cluster_size=8)
        res = sim.run(warmup_sweeps=15, measurement_sweeps=60)
        return np.asarray(res.observables["spin_zz"].mean)

    def test_antiferromagnetic_chessboard(self, mc_czz):
        """Half-filled repulsive Hubbard: C_zz alternates in sign with
        sublattice parity (paper Fig 7's pattern)."""
        lat = SquareLattice(4, 4)
        for r in range(1, 16):
            x, y = lat.coords(r)
            parity = (-1) ** (x + y)
            assert np.sign(mc_czz[r]) == parity, (r, mc_czz[r])

    def test_af_structure_factor_positive_and_dominant(self, mc_czz):
        lat = SquareLattice(4, 4)
        s_af = af_structure_factor(lat, mc_czz)
        assert s_af > 1.0  # enhanced well above the U=0 value

    def test_longest_distance_extraction(self, mc_czz):
        lat = SquareLattice(4, 4)
        val = longest_distance_correlation(lat, mc_czz)
        assert val == mc_czz[lat.index(2, 2)]
        assert val > 0  # same sublattice at (2, 2)


class TestHelpers:
    def test_structure_factor_requires_even_lattice(self):
        with pytest.raises(ValueError):
            af_structure_factor(SquareLattice(3, 4), np.zeros(12))

    def test_correlation_grid_centers_origin(self):
        lat = SquareLattice(4, 4)
        czz = np.arange(16.0)
        grid = correlation_grid(lat, czz)
        # displacement (0,0) (value 0.0) must sit at index (ly/2-1, lx/2-1)
        assert grid[1, 1] == 0.0

    def test_correlation_grid_shape(self):
        lat = SquareLattice(6, 4)
        grid = correlation_grid(lat, np.zeros(24))
        assert grid.shape == (4, 6)

    def test_structure_factor_of_perfect_neel(self):
        """A perfect (-1)^(x+y) pattern gives S(pi,pi) = N * amplitude."""
        lat = SquareLattice(4, 4)
        czz = np.array(
            [(-1.0) ** sum(lat.coords(r)) for r in range(16)]
        )
        assert af_structure_factor(lat, czz) == pytest.approx(16.0)


class TestSharedExchange:
    def test_exchange_formed_once_is_bit_identical(self):
        """``C_zz`` and ``C_nn`` from same-spin exchange vectors formed
        once (the collector's path) equal the ones each function forms
        itself, bit for bit."""
        from repro.measure import charge_density_correlation
        from repro.measure.equal_time import same_spin_exchange

        lat = SquareLattice(4, 4)
        g_up, g_dn = np.random.default_rng(3).normal(size=(2, 16, 16))
        exchange = tuple(same_spin_exchange(lat, g) for g in (g_up, g_dn))
        assert np.array_equal(
            spin_zz_correlation(lat, g_up, g_dn, exchange),
            spin_zz_correlation(lat, g_up, g_dn),
        )
        assert np.array_equal(
            charge_density_correlation(lat, g_up, g_dn, exchange),
            charge_density_correlation(lat, g_up, g_dn),
        )
