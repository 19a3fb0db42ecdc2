"""Unit tests for the measurement collector."""

import numpy as np
import pytest

from repro import HubbardModel, MultilayerLattice, SquareLattice
from repro.hamiltonian import free_greens_function
from repro.measure import MeasurementCollector


@pytest.fixture
def square_g():
    lat = SquareLattice(4, 4)
    model = HubbardModel(lat, u=0.0, beta=2.0)
    g = free_greens_function(model.kinetic_matrix(), 2.0)
    return lat, g


class TestCollection:
    def test_scalar_set_always_present(self, square_g):
        lat, g = square_g
        c = MeasurementCollector(lat)
        c.measure(g, g)
        names = set(c.accumulator.names())
        assert {"sign", "density", "double_occupancy", "kinetic_energy"} <= names

    def test_array_set_for_square_lattice(self, square_g):
        lat, g = square_g
        c = MeasurementCollector(lat)
        c.measure(g, g)
        names = set(c.accumulator.names())
        assert {"momentum_distribution", "spin_zz", "charge_nn",
                "swave_pairing", "af_structure_factor"} <= names

    def test_odd_lattice_drops_af_factor_only(self):
        lat = SquareLattice(3, 3)
        model = HubbardModel(lat, u=0.0, beta=2.0)
        g = free_greens_function(model.kinetic_matrix(), 2.0)
        c = MeasurementCollector(lat)
        c.measure(g, g)
        names = set(c.accumulator.names())
        assert "af_structure_factor" not in names
        assert "spin_zz" in names

    def test_with_arrays_false(self, square_g):
        lat, g = square_g
        c = MeasurementCollector(lat, with_arrays=False)
        c.measure(g, g)
        assert "momentum_distribution" not in c.accumulator.names()

    def test_multilayer_scalars_only(self):
        lat = MultilayerLattice(2, 2, 2)
        model = HubbardModel(lat, u=0.0, beta=1.0)
        g = free_greens_function(model.kinetic_matrix(), 1.0)
        c = MeasurementCollector(lat)
        c.measure(g, g)
        names = set(c.accumulator.names())
        assert "momentum_distribution" not in names
        assert "kinetic_energy" in names

    def test_sign_weighting(self, square_g):
        """Observables are recorded sign-weighted: with sign = -1 the
        stored density sample flips sign while 'sign' records -1."""
        lat, g = square_g
        c = MeasurementCollector(lat)
        c.accumulator.track("density")
        c.accumulator.track("sign")
        c.measure(g, g, sign=1.0)
        c.measure(g, g, sign=-1.0)
        dens = c.accumulator.series("density")
        assert dens[0] == pytest.approx(-dens[1])
        np.testing.assert_array_equal(c.accumulator.series("sign"), [1, -1])

    def test_n_measurements(self, square_g):
        lat, g = square_g
        c = MeasurementCollector(lat)
        assert c.n_measurements == 0
        c.measure(g, g)
        c.measure(g, g)
        assert c.n_measurements == 2

    def test_results_reduce(self, square_g):
        lat, g = square_g
        c = MeasurementCollector(lat)
        for _ in range(8):
            c.measure(g, g)
        out = c.results(n_bins=4)
        assert out["density"].n_samples == 8
        # identical samples -> zero error
        assert float(out["density"].error) == 0.0

    def test_tperp_forwarded(self):
        lat = MultilayerLattice(2, 2, 2)
        # coupled layers so G carries interlayer coherence the two
        # collector weightings can disagree about
        model = HubbardModel(lat, u=0.0, beta=1.0, t_perp=1.0)
        g = free_greens_function(model.kinetic_matrix(), 1.0)
        c_on = MeasurementCollector(lat, t_perp=1.0)
        c_off = MeasurementCollector(lat, t_perp=0.0)
        c_on.measure(g, g)
        c_off.measure(g, g)
        ke_on = c_on.accumulator.estimate("kinetic_energy").mean
        ke_off = c_off.accumulator.estimate("kinetic_energy").mean
        assert ke_on != ke_off
