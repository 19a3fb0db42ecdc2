"""Integration tests against exact references.

Three layers of ground truth:

1. **HS enumeration** — exact for the Trotterized theory: validates the
   Monte Carlo sampler (sweep + rank-1 updates + stratification) with no
   discretization caveat.
2. **Exact diagonalization** — continuum imaginary time: validates that
   the Trotterized enumeration converges to the true quantum answer at
   the documented O(dtau^2) rate.
3. **Free fermions** — exact at any system size for U = 0.
"""

import numpy as np
import pytest

from repro import HubbardModel, Simulation, SquareLattice
from tests.oracles.ed import HubbardED
from tests.oracles.enumeration import enumerate_dqmc


def dimer_model(n_slices, beta=2.0, u=4.0):
    return HubbardModel(
        SquareLattice(2, 1), u=u, beta=beta, n_slices=n_slices
    )


class TestSamplerVsEnumeration:
    """MC with many sweeps must match exact enumeration at the same dtau."""

    @pytest.fixture(scope="class")
    def reference(self):
        return enumerate_dqmc(dimer_model(n_slices=4))

    @pytest.fixture(scope="class")
    def mc(self):
        sim = Simulation(
            dimer_model(n_slices=4), seed=20, cluster_size=4, max_delay=2
        )
        return sim.run(warmup_sweeps=200, measurement_sweeps=3000)

    def test_density(self, reference, mc):
        est = mc.observables["density"]
        assert est.scalar == pytest.approx(reference.density, abs=1e-9)

    def test_double_occupancy(self, reference, mc):
        est = mc.observables["double_occupancy"]
        assert abs(est.scalar - reference.double_occupancy) < 5 * est.error

    def test_kinetic_energy(self, reference, mc):
        est = mc.observables["kinetic_energy"]
        assert abs(est.scalar - reference.kinetic_energy) < 5 * est.error

    def test_spin_zz(self, reference, mc):
        czz = mc.observables["spin_zz"]
        got = float(np.asarray(czz.mean)[1])  # displacement (1, 0)
        err = float(np.asarray(czz.error)[1])
        assert abs(got - reference.spin_zz_nn) < 5 * max(err, 1e-4)

    def test_error_bars_are_honest(self, mc, reference):
        """The quoted error must not be wildly small: check the pull of
        double occupancy is O(1), not O(10)."""
        est = mc.observables["double_occupancy"]
        pull = abs(est.scalar - reference.double_occupancy) / est.error
        assert pull < 5.0

    def test_alternating_directions_sample_same_distribution(self, reference):
        """Forward/backward alternation (QUEST's sweep pattern, the
        driver's only order) converges to the same exact answers on a
        second seed with plain rank-1 updates."""
        sim = Simulation(
            dimer_model(n_slices=4), seed=21, cluster_size=4, max_delay=1,
        )
        res = sim.run(warmup_sweeps=200, measurement_sweeps=3000)
        assert res.observables["density"].scalar == pytest.approx(
            reference.density, abs=1e-9
        )
        est = res.observables["double_occupancy"]
        assert abs(est.scalar - reference.double_occupancy) < 5 * est.error


class TestTrotterConvergence:
    def test_enumeration_converges_to_ed_quadratically(self):
        """|enumeration(dtau) - ED| must shrink ~ dtau^2 (beta fixed)."""
        model = dimer_model(n_slices=2, beta=1.0)
        ed = HubbardED(model.kinetic_matrix(), u=model.u)
        exact = ed.double_occupancy(1.0)
        errors = []
        for nl in (2, 4, 8):
            res = enumerate_dqmc(dimer_model(n_slices=nl, beta=1.0))
            errors.append(abs(res.double_occupancy - exact))
        # halving dtau should cut the error by ~4; demand at least 2.5
        assert errors[0] / errors[1] > 2.5
        assert errors[1] / errors[2] > 2.5

    def test_density_exact_at_any_dtau(self):
        """Particle-hole symmetry holds slice-by-slice, so the density is
        exactly 1 at mu = 0 for every discretization."""
        for nl in (2, 4):
            res = enumerate_dqmc(dimer_model(n_slices=nl, beta=1.0))
            assert res.density == pytest.approx(1.0, abs=1e-12)

    def test_ed_self_consistency_u0(self):
        """ED at U = 0 must match the free-fermion closed form."""
        from repro.hamiltonian import free_greens_function
        from repro.measure import total_density

        model = dimer_model(n_slices=2, beta=1.7, u=0.0)
        ed = HubbardED(model.kinetic_matrix(), u=0.0)
        g = free_greens_function(model.kinetic_matrix(), 1.7)
        assert ed.density(1.7) == pytest.approx(total_density(g, g), abs=1e-10)

    def test_ed_strong_coupling_limit(self):
        """U >> t at low T: double occupancy is suppressed toward 0 and
        the local moment saturates."""
        model = dimer_model(n_slices=2, beta=8.0, u=12.0)
        ed = HubbardED(model.kinetic_matrix(), u=12.0)
        # the periodic 2-site ring has t_eff = 2t, so the residual double
        # occupancy ~ (4 t_eff / U)^2 scale is a few percent at U = 12
        assert ed.double_occupancy(8.0) < 0.05
        assert ed.double_occupancy(8.0) < 0.5 * ed.double_occupancy(0.25)
        # local moment <m_z^2> = <n> - 2<n+n-> -> 1
        assert ed.spin_zz(8.0, 0, 0) > 0.9

    def test_ed_antiferromagnetic_dimer(self):
        """The half-filled dimer ground state is a singlet: strictly
        negative nearest-neighbor spin correlation."""
        model = dimer_model(n_slices=2, beta=6.0, u=4.0)
        ed = HubbardED(model.kinetic_matrix(), u=4.0)
        assert ed.spin_zz(6.0, 0, 1) < -0.3


class TestFreeFermionPipeline:
    def test_full_mc_pipeline_at_u0(self):
        """Every U = 0 observable through the complete MC machinery must
        hit the analytic value to ~machine precision (the field decouples,
        so there is no statistical error at all)."""
        from repro import free_greens_function, momentum_grid
        from repro.hamiltonian import free_dispersion_2d
        from repro.measure import momentum_distribution

        lat = SquareLattice(4, 4)
        model = HubbardModel(lat, u=0.0, beta=4.0, n_slices=32)
        res = Simulation(model, seed=3, cluster_size=8).run(1, 3)
        nk = np.asarray(res.observables["momentum_distribution"].mean)
        k = momentum_grid(4, 4)
        eps = free_dispersion_2d(k[:, 0], k[:, 1])
        expected = 1.0 / (1.0 + np.exp(4.0 * eps))
        np.testing.assert_allclose(nk, expected, atol=1e-7)

    def test_trotter_error_absent_at_u0(self):
        """With U = 0 the Trotter decomposition is exact: L = 4 and
        L = 32 must agree to machine precision."""
        lat = SquareLattice(2, 2)
        vals = []
        for nl in (4, 32):
            model = HubbardModel(lat, u=0.0, beta=2.0, n_slices=nl)
            res = Simulation(model, seed=1, cluster_size=nl // 2).run(0, 1)
            vals.append(res.observables["kinetic_energy"].scalar)
        assert vals[0] == pytest.approx(vals[1], abs=1e-10)
