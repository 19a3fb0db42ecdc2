"""``G(k, tau)`` as a run forms it: ``greens_displacement_average(...,
transpose=True)`` then ``fourier_two_point`` - the pair
``Simulation._dynamic_sample`` composes - on the reference ``G(tau, 0)``."""

import numpy as np
import pytest

from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
from repro.hamiltonian import free_dispersion_2d
from repro.lattice import fourier_two_point, momentum_grid
from repro.measure import greens_displacement_average
from tests.oracles.displaced import displaced_greens


@pytest.fixture
def free_setup(rng):
    lat = SquareLattice(4, 4)
    model = HubbardModel(lat, u=0.0, beta=4.0, n_slices=40)
    fac = BMatrixFactory(model)
    field = HSField.random(40, 16, rng)
    return lat, model, fac, field


def free_gk_tau(model, lat, tau):
    k = momentum_grid(lat.lx, lat.ly)
    eps = free_dispersion_2d(k[:, 0], k[:, 1])
    f = 1.0 / (1.0 + np.exp(model.beta * eps))
    return np.exp(-tau * eps) * (1.0 - f)


def momentum_greens_tau(lat, g_tau):
    return fourier_two_point(
        lat, greens_displacement_average(lat, g_tau, transpose=True)
    )


class TestMomentumGreensTau:
    def test_free_analytic(self, free_setup):
        lat, model, fac, field = free_setup
        l = 19  # tau = 2.0
        g_tau = displaced_greens(fac, field, 1, l)
        got = momentum_greens_tau(lat, g_tau)
        expected = free_gk_tau(model, lat, (l + 1) * model.dtau)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_local_is_k_average(self, free_setup):
        """The k-average of ``G(k, tau)`` is ``G_loc = Tr G(tau) / N``, the
        displacement-0 entry the run records as ``g_loc_tau``."""
        lat, model, fac, field = free_setup
        g_tau = displaced_greens(fac, field, 1, 9)
        avg = greens_displacement_average(lat, g_tau, transpose=True)
        gk = fourier_two_point(lat, avg)
        local = np.trace(g_tau) / lat.n_sites
        assert avg[0] == pytest.approx(local, abs=1e-12)
        assert local == pytest.approx(gk.mean(), abs=1e-12)

    def test_decay_with_tau_away_from_fermi_surface(self, free_setup):
        """G(k, tau) at a gapped momentum decays in tau; at the Fermi
        surface it stays ~flat around beta/2."""
        lat, model, fac, field = free_setup
        gk = {}
        for l in (9, 19):
            g_tau = displaced_greens(fac, field, 1, l)
            gk[l] = momentum_greens_tau(lat, g_tau)
        pi_pi = lat.index(2, 2)  # eps = +4: empty band edge, decays fast
        fs = lat.index(2, 0)  # eps = 0: Fermi surface
        assert gk[19][pi_pi] < gk[9][pi_pi] * 0.1
        assert gk[19][fs] == pytest.approx(gk[9][fs], rel=0.3)
