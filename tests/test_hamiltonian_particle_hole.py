"""The particle-hole image of the spin-down sector: which models qualify,
and the identities the one-sector engine relies on, against the sector
computed on its own (a factory with ``particle_hole = None``)."""

import numpy as np
import pytest

from repro import (
    BMatrixFactory,
    HSField,
    HubbardModel,
    MultilayerLattice,
    SquareLattice,
)
from repro.core import GreensFunctionEngine
from repro.dqmc import sweep
from repro.hamiltonian import particle_hole_image, sublattice_sign
from repro.lattice import GeneralLattice
from tests.helpers import dense_twin, relerr


def factory(lattice, kinetic="exact", **model):
    model = HubbardModel(lattice, **{"u": 4.0, "beta": 2.0, "n_slices": 20, **model})
    return BMatrixFactory(model, kinetic=kinetic)


def engine_pair(seed, beta=2.0, kinetic="exact", lx=4, ly=4, u=4.0):
    """A one-sector engine and a two-sector one on the same field."""
    engines = []
    for derived in (True, False):
        fac = factory(
            SquareLattice(lx, ly), kinetic, u=u, beta=beta, n_slices=int(10 * beta)
        )
        if not derived:
            fac.particle_hole = None
        rng = np.random.default_rng(seed)
        field = HSField.random(fac.model.n_slices, fac.n, rng)
        engines.append(
            GreensFunctionEngine(fac, field, cluster_size=5, precision="full64")
        )
    return engines


class TestDecision:
    @pytest.mark.parametrize("kinetic", ["exact", "checkerboard"])
    @pytest.mark.parametrize("shape", [(4, 4), (6, 4), (2, 4), (8, 2)])
    @pytest.mark.parametrize("u", [0.0, 4.0])
    def test_even_rectangle_at_half_filling_has_one_sector(self, kinetic, shape, u):
        fac = factory(SquareLattice(*shape), kinetic, u=u)
        assert fac.particle_hole is not None
        x, y = np.divmod(np.arange(fac.n), shape[0])[::-1]
        lam = fac.particle_hole.lam
        np.testing.assert_array_equal(lam, lam[0] * (-1.0) ** (x + y))
        field = HSField.ordered(fac.model.n_slices, fac.n)
        assert GreensFunctionEngine(fac, field).sectors == (1,)

    @pytest.mark.parametrize("kinetic", ["exact", "checkerboard"])
    @pytest.mark.parametrize(
        "shape, mu", [((4, 4), -0.5), ((4, 4), 0.3), ((3, 3), 0.0), ((5, 4), 0.0)]
    )
    def test_doped_or_odd_keeps_two_sectors(self, kinetic, shape, mu):
        fac = factory(SquareLattice(*shape), kinetic, mu=mu)
        assert fac.particle_hole is None
        field = HSField.ordered(fac.model.n_slices, fac.n)
        assert GreensFunctionEngine(fac, field).sectors == (1, -1)

    @pytest.mark.parametrize(
        "lattice, derived",
        [
            (MultilayerLattice(4, 4, 2), True),
            (MultilayerLattice(3, 4, 2), False),
            (dense_twin(SquareLattice(4, 4)), True),
            (GeneralLattice.chain(6), True),
            (GeneralLattice.chain(5), False),
            (GeneralLattice.triangle(), False),
        ],
        ids=["bilayer-4x4", "bilayer-3x4", "dense-twin", "ring-6", "ring-5",
             "triangle"],
    )
    def test_any_lattice_by_its_hopping_graph(self, lattice, derived):
        assert (factory(lattice).particle_hole is not None) is derived

    def test_sign_is_checked_entry_by_entry(self):
        k = -SquareLattice(4, 4).adjacency
        assert sublattice_sign(k) is not None
        k[0, 0] = 0.1  # an on-site term: no sign turns it into its negative
        assert sublattice_sign(k) is None

    def test_realized_propagator_is_verified(self):
        """A graph that 2-colours is not enough: the propagator the
        kernels apply must satisfy ``Lambda B Lambda = B^{-T}``."""
        fac = factory(SquareLattice(4, 4))
        k = fac.model.kinetic_matrix()
        expk, inv = fac.exponentials()
        assert particle_hole_image(k, expk, inv) is not None
        assert particle_hole_image(k, expk * 1.01, inv) is None


class TestIdentities:
    """The derived down sector against the one computed on its own."""

    @pytest.mark.parametrize("kinetic", ["exact", "checkerboard"])
    @pytest.mark.parametrize("beta", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_equal_time_at_every_boundary(self, seed, beta, kinetic):
        one, two = engine_pair(seed, beta, kinetic)
        image = one.particle_hole
        for c in range(one.n_clusters + 1):
            g_dn = two.boundary_greens(-1, c)
            assert relerr(image.greens(one.boundary_greens(1, c)), g_dn) <= 1e-12

    @pytest.mark.parametrize("beta", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_displaced_from_the_same_join(self, seed, beta):
        """``G_-(tau_c, 0)`` from the up join (``-Lambda G_+(0, tau)^T
        Lambda``, ``Lambda G_+^T Lambda`` at the one-sided indices)
        against the two-sector join of the down chain; the up one and
        ``G_+`` are bit for bit what the two-sector engine gives."""
        one, two = engine_pair(seed, beta)
        for c in range(one.n_clusters + 1):
            g, (tau_up, tau_dn) = one.boundary_greens(1, c, displaced=True)
            g_two, tau_two = two.boundary_greens(1, c, displaced=True)
            assert np.array_equal(g, g_two) and np.array_equal(tau_up, tau_two)
            _, ref = two.boundary_greens(-1, c, displaced=True)
            assert relerr(tau_dn, ref) <= 1e-11, c

    @pytest.mark.parametrize("kinetic", ["exact", "checkerboard"])
    @pytest.mark.parametrize("beta", [2.0, 8.0])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_log_weight(self, seed, beta, kinetic):
        one, two = engine_pair(seed, beta, kinetic)
        sign, log_w = one.log_weight()
        sign_two, log_w_two = two.log_weight()
        assert sign == sign_two == 1.0
        assert abs(log_w - log_w_two) <= 1e-10 * abs(log_w_two)
        assert one.configuration_sign() == 1.0

    @pytest.mark.parametrize("kinetic", ["exact", "checkerboard"])
    def test_sweeps_run_the_two_sector_chain(self, kinetic):
        """Same seed, same field: the one-sector sweeps accept what the
        two-sector ones accept, carry the same up sector, and the image
        of it is the down sector the two-sector engine carries."""
        one, two = engine_pair(7, 4.0, kinetic)
        rngs = [np.random.default_rng(1), np.random.default_rng(1)]
        for direction in ("forward", "backward") * 2:
            seen = []
            stats = [
                sweep(eng, rng, direction=direction,
                      on_boundary=lambda c, g, s: seen.append(g))
                for eng, rng in zip((one, two), rngs)
            ]
            assert stats[0].accepted == stats[1].accepted > 0
            assert np.array_equal(one.field.h, two.field.h)
            half = len(seen) // 2
            for g_one, g_two in zip(seen[:half], seen[half:]):
                assert set(g_one) == {1} and set(g_two) == {1, -1}
                assert relerr(g_one[1], g_two[1]) <= 1e-12
                derived = one.particle_hole.greens(g_one[1])
                assert relerr(derived, g_two[-1]) <= 1e-12

    def test_mixed_image_keeps_the_compute_dtype(self):
        fac = factory(SquareLattice(4, 4))
        g = np.random.default_rng(0).random((16, 16)).astype(np.float32)
        out = fac.particle_hole.greens(g)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        lam = fac.particle_hole.lam
        conjugated = (lam[:, None] * g.T * lam[None, :]).astype(np.float32)
        np.testing.assert_array_equal(
            out, np.eye(16, dtype=np.float32) - conjugated
        )
