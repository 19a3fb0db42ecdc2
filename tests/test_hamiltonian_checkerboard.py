"""Unit tests for the separable kinetic propagators (exact Kronecker
blocks and the checkerboard split)."""

from collections import Counter

import numpy as np
import pytest

from repro import HubbardModel, SquareLattice
from repro.hamiltonian import (
    CheckerboardPropagator,
    SeparablePropagator,
    bond_groups,
)
from repro.hamiltonian.kinetic import KineticPropagator
from tests.helpers import relerr


class TestBondGroups:
    @pytest.mark.parametrize(
        "shape", [(4, 4), (6, 4), (5, 5), (2, 2), (3, 1), (2, 1), (8, 6)]
    )
    def test_exact_cover_no_overlap(self, shape):
        """Every bond in exactly one group; no site twice per group."""
        lat = SquareLattice(*shape)
        counter = Counter()
        for group in bond_groups(lat):
            sites = [s for bond in group for s in bond]
            assert len(sites) == len(set(sites)), (shape, "overlap")
            for i, j in group:
                counter[frozenset((i, j))] += 1
        adj = lat.adjacency
        n = lat.n_sites
        unique_bonds = sum(
            1 for i in range(n) for j in range(i + 1, n) if adj[i, j] > 0
        )
        assert len(counter) == unique_bonds
        assert all(v == 1 for v in counter.values())

    def test_group_count_even_lattice(self):
        assert len(bond_groups(SquareLattice(4, 4))) == 4

    def test_group_count_odd_lattice(self):
        # odd extents add one wrap group per direction
        assert len(bond_groups(SquareLattice(5, 5))) == 6

    def test_single_row_lattice(self):
        groups = bond_groups(SquareLattice(4, 1))
        # 1D ring: even, odd (with wrap) — y contributes nothing
        assert len(groups) == 2


class TestPropagator:
    def test_orthogonal_like_structure(self):
        """Each group factor is symmetric positive definite, so the whole
        product is nonsingular with positive determinant."""
        cb = CheckerboardPropagator(SquareLattice(4, 4), t=1.0, dtau=0.1)
        b = cb.as_matrix()
        sign, _ = np.linalg.slogdet(b)
        assert sign == 1.0

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(0)
        cb = CheckerboardPropagator(SquareLattice(4, 4), t=1.3, dtau=0.15)
        a = rng.normal(size=(16, 5))
        np.testing.assert_allclose(
            cb.apply_left(a), cb.as_matrix() @ a, atol=1e-12
        )

    def test_mu_factor(self):
        cb0 = CheckerboardPropagator(SquareLattice(2, 2), t=1.0, dtau=0.1)
        cb1 = CheckerboardPropagator(SquareLattice(2, 2), t=1.0, dtau=0.1, mu=0.5)
        np.testing.assert_allclose(
            cb1.as_matrix(), np.exp(0.05) * cb0.as_matrix(), atol=1e-13
        )

    def test_error_small_and_quadratic_in_dtau(self):
        """Splitting error ~ O(dtau^2) on a lattice where the groups do
        not commute (6x4; note 4-extent rings have commuting even/odd
        groups, an amusing special case covered below)."""
        lat = SquareLattice(6, 4)
        errs = [
            CheckerboardPropagator(lat, 1.0, d).splitting_error()
            for d in (0.2, 0.1, 0.05)
        ]
        assert errs[0] < 0.05
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_four_ring_groups_commute(self):
        """On extent-4 rings the even/odd bond Hamiltonians commute, so
        the checkerboard split is *exact* — a structural coincidence
        worth pinning down so nobody "fixes" it."""
        err = CheckerboardPropagator(SquareLattice(4, 4), 1.0, 0.2).splitting_error()
        assert err < 1e-12

    def test_agrees_with_exact_propagator_action(self):
        """Sanity on physics: acting on the ground-state-like vector the
        checkerboard and exact propagators agree to the splitting error."""
        lat = SquareLattice(6, 6)
        model = HubbardModel(lat, u=0.0, beta=1.0, n_slices=10)
        exact = KineticPropagator(model.kinetic_matrix(), model.dtau).expk
        cb = CheckerboardPropagator(lat, 1.0, model.dtau)
        v = np.ones((36, 1)) / 6.0
        err = np.linalg.norm(cb.apply_left(v) - exact @ v)
        assert err < 1e-3


SHAPES = [(4, 4), (6, 3), (2, 5), (2, 2), (5, 5)]


def exact_pair(shape, mu):
    """The Kronecker-block operator and the dense eigh reference."""
    model = HubbardModel(SquareLattice(*shape), u=4.0, beta=2.0, n_slices=16, mu=mu)
    sep = SeparablePropagator(model.lattice, t=model.t, dtau=model.dtau, mu=mu)
    return sep, KineticPropagator(model.kinetic_matrix(), model.dtau)


class TestExactKroneckerBlocks:
    """``exp(-dtau K) = exp(-dtau Ky) (x) exp(-dtau Kx)`` on a periodic
    rectangle: doubled extent-2 bonds, ``lx != ly`` and odd extents."""

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matrix_and_inverse_match_dense_exponential(self, shape, mu):
        sep, dense = exact_pair(shape, mu)
        assert relerr(sep.as_matrix(), dense.expk) <= 1e-13
        assert relerr(sep.inverse_matrix(), dense.inv_expk) <= 1e-13
        assert sep.as_matrix(np.float32).dtype == np.float32
        assert all(b.dtype == np.float32 for b in sep.blocks(np.float32))
        eye32 = np.eye(sep.n_sites, dtype=np.float32)
        assert relerr(sep.apply_expk_left(eye32), dense.expk) <= 1e-6
        assert relerr(sep.apply_expk_left(eye32, inverse=True), dense.inv_expk) <= 1e-6

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_left_and_right_application_match_dense_products(self, shape, inverse):
        sep, dense = exact_pair(shape, 0.3)
        b = dense.inv_expk if inverse else dense.expk
        n = sep.n_sites
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(2, n, n))
        np.testing.assert_allclose(
            sep.apply_expk_left(stack, inverse=inverse), b @ stack, atol=1e-12
        )
        np.testing.assert_allclose(
            sep.apply_expk_right(stack, inverse=inverse), stack @ b, atol=1e-12
        )
        vec = rng.normal(size=n)
        np.testing.assert_allclose(
            sep.apply_expk_left(vec, inverse=inverse), b @ vec, atol=1e-12
        )
        np.testing.assert_allclose(
            sep.apply_expk_right(vec, inverse=inverse), vec @ b, atol=1e-12
        )

    def test_rejects_lattices_without_the_structure(self):
        from repro.hamiltonian import CheckerboardError
        from repro.lattice import MultilayerLattice

        with pytest.raises(CheckerboardError):
            SeparablePropagator(MultilayerLattice(2, 2, 2), t=1.0, dtau=0.1)
