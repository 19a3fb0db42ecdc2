"""Unit + exact-reference tests for the symmetric-Trotter correction."""

import itertools

import numpy as np
import pytest

from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
from repro.measure import (
    HalfKineticTransform,
    kinetic_energy,
    momentum_distribution,
    symmetrized_greens,
)
from tests.oracles.ed import HubbardED


def enumerate_docc(model, symmetric: bool):
    """Exact Trotterized double occupancy under either measurement split."""
    fac = BMatrixFactory(model)
    n, nl = model.n_sites, model.n_slices
    transform = HalfKineticTransform(fac)
    z = val = 0.0
    for bits in itertools.product([-1.0, 1.0], repeat=n * nl):
        field = HSField(np.array(bits).reshape(nl, n))
        w = 1.0
        gs = {}
        for s in (1, -1):
            m = np.eye(n) + fac.full_product(field, s)
            w *= np.linalg.det(m)
            gs[s] = np.linalg.inv(m)
        if symmetric:
            gs = {s: transform.apply(g) for s, g in gs.items()}
        n_up = 1.0 - np.diag(gs[1])
        n_dn = 1.0 - np.diag(gs[-1])
        z += w
        val += w * float((n_up * n_dn).mean())
    return val / z


class TestTransform:
    def test_is_similarity(self, factory4x4, rng):
        tr = HalfKineticTransform(factory4x4)
        g = rng.normal(size=(16, 16))
        out = tr.apply(g)
        # similarity: spectrum preserved
        np.testing.assert_allclose(
            np.sort_complex(np.linalg.eigvals(out)),
            np.sort_complex(np.linalg.eigvals(g)),
            atol=1e-9,
        )

    def test_one_shot_matches_cached(self, factory4x4, rng):
        g = rng.normal(size=(16, 16))
        np.testing.assert_allclose(
            symmetrized_greens(factory4x4, g),
            HalfKineticTransform(factory4x4).apply(g),
            atol=1e-14,
        )

    def test_k_commuting_observables_invariant(self, factory4x4, field4x4, engine4x4):
        """KE and <n_k> commute with K, so the transform cannot change
        them (measured invariance, pinned)."""
        lat = factory4x4.model.lattice
        g = engine4x4.boundary_greens(1, 0)
        g_sym = symmetrized_greens(factory4x4, g)
        assert kinetic_energy(lat, g, g) == pytest.approx(
            kinetic_energy(lat, g_sym, g_sym), abs=1e-10
        )
        np.testing.assert_allclose(
            momentum_distribution(lat, g_sym),
            momentum_distribution(lat, g),
            atol=1e-10,
        )

    def test_changes_site_diagonal_observables(self, factory4x4, engine4x4):
        g = engine4x4.boundary_greens(1, 0)
        g_sym = symmetrized_greens(factory4x4, g)
        assert not np.allclose(np.diag(g_sym), np.diag(g))


class TestTrotterErrorReduction:
    @pytest.fixture(scope="class")
    def errors(self):
        beta, u = 1.0, 4.0
        lat = SquareLattice(2, 1)
        ed = HubbardED(
            HubbardModel(lat, u=u, beta=beta, n_slices=2).kinetic_matrix(), u=u
        )
        exact = ed.double_occupancy(beta)
        out = {}
        for nl in (4, 8):
            model = HubbardModel(lat, u=u, beta=beta, n_slices=nl)
            e_asym = enumerate_docc(model, symmetric=False) - exact
            e_sym = enumerate_docc(model, symmetric=True) - exact
            out[nl] = (e_asym, e_sym)
        return out

    def test_symmetric_error_smaller(self, errors):
        for nl, (e_a, e_s) in errors.items():
            assert abs(e_s) < abs(e_a), (nl, e_a, e_s)

    def test_errors_have_opposite_signs(self, errors):
        """The measured sign flip the averaging trick relies on."""
        for nl, (e_a, e_s) in errors.items():
            assert e_a * e_s < 0, (nl, e_a, e_s)

    def test_split_average_cancels_quadratic_term(self, errors):
        for nl, (e_a, e_s) in errors.items():
            avg_err = 0.5 * (e_a + e_s)
            assert abs(avg_err) < 0.35 * abs(e_a), (nl, e_a, e_s)

    def test_both_splits_still_quadratic(self, errors):
        (ea4, es4), (ea8, es8) = errors[4], errors[8]
        assert abs(ea4) / abs(ea8) > 2.5
        assert abs(es4) / abs(es8) > 2.5