"""Unit + integration tests for global worldline flips."""

import itertools

import numpy as np
import pytest

from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
from repro.core import GreensFunctionEngine
from repro.dqmc import sweep
from repro.dqmc.global_moves import GlobalMoveStats, global_site_flips
from tests.helpers import brute_greens, relerr


def make_engine(u=4.0, beta=1.5, n_slices=12, seed=0, lx=2, ly=1, backend=None):
    model = HubbardModel(SquareLattice(lx, ly), u=u, beta=beta, n_slices=n_slices)
    rng = np.random.default_rng(seed)
    field = HSField.random(n_slices, model.n_sites, rng)
    fac = BMatrixFactory(model)
    return GreensFunctionEngine(fac, field, cluster_size=4, backend=backend), rng


class TestMechanics:
    def test_counters(self):
        eng, rng = make_engine()
        stats, sign = global_site_flips(eng, rng, n_proposals=5)
        assert stats.proposed == 5
        assert 0 <= stats.accepted <= 5
        assert sign in (-1.0, 1.0)

    def test_rejected_move_restores_field(self):
        """Force rejection (zero-probability random draw impossible, so
        instead: propose and verify either the flip stuck or the field
        is exactly restored)."""
        eng, rng = make_engine(seed=3)
        before = eng.field.h.copy()
        stats, _ = global_site_flips(eng, rng, sites=np.array([1]))
        after = eng.field.h
        if stats.accepted:
            assert np.array_equal(after[:, 1], -before[:, 1])
        else:
            assert np.array_equal(after, before)
        # the untouched site is never modified
        assert np.array_equal(after[:, 0], before[:, 0])

    def test_engine_consistent_after_moves(self):
        eng, rng = make_engine(seed=4, lx=2, ly=2)
        global_site_flips(eng, rng, n_proposals=4)
        for sigma in (1, -1):
            g = eng.boundary_greens(sigma, 0)
            assert relerr(g, brute_greens(eng.factory, eng.field, sigma)) < 1e-9

    def test_half_filling_sign_stays_positive(self):
        eng, rng = make_engine(u=6.0, lx=2, ly=2)
        _, sign = global_site_flips(eng, rng, n_proposals=6)
        assert sign == 1.0

    def test_weight_is_evaluated_on_the_engine_backend(self):
        """The acceptance weight is ``engine.log_weight()``: its chain
        GEMMs and pre-pivot passes dispatch through the engine's backend
        (they used to run on a private serial numpy one)."""
        eng, rng = make_engine(lx=2, ly=2, backend="gpu-sim")
        counts = eng.backend.op_counts
        assert not counts.get("gemm") and not counts.get("prepivot_permutation")
        global_site_flips(eng, rng, n_proposals=2)
        # three log-weights at least, two spins, two chain steps each
        assert counts["gemm"] >= 3 * 2 * 2 * 2
        assert counts["prepivot_permutation"] >= 3 * 2 * 2

    def test_log_weight_matches_brute_force(self):
        eng, _ = make_engine(lx=2, ly=2, seed=5)
        sign, log_abs = eng.log_weight()
        brute = 1.0
        for sigma in (1, -1):
            m = np.eye(4) + eng.factory.full_product(eng.field, sigma)
            brute *= np.linalg.det(m)
        assert sign == np.sign(brute) == eng.configuration_sign()
        assert log_abs == pytest.approx(np.log(abs(brute)), rel=1e-10)

    def test_stats_merge(self):
        a = GlobalMoveStats(proposed=4, accepted=1)
        b = GlobalMoveStats(proposed=2, accepted=2)
        a.merge(b)
        assert (a.proposed, a.accepted) == (6, 3)
        assert a.acceptance_rate == 0.5
        assert GlobalMoveStats().acceptance_rate == 0.0


class TestDetailedBalance:
    def test_combined_chain_matches_enumeration(self):
        """Local sweeps + global flips must still sample the exact
        distribution (the decisive test of the acceptance rule)."""
        from tests.oracles.enumeration import enumerate_dqmc

        model = HubbardModel(SquareLattice(2, 1), u=4.0, beta=2.0, n_slices=4)
        reference = enumerate_dqmc(model)

        rng = np.random.default_rng(77)
        field = HSField.random(4, 2, rng)
        fac = BMatrixFactory(model)
        eng = GreensFunctionEngine(fac, field, cluster_size=4)

        from repro.measure import MeasurementCollector

        collector = MeasurementCollector(model.lattice, with_arrays=False)
        sign = eng.configuration_sign()
        for s in range(2500):
            st = sweep(eng, rng, max_delay=2, start_sign=sign)
            sign = st.sign
            _, sign = global_site_flips(eng, rng, n_proposals=1,
                                        start_sign=sign)
            if s >= 150:
                g_up = eng.boundary_greens(1, 0)
                g_dn = eng.boundary_greens(-1, 0)
                collector.measure(g_up, g_dn, sign)
        res = collector.results()
        est = res["double_occupancy"]
        assert abs(est.scalar - reference.double_occupancy) < 5 * est.error
        assert res["density"].scalar == pytest.approx(
            reference.density, abs=1e-9
        )
