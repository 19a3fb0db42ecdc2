"""Integration tests of physics behaviour on small interacting systems."""

import numpy as np
import pytest

from repro import HubbardModel, MultilayerLattice, Simulation, SquareLattice
from repro.measure.dynamic import momentum_greens_tau


class TestMethodEquivalence:
    def test_prepivot_and_qrp_walk_the_same_chain(self):
        """Algorithm 3 differs from Algorithm 2 at the 1e-12 level (paper
        Fig 2), far below any Metropolis threshold: the two methods must
        produce identical accept/reject histories over whole sweeps."""
        fields = {}
        for method in ("qrp", "prepivot"):
            model = HubbardModel(
                SquareLattice(4, 4), u=6.0, beta=2.0, n_slices=20
            )
            sim = Simulation(model, seed=77, method=method, cluster_size=10)
            sim.warmup(3)
            fields[method] = sim.field.h.copy()
        assert np.array_equal(fields["qrp"], fields["prepivot"])


class TestInteractionTrends:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for u in (0.0, 4.0, 8.0):
            model = HubbardModel(
                SquareLattice(4, 4), u=u, beta=3.0, n_slices=24
            )
            sim = Simulation(model, seed=13, cluster_size=8)
            # U = 8 thermalizes slowly under local flips: after 10 sweeps
            # S(pi, pi) still scatters 0.6 - 5 from seed to seed
            out[u] = sim.run(warmup_sweeps=200, measurement_sweeps=40)
        return out

    def test_double_occupancy_decreases_with_u(self, results):
        docc = [results[u].observables["double_occupancy"].scalar for u in (0, 4, 8)]
        assert docc[0] > docc[1] > docc[2]

    def test_local_moment_increases_with_u(self, results):
        moments = [
            float(np.asarray(results[u].observables["spin_zz"].mean)[0])
            for u in (0, 4, 8)
        ]
        assert moments[0] < moments[1] < moments[2]

    def test_af_structure_factor_enhanced_by_u(self, results):
        s0 = results[0.0].observables["af_structure_factor"].scalar
        s8 = results[8.0].observables["af_structure_factor"].scalar
        assert s8 > 1.5 * s0

    def test_all_runs_sign_free(self, results):
        for res in results.values():
            assert res.mean_sign == pytest.approx(1.0)


class TestMomentumDistributionShape:
    def test_fermi_surface_ordering_with_interaction(self):
        """At U = 2 the momentum distribution still shows a sharp Fermi
        surface: n(0,0) near 1, n(pi,pi) near 0, n on the FS ~ 0.5
        (paper Fig 5's structure, at bench scale)."""
        lat = SquareLattice(4, 4)
        model = HubbardModel(lat, u=2.0, beta=3.0, n_slices=24)
        res = Simulation(model, seed=4, cluster_size=8).run(10, 40)
        nk = np.asarray(res.observables["momentum_distribution"].mean)
        assert nk[lat.index(0, 0)] > 0.85
        assert nk[lat.index(2, 2)] < 0.15
        fs = nk[lat.index(2, 0)]  # (pi, 0) is on the U=0 Fermi surface
        assert 0.3 < fs < 0.7

    def test_ksum_rule_interacting(self):
        lat = SquareLattice(4, 4)
        model = HubbardModel(lat, u=4.0, beta=2.0, n_slices=16)
        res = Simulation(model, seed=5, cluster_size=8).run(5, 20)
        nk = np.asarray(res.observables["momentum_distribution"].mean)
        dens = res.observables["density"].scalar
        assert nk.mean() == pytest.approx(dens / 2.0, abs=1e-6)


class TestMultilayer:
    def test_bilayer_simulation_runs(self):
        """The interface geometry — the paper's motivating use case —
        must run end to end with sane output."""
        model = HubbardModel(
            MultilayerLattice(2, 2, 2), u=4.0, t_perp=0.8,
            beta=1.5, n_slices=12,
        )
        res = Simulation(model, seed=6, cluster_size=4).run(5, 15)
        assert res.observables["density"].scalar == pytest.approx(1.0, abs=1e-9)
        assert res.observables["kinetic_energy"].scalar < 0
        assert res.sweep_stats.acceptance_rate > 0.1

    def test_decoupled_layers_match_single_layer(self):
        """t_perp = 0 bilayer = two independent planes: densities and
        double occupancy agree with the single-layer run within errors."""
        single = Simulation(
            HubbardModel(SquareLattice(2, 2), u=4.0, beta=1.5, n_slices=12),
            seed=7, cluster_size=4,
        ).run(10, 60)
        bilayer = Simulation(
            HubbardModel(
                MultilayerLattice(2, 2, 2), u=4.0, t_perp=0.0,
                beta=1.5, n_slices=12,
            ),
            seed=8, cluster_size=4,
        ).run(10, 60)
        d1 = single.observables["double_occupancy"]
        d2 = bilayer.observables["double_occupancy"]
        err = np.hypot(float(d1.error), float(d2.error))
        assert abs(d1.scalar - d2.scalar) < 5 * err


class TestDynamicEstimator:
    """Each tau of the dynamic sample is taken at the boundary that
    produced it, inside the sweep; the estimator it replaced evaluated the
    whole series on the field the sweep ended with. Both are unbiased, so
    over one run their means must agree within errors."""

    N_SWEEPS = 320

    @pytest.fixture(scope="class")
    def run(self):
        from repro import HSField
        from repro.core import displaced_series_fast
        from tests.helpers import RecordingAccumulator

        model = HubbardModel(SquareLattice(4, 4), u=4.0, beta=4.0, n_slices=40)
        sim = Simulation(model, seed=23, cluster_size=10, measure_dynamic=True)
        sim.warmup(30)
        sim.collector.accumulator = RecordingAccumulator()
        reference = {"g_loc_tau": [], "g_k_tau": []}
        for _ in range(self.N_SWEEPS):
            sim.measure_sweeps(1)
            gloc, gk = 0.0, 0.0
            for sigma in (1, -1):
                _, greens = displaced_series_fast(
                    sim.factory, HSField(sim.field.h.copy()), sigma, 10
                )
                g = np.stack(greens)
                gloc = gloc + 0.5 * np.trace(g, axis1=1, axis2=2) / model.n_sites
                gk = gk + 0.5 * momentum_greens_tau(model.lattice, g)
            reference["g_loc_tau"].append(sim._sign * gloc)
            reference["g_k_tau"].append(sim._sign * gk)
        ours = sim.collector.accumulator
        return ours, {k: np.stack(ours.samples[k]) for k in reference}, {
            k: np.stack(v) for k, v in reference.items()
        }

    @staticmethod
    def estimate(series):
        from repro.stats import StreamingAccumulator

        acc = StreamingAccumulator()
        for x in series:
            acc.add("x", x)
        est = acc.estimate("x")
        return np.asarray(est.mean), np.asarray(est.error)

    @staticmethod
    def stars(gk):
        """``g_k_tau`` averaged over the C4v stars of the 4x4 momentum grid
        (the model's symmetry, so the expectation is star-constant): six
        classes per tau instead of sixteen correlated entries."""
        n = np.arange(4)
        fold = np.minimum(n, 4 - n)
        key = np.sort(np.stack(np.meshgrid(fold, fold), -1).reshape(16, 2), axis=1)
        classes = sorted({tuple(k) for k in key})
        proj = np.array([[tuple(k) == c for c in classes] for k in key], float)
        return gk @ (proj / proj.sum(axis=0))

    def test_agrees_with_the_end_of_sweep_series(self, run):
        """Per tau, ``g_loc_tau`` and the star averages of ``g_k_tau``
        within 3 combined standard errors (plus 1e-12 for entries that
        half filling fixes exactly, ``G_loc(beta) = 1/2``)."""
        acc, ours, theirs = run
        assert ours["g_k_tau"].shape == theirs["g_k_tau"].shape == (
            self.N_SWEEPS, 4, 16,
        )
        mean = np.asarray(acc.estimate("g_k_tau").mean)
        np.testing.assert_allclose(mean, ours["g_k_tau"].mean(axis=0), atol=1e-14)
        for name, reduce in (("g_loc_tau", None), ("g_k_tau", self.stars)):
            a, b = ours[name], theirs[name]
            if reduce is not None:
                a, b = reduce(a), reduce(b)
            (ma, ea), (mb, eb) = self.estimate(a), self.estimate(b)
            gap = np.abs(ma - mb)
            assert np.all(gap < 3 * np.hypot(ea, eb) + 1e-12), (name, gap)
        np.testing.assert_allclose(ours["g_loc_tau"][:, -1], 0.5, atol=1e-12)

    def test_g_loc_is_symmetric_about_half_beta(self, run):
        """Half filling: ``G_loc(tau) = G_loc(beta - tau)``; on the grid
        1, 2, 3, 4 that pairs tau = 1 with tau = 3."""
        est = run[0].estimate("g_loc_tau")
        mean, error = np.asarray(est.mean), np.asarray(est.error)
        assert abs(mean[0] - mean[2]) < 3 * np.hypot(error[0], error[2])
        assert np.all(mean > 0) and mean[1] < min(mean[0], mean[2])
