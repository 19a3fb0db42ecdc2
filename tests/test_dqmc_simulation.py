"""Unit tests for the simulation driver."""

import numpy as np
import pytest

from repro import HSField, HubbardModel, Simulation, SquareLattice


def tiny_model(u=4.0, beta=1.0, n_slices=8, lx=2, ly=2):
    return HubbardModel(SquareLattice(lx, ly), u=u, beta=beta, n_slices=n_slices)


class TestDriver:
    def test_run_produces_observables(self):
        sim = Simulation(tiny_model(), seed=1, cluster_size=4)
        res = sim.run(warmup_sweeps=3, measurement_sweeps=6)
        for name in ("density", "double_occupancy", "kinetic_energy", "sign"):
            assert name in res.observables
        assert res.n_warmup == 3 and res.n_measurement == 6

    def test_measurement_count(self):
        sim = Simulation(
            tiny_model(n_slices=8), seed=1, cluster_size=4,
            measurements_per_sweep=2,
        )
        sim.measure_sweeps(5)
        assert sim.collector.n_measurements == 10

    def test_warmup_records_nothing(self):
        sim = Simulation(tiny_model(), seed=1, cluster_size=4)
        sim.warmup(4)
        assert sim.collector.n_measurements == 0

    def test_reproducibility(self):
        r1 = Simulation(tiny_model(), seed=11, cluster_size=4).run(2, 5)
        r2 = Simulation(tiny_model(), seed=11, cluster_size=4).run(2, 5)
        assert r1.observables["density"].mean == pytest.approx(
            r2.observables["density"].mean
        )
        assert r1.observables["spin_zz"].mean == pytest.approx(
            r2.observables["spin_zz"].mean
        )

    def test_summary_renders(self):
        res = Simulation(tiny_model(), seed=0, cluster_size=4).run(1, 3)
        text = res.summary()
        assert "acceptance" in text and "density" in text

    def test_measure_arrays_toggle(self):
        sim = Simulation(
            tiny_model(), seed=0, cluster_size=4, measure_arrays=False
        )
        res = sim.run(1, 3)
        assert "momentum_distribution" not in res.observables
        assert "density" in res.observables

    def test_invalid_measurements_per_sweep(self):
        with pytest.raises(ValueError):
            Simulation(tiny_model(), measurements_per_sweep=0)

    def test_profiler_covers_all_phases(self):
        sim = Simulation(tiny_model(), seed=0, cluster_size=4)
        sim.run(2, 4)
        for phase in (
            "delayed_update", "stratification", "clustering",
            "wrapping", "measurements",
        ):
            assert sim.profiler.seconds.get(phase, 0) > 0, phase


class TestDriverOptions:
    def test_use_gpu_identical_markov_chain(self):
        """The hybrid-GPU driver must walk the same chain as the CPU one
        (Sec. VI: offload changes timing, never physics)."""
        cpu = Simulation(tiny_model(), seed=7, cluster_size=4).run(2, 6)
        gpu_sim = Simulation(
            tiny_model(), seed=7, cluster_size=4, backend="gpu-sim"
        )
        gpu = gpu_sim.run(2, 6)
        assert cpu.observables["double_occupancy"].scalar == pytest.approx(
            gpu.observables["double_occupancy"].scalar
        )
        assert gpu_sim.engine.device.elapsed > 0  # GPU clock ran

    def test_threaded_norms_identical_markov_chain(self):
        a = Simulation(tiny_model(), seed=7, cluster_size=4).run(2, 6)
        b = Simulation(
            tiny_model(), seed=7, cluster_size=4, backend="threaded"
        ).run(2, 6)
        assert a.observables["kinetic_energy"].scalar == pytest.approx(
            b.observables["kinetic_energy"].scalar
        )

    def test_global_flips_engage(self):
        sim = Simulation(
            tiny_model(u=8.0, beta=2.0, n_slices=16), seed=7,
            cluster_size=4, global_flips_per_sweep=2,
        )
        sim.warmup(3)
        # global moves change the trajectory vs no-flip runs
        ref = Simulation(
            tiny_model(u=8.0, beta=2.0, n_slices=16), seed=7, cluster_size=4
        )
        ref.warmup(3)
        assert not np.array_equal(sim.field.h, ref.field.h)
        # and invariants hold
        res = sim.run(0, 5)
        assert res.observables["density"].scalar == pytest.approx(1.0, abs=1e-9)

    def test_global_flips_validation(self):
        with pytest.raises(ValueError):
            Simulation(tiny_model(), global_flips_per_sweep=-1)

    def test_measure_dynamic_u0_exact(self):
        """Driver-level dynamic observables at U = 0 match the analytic
        G(k, tau) = e^{-tau eps}(1 - f) on the cluster-boundary grid."""
        from repro import momentum_grid
        from repro.hamiltonian import free_dispersion_2d

        model = HubbardModel(SquareLattice(4, 4), u=0.0, beta=4.0, n_slices=32)
        sim = Simulation(model, seed=0, cluster_size=8, measure_dynamic=True)
        res = sim.run(1, 2)
        gk = np.asarray(res.observables["g_k_tau"].mean)
        assert gk.shape == (4, 16)
        k = momentum_grid(4, 4)
        eps = free_dispersion_2d(k[:, 0], k[:, 1])
        f = 1.0 / (1.0 + np.exp(4.0 * eps))
        taus = np.arange(1, 5) * 8 * model.dtau
        expected = np.exp(-taus[:, None] * eps[None, :]) * (1 - f)[None, :]
        np.testing.assert_allclose(gk, expected, atol=1e-8)
        # and G_loc is the k-average
        gloc = np.asarray(res.observables["g_loc_tau"].mean)
        np.testing.assert_allclose(gloc, gk.mean(axis=1), atol=1e-10)

    def test_measure_dynamic_off_the_square_lattice(self):
        """Without a square lattice's momenta the sample records
        ``g_loc_tau`` alone, from the trace; at U = 0 on the torus's bonds
        as a ``GeneralLattice`` it is the square lattice's ``G_loc``."""
        from tests.helpers import dense_twin

        square = SquareLattice(4, 4)
        gloc = []
        for lattice in (square, dense_twin(square)):
            model = HubbardModel(lattice, u=0.0, beta=4.0, n_slices=32)
            sim = Simulation(model, seed=0, cluster_size=8, measure_dynamic=True)
            obs = sim.run(0, 2).observables
            assert ("g_k_tau" in obs) == (lattice is square)
            gloc.append(np.asarray(obs["g_loc_tau"].mean))
        assert gloc[0].shape == (4,)
        np.testing.assert_allclose(gloc[1], gloc[0], atol=1e-12)

    def test_measure_dynamic_weights_each_tau_by_its_boundary_sign(
        self, monkeypatch
    ):
        """With a sign problem (frustrated triangle, mu != 0) each tau of
        a sample carries the sign current at the boundary that produced
        it, not one sign per sweep."""
        from repro.lattice import GeneralLattice
        from tests.helpers import RecordingAccumulator, recording_displaced

        model = HubbardModel(
            GeneralLattice.triangle(), u=6.0, beta=3.0, n_slices=24, mu=-0.8
        )
        sim = Simulation(model, seed=11, cluster_size=8, measure_dynamic=True)
        sim.warmup(10)
        sim.collector.accumulator = RecordingAccumulator()
        seen = recording_displaced(monkeypatch)
        sim.measure_sweeps(40)
        nc = sim.engine.n_clusters
        samples = sim.collector.accumulator.samples["g_loc_tau"]
        assert len(samples) == 40 and len(seen) == 40 * nc
        signs = np.array([sign for *_, sign in seen]).reshape(40, nc)
        assert (signs == -1).any() and (signs == 1).any()
        mixed = [i for i in range(40) if len(set(signs[i])) > 1]
        assert mixed  # sweeps whose boundaries disagree on the sign
        for i, sample in enumerate(samples):
            expected = np.empty(nc)
            for c, _, g_tau, sign in seen[i * nc:(i + 1) * nc]:
                trace = np.trace(g_tau, axis1=1, axis2=2).sum()
                expected[(c - 1) % nc] = sign * trace / (2 * model.n_sites)
            np.testing.assert_allclose(sample, expected, rtol=0, atol=1e-14)

    def test_measure_dynamic_interacting_finite(self):
        model = tiny_model(u=6.0, beta=2.0, n_slices=16)
        sim = Simulation(model, seed=1, cluster_size=4, measure_dynamic=True)
        res = sim.run(2, 4)
        gk = np.asarray(res.observables["g_k_tau"].mean)
        assert np.all(np.isfinite(gk))
        assert res.observables["g_k_tau"].n_samples == 4


    def test_measure_dynamic_recycles_through_the_engine(self, monkeypatch):
        """The sweep hands each boundary's ``G(tau_c, 0)`` to the sample
        from the joins it solves on the engine's backend: the engine
        keeps only what the sweep built (``S_1 .. S_{nc-1}`` after a
        backward sweep, which the next boundary 0 extends by one push),
        and the sample is the sign-weighted spin-averaged trace of what
        was handed over, tau by tau, each the standalone routine's on the
        field of its boundary."""
        from tests.oracles.displaced import displaced_series_fast
        from tests.helpers import recording_displaced

        model = tiny_model(u=4.0, beta=2.0, n_slices=16)
        sim = Simulation(
            model, seed=1, cluster_size=4, measure_dynamic=True,
            backend="gpu-sim",
        )
        sim.warmup(1)  # forward
        engine = sim.engine
        nc, n = engine.n_clusters, model.n_sites
        ops = sum(engine.backend.op_counts.values())
        seen = recording_displaced(monkeypatch)
        sim.measure_sweeps(1)  # backward: boundaries nc, nc - 1, .., 1
        assert sum(engine.backend.op_counts.values()) > ops
        assert [c for c, *_ in seen] == [0] + list(range(nc - 1, 0, -1))
        for sigma in (1, -1):
            prefix, suffix = engine._partials[sigma]
            assert (len(prefix), len(suffix)) == (0, nc - 1)
            engine.boundary_greens(sigma, 0)
            assert engine.last_stats.n_factors == 1

        # the only sample so far: its log-binned mean is the sample itself
        acc = sim.collector.accumulator
        assert acc.n_samples("g_loc_tau") == 1
        gloc = np.asarray(acc.estimate("g_loc_tau").mean)
        expected = np.empty(nc)
        for c, h, g_tau, sign in seen:
            j = (c - 1) % nc
            expected[j] = sign * np.trace(g_tau, axis1=1, axis2=2).mean() / n
            for sigma, g in zip((1, -1), g_tau):
                _, greens = displaced_series_fast(
                    sim.factory, HSField(h), sigma, engine.cluster_size
                )
                np.testing.assert_allclose(g, greens[j], atol=1e-12)
        np.testing.assert_allclose(gloc, expected, rtol=1e-15, atol=0)

    def test_measure_dynamic_adds_no_chain_steps(self, monkeypatch):
        """A ``measure_dynamic`` run pushes and builds exactly what a plain
        run with the same seed does, over the same chain; its sample adds
        no LU factorization (``getrf``) and no ``gesv``, only one
        ``getrs`` per interior boundary per spin: ``nc - 1`` per spin per
        sweep (``G(beta, 0) = I - G(0, 0)`` costs no solve)."""
        import repro.linalg.stable as stable
        from repro.core import IncrementalStratifier

        counts = {}
        push, solve, lapack = (
            IncrementalStratifier.push, stable._solve, stable.get_lapack_funcs
        )

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        def counted_lapack(names, arrays):
            return [counted(name, f) for name, f in zip(names, lapack(names, arrays))]

        monkeypatch.setattr(IncrementalStratifier, "push", counted("push", push))
        monkeypatch.setattr(stable, "_solve", counted("gesv", solve))
        monkeypatch.setattr(stable, "get_lapack_funcs", counted_lapack)
        model = tiny_model(u=4.0, beta=2.0, n_slices=16)
        runs = {}
        for dynamic in (False, True):
            counts.update(push=0, gesv=0, getrf=0, getrs=0)
            sim = Simulation(
                model, seed=1, cluster_size=4, measure_dynamic=dynamic
            )
            assert sim.engine.n_clusters == 4
            stats = sim.measure_sweeps(4)
            runs[dynamic] = (
                dict(counts), sim.engine.cache.batched_builds,
                stats.accepted, sim.field.h.copy(),
            )
        (plain, plain_builds, plain_acc, plain_h) = runs[False]
        (dyn, dyn_builds, dyn_acc, dyn_h) = runs[True]
        nc = 4
        assert dyn["push"] == plain["push"] and dyn_builds == plain_builds
        assert (dyn["gesv"], dyn["getrf"]) == (plain["gesv"], plain["getrf"])
        assert dyn["getrs"] - plain["getrs"] == 4 * 2 * (nc - 1)
        assert dyn_acc == plain_acc and np.array_equal(dyn_h, plain_h)


class TestPhysicsSanity:
    def test_half_filling_density(self):
        res = Simulation(tiny_model(u=4.0), seed=2, cluster_size=4).run(5, 10)
        assert res.observables["density"].scalar == pytest.approx(1.0, abs=1e-9)

    def test_mean_sign_is_one_at_half_filling(self):
        res = Simulation(tiny_model(u=6.0), seed=2, cluster_size=4).run(5, 10)
        assert res.mean_sign == pytest.approx(1.0)

    def test_stage_aggregates_report_the_chain_sign(self):
        """Away from half filling the configuration sign visits -1; the
        aggregate a stage returns must carry it, not a constant +1."""
        model = HubbardModel(
            SquareLattice(2, 2), u=8.0, mu=-2.5, beta=3.0, n_slices=24
        )
        sim = Simulation(model, seed=5, cluster_size=6)
        seen = set()
        for _ in range(15):
            for stage in (sim.warmup, sim.measure_sweeps):
                agg = stage(1)
                assert agg.sign == sim._sign
                seen.add(agg.sign)
        assert seen == {1.0, -1.0}
        assert sim.warmup(0).sign == 1.0  # no sweep, nothing to report
        assert sim.total_stats.sign == sim._sign

    def test_interaction_suppresses_double_occupancy(self):
        free = Simulation(tiny_model(u=0.0), seed=3, cluster_size=4).run(2, 8)
        interacting = Simulation(
            tiny_model(u=8.0, beta=2.0, n_slices=16), seed=3, cluster_size=4
        ).run(10, 30)
        assert (
            interacting.observables["double_occupancy"].scalar
            < free.observables["double_occupancy"].scalar
        )

    def test_u0_matches_free_fermions(self):
        """U = 0 through the full MC machinery must equal the analytic
        free Green's function result to near machine precision."""
        from repro import free_greens_function
        from repro.measure import total_density, kinetic_energy

        model = tiny_model(u=0.0, beta=3.0, n_slices=24, lx=4, ly=4)
        res = Simulation(model, seed=4, cluster_size=8).run(1, 2)
        g = free_greens_function(model.kinetic_matrix(), model.beta)
        expected_ke = kinetic_energy(model.lattice, g, g)
        assert res.observables["kinetic_energy"].scalar == pytest.approx(
            expected_ke, abs=1e-8
        )
        assert res.observables["density"].scalar == pytest.approx(
            total_density(g, g), abs=1e-9
        )
