"""Unit tests for the warmup-time autotuner and its profile cache."""

import json

import numpy as np
import pytest

from repro import HubbardModel, Simulation, SquareLattice
from repro.autotune import (
    TuningCache,
    TuningParameters,
    WarmupAutotuner,
    candidate_grid,
    cluster_size_candidates,
    default_cache_path,
    divisor_near,
    divisors,
    profile_key,
    tune_simulation,
)
from repro.options import resolve_options


def small_model():
    return HubbardModel(SquareLattice(4, 4), u=2.0, beta=2.0, n_slices=16)


def small_sim(seed=5, cluster=8, delay=32):
    return Simulation(
        small_model(), seed=seed, cluster_size=cluster, max_delay=delay,
        measure_arrays=False,
    )


def scripted_timer(deltas):
    """A timing_source whose i-th trial costs ``deltas[i]`` seconds.

    Each trial reads the source twice (before/after); the scripted clock
    advances by the next delta on every second read.
    """
    state = {"t": 0.0, "reads": 0, "i": 0}

    def source():
        state["reads"] += 1
        if state["reads"] % 2 == 0:
            state["t"] += deltas[state["i"] % len(deltas)]
            state["i"] += 1
        return state["t"]

    return source


class TestParameters:
    def test_round_trip(self):
        p = TuningParameters(8, 32)
        assert p.to_dict() == {"cluster_size": 8, "max_delay": 32}
        assert TuningParameters.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize("key", ["wrap_interval", "precision", "kinetic"])
    def test_from_dict_rejects_an_extra_key(self, key):
        d = {"cluster_size": 8, "max_delay": 32, key: 8}
        with pytest.raises(ValueError, match=f"'{key}'"):
            TuningParameters.from_dict(d)

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(13) == [1, 13]

    def test_divisor_near_prefers_window(self):
        # prime slice count: the only divisors are 1 and n; the window
        # is empty, and the fallback must pick n, never 1
        assert divisor_near(13, 10) == 13
        assert divisor_near(12, 10, cap=11) == 6
        assert divisor_near(32, 10) == 8

    def test_divisor_near_ties_prefer_smaller(self):
        # 4 and 6 are both one away from 5; the smaller (safer) wins
        assert divisor_near(12, 5) == 4

    def test_cluster_candidates(self):
        cands = cluster_size_candidates(16, target=8)
        assert cands == sorted(cands)
        assert all(16 % c == 0 for c in cands)
        assert 1 not in cands

    def test_candidate_grid_baseline_first(self):
        base = TuningParameters(8, 32)
        grid = candidate_grid(16, 16, base)
        assert grid[0] == base
        assert len(grid) == len(set(grid))  # no duplicates
        assert len(grid) <= 12

    @pytest.mark.parametrize(
        "n_slices, n_sites", [(40, 16), (40, 64), (80, 256), (20, 16), (8, 4)]
    )
    def test_candidate_grid_is_clusters_times_delays(self, n_slices, n_sites):
        from repro.core.delayed_update import delay_ladder

        base = TuningParameters(divisor_near(n_slices, 10), 32)
        clusters = sorted(
            set(cluster_size_candidates(n_slices)) | {base.cluster_size}
        )
        delays = sorted(set(delay_ladder(n_sites)) | {base.max_delay})
        full = {TuningParameters(k, m) for k in clusters for m in delays}
        grid = candidate_grid(n_slices, n_sites, base, max_candidates=1000)
        assert grid[0] == base
        assert len(grid) == len(set(grid)) == len(full)
        assert set(grid) == full
        capped = candidate_grid(n_slices, n_sites, base, max_candidates=5)
        assert capped == grid[:5]


class TestCache:
    def test_store_lookup_roundtrip(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        params = TuningParameters(8, 16)
        assert cache.lookup("k1") is None
        cache.store("k1", params)
        assert cache.lookup("k1") == params
        assert cache.stats() == {"hits": 1, "misses": 1}
        assert cache.entries()["k1"] == {"cluster_size": 8, "max_delay": 16}
        assert json.loads(cache.path.read_text())["version"] == 2

    def test_version_one_file_loads_as_empty(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text(json.dumps({
            "version": 1,
            "stats": {"hits": 3, "misses": 1},
            "profiles": {"k": {"cluster_size": 8, "wrap_interval": 8,
                               "max_delay": 16, "sweep_seconds": 0.01}},
        }))
        cache = TuningCache(path)
        assert cache.entries() == {} and cache.peek("k") is None
        assert cache.lookup("k") is None  # a miss: the workload re-tunes
        cache.store("k", TuningParameters(4, 8))
        assert cache.peek("k") == TuningParameters(4, 8)

    def test_peek_does_not_bump_stats(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        cache.store("k", TuningParameters(4, 8))
        assert cache.peek("k") is not None
        assert cache.peek("missing") is None
        assert cache.stats() == {"hits": 0, "misses": 0}

    def test_corrupt_file_degrades_to_empty(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text("{ not json")
        cache = TuningCache(path)
        assert cache.lookup("k") is None
        cache.store("k", TuningParameters(2, 8))
        assert cache.peek("k") == TuningParameters(2, 8)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        cache.store("k", TuningParameters(4, 16))
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []
        json.loads((tmp_path / "tuning.json").read_text())  # well-formed

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "env.json"))
        assert default_cache_path() == tmp_path / "env.json"
        assert TuningCache().path == tmp_path / "env.json"

    def test_profile_key_ignores_mu_and_seed(self):
        m1 = small_model()
        m2 = m1.with_(mu=-1.5)
        assert profile_key(m1) == profile_key(m2)
        # both sides explicit: the default follows $REPRO_BACKEND (CI leg)
        threaded, serial = (
            resolve_options(backend=b) for b in ("threaded", "numpy")
        )
        assert profile_key(m1, threaded) != profile_key(m1, serial)
        assert profile_key(m1, serial).endswith("|prepivot|numpy")


class TestRepartition:
    def test_repartitioned_engine_matches_fresh(self):
        a, b = small_sim(cluster=8), small_sim(cluster=4)
        a.engine.repartition(4)
        assert a.engine.cluster_size == 4
        assert a.engine.n_clusters == b.engine.n_clusters
        for sigma in (+1, -1):
            np.testing.assert_allclose(
                a.engine.boundary_greens(sigma),
                b.engine.boundary_greens(sigma),
                rtol=1e-10, atol=1e-12,
            )

    def test_repartition_rejects_non_divisor(self):
        sim = small_sim()
        with pytest.raises(ValueError):
            sim.engine.repartition(5)

    def test_apply_tuning(self):
        sim = small_sim(cluster=8, delay=32)
        sim.apply_tuning(TuningParameters(4, 8))
        assert sim.engine.cluster_size == 4
        assert sim.max_delay == 8
        # keeps sweeping correctly after the live re-partition
        sim.warmup(2)


class TestTuner:
    CANDS = [
        TuningParameters(8, 32),
        TuningParameters(4, 16),
        TuningParameters(2, 8),
    ]

    def test_picks_fastest_healthy(self):
        sim = small_sim()
        tuner = WarmupAutotuner(
            sim, candidates=self.CANDS, sweeps_per_candidate=1,
            timing_source=scripted_timer([5.0, 1.0, 3.0]),
        )
        result = tuner.run()
        assert result.chosen == self.CANDS[1]
        assert not result.fallback
        assert sim.engine.cluster_size == 4 and sim.max_delay == 16

    def test_deterministic_given_timings(self):
        def run_once():
            sim = small_sim(seed=7)
            return WarmupAutotuner(
                sim, candidates=self.CANDS, sweeps_per_candidate=1,
                timing_source=scripted_timer([3.0, 2.0, 1.0]),
            ).run()

        r1, r2 = run_once(), run_once()
        assert r1.chosen == r2.chosen
        assert [t.params for t in r1.trials] == [t.params for t in r2.trials]
        assert [t.sweep_seconds for t in r1.trials] == [
            t.sweep_seconds for t in r2.trials
        ]

    def test_ties_resolve_to_baseline(self):
        sim = small_sim()
        result = WarmupAutotuner(
            sim, candidates=self.CANDS, sweeps_per_candidate=1,
            timing_source=scripted_timer([1.0, 1.0, 1.0]),
        ).run()
        assert result.chosen == self.CANDS[0]

    def test_impossible_drift_tol_falls_back_to_baseline(self):
        sim = small_sim()
        result = WarmupAutotuner(
            sim, candidates=self.CANDS, sweeps_per_candidate=1,
            drift_tol=1e-300,
            timing_source=scripted_timer([5.0, 1.0, 3.0]),
        ).run()
        assert result.fallback
        assert result.chosen == self.CANDS[0]
        assert all(not t.accepted for t in result.trials)
        assert sim.engine.cluster_size == 8

    def test_drifting_candidate_rejected_from_its_own_sweeps(self, monkeypatch):
        """The gate reads what the trial's warmup sweeps recorded: a
        candidate whose wraps drift is rejected however fast it ran, and
        judging it costs no Green's function beyond the sweeps' own."""
        sim = small_sim()
        engine = sim.engine

        def drifting(clean):  # drifts under the k=4 tiling only
            def wrap(gs, l):
                out = clean(gs, l)
                return out * (1.0 + 1e-4) if engine.cluster_size == 4 else out

            return wrap

        # the trials alternate sweep directions: forward sweeps wrap,
        # backward ones unwrap
        for name in ("wrap_pair", "unwrap_pair"):
            monkeypatch.setattr(engine, name, drifting(getattr(engine, name)))
        fresh = []
        boundary_greens = engine.boundary_greens
        monkeypatch.setattr(
            engine, "boundary_greens",
            lambda *a: fresh.append(a) or boundary_greens(*a),
        )
        result = WarmupAutotuner(
            sim, candidates=self.CANDS, sweeps_per_candidate=1,
            timing_source=scripted_timer([5.0, 1.0, 3.0]),
        ).run()
        drifting = result.trials[1]
        assert not drifting.accepted and "wrap drift" in drifting.reason
        assert drifting.wrap_drift > 1e-5
        assert result.chosen == self.CANDS[2]
        healthy = (result.trials[0], result.trials[2])
        assert all(t.accepted and t.wrap_drift < 1e-8 for t in healthy)
        # one sweep per trial: two spins at each of 16 / k boundaries
        assert len(fresh) == 2 * (2 + 4 + 8)

    def test_one_cluster_candidate_rejected_as_unmeasured(self):
        sim = small_sim()
        cands = [self.CANDS[0], TuningParameters(16, 32)]
        result = WarmupAutotuner(
            sim, candidates=cands, sweeps_per_candidate=1,
            timing_source=scripted_timer([2.0, 1.0]),
        ).run()
        assert "unmeasured" in result.trials[1].reason
        assert result.chosen == self.CANDS[0]

    def test_non_divisor_candidate_marked_inapplicable(self):
        sim = small_sim()
        cands = [self.CANDS[0], TuningParameters(5, 16)]
        result = WarmupAutotuner(
            sim, candidates=cands, sweeps_per_candidate=1,
            timing_source=scripted_timer([1.0]),
        ).run()
        bad = result.trials[1]
        assert not bad.accepted
        assert "inapplicable" in bad.reason

    def test_baseline_judged_without_the_range_gate(self):
        """A healthy beta = 4, U = 4 chain grades far past ``range_tol``:
        the configured k = 10 is the reference, not a rejection."""
        model = HubbardModel(SquareLattice(8, 8), u=4.0, beta=4.0, n_slices=40)
        sim = Simulation(
            model, seed=11, cluster_size=10, max_delay=32, measure_arrays=False
        )
        result = WarmupAutotuner(
            sim, candidates=[TuningParameters(10, 32)], sweeps_per_candidate=1,
            timing_source=scripted_timer([1.0]),
        ).run()
        (trial,) = result.trials
        assert trial.dynamic_range > 1e14
        assert trial.accepted, trial.reason
        assert not result.fallback and result.chosen == TuningParameters(10, 32)

    def test_candidate_past_ten_times_the_baseline_range_rejected(
        self, monkeypatch
    ):
        sim = small_sim()
        warmup = sim.warmup

        def grading_worse_at_k4(n):  # the k=4 tiling grades 100x worse
            stats = warmup(n)
            if sim.engine.cluster_size == 4:
                stats.grading_ratio *= 100.0
            return stats

        monkeypatch.setattr(sim, "warmup", grading_worse_at_k4)
        result = WarmupAutotuner(
            sim, candidates=self.CANDS, sweeps_per_candidate=1,
            range_tol=1.0, timing_source=scripted_timer([5.0, 1.0, 3.0]),
        ).run()
        base, worse, healthy = result.trials
        assert base.accepted and healthy.accepted
        assert not worse.accepted
        assert "10x the baseline's" in worse.reason
        assert worse.dynamic_range > 10.0 * base.dynamic_range
        assert result.chosen == self.CANDS[2]

    def test_default_grid_respects_conditioning(self):
        sim = small_sim()
        tuner = WarmupAutotuner(sim)
        assert tuner.candidates[0] == TuningParameters(8, 32)
        assert all(16 % c.cluster_size == 0 for c in tuner.candidates)


class TestCacheIntegration:
    def test_miss_tunes_and_stores_then_hit_reuses(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        sim = small_sim()
        r1 = tune_simulation(
            sim, cache=cache, sweeps_per_candidate=1,
            candidates=TestTuner.CANDS,
            timing_source=scripted_timer([5.0, 1.0, 3.0]),
        )
        assert not r1.cache_hit
        assert cache.peek(r1.key) == r1.chosen

        sim2 = small_sim()
        r2 = tune_simulation(sim2, cache=cache)
        assert r2.cache_hit
        assert r2.chosen == r1.chosen
        assert r2.sweeps_used == 0
        assert sim2.engine.cluster_size == r1.chosen.cluster_size

    def test_fallback_not_cached(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        result = tune_simulation(
            small_sim(), cache=cache, sweeps_per_candidate=1,
            candidates=TestTuner.CANDS, drift_tol=1e-300,
            timing_source=scripted_timer([1.0]),
        )
        assert result.fallback
        assert cache.entries() == {}


class TestTunedPhysics:
    def test_tuned_run_statistically_consistent_with_default(self):
        """Tuning changes numerics bookkeeping, not the physics: a tuned
        run's observables must agree with the default run's within a few
        error bars on the 4x4 beta = 2 fixture."""
        warm, meas = 10, 60

        default = small_sim(seed=3)
        default.warmup(warm)
        default.measure_sweeps(meas)
        d_res = default.result(n_warmup=warm, n_measurement=meas)

        tuned_sim = small_sim(seed=3)
        tuned_sim.apply_tuning(TuningParameters(4, 16))
        tuned_sim.warmup(warm)
        tuned_sim.measure_sweeps(meas)
        t_res = tuned_sim.result(n_warmup=warm, n_measurement=meas)

        for name in ("density", "double_occupancy", "kinetic_energy"):
            d = d_res.observables[name]
            t = t_res.observables[name]
            err = max(d.error + t.error, 0.02)
            assert abs(d.scalar - t.scalar) < 5 * err, (
                f"{name}: default {d.scalar}+-{d.error} vs "
                f"tuned {t.scalar}+-{t.error}"
            )
