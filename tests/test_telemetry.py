"""Unit tests for the telemetry subsystem (registry, writer, watchdog,
facade, report) and its wiring through the simulation stack."""

import json

import numpy as np
import pytest

from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
from repro.core import GreensFunctionEngine
from repro.dqmc import Simulation, SweepStats, run_ensemble, sweep
from repro.profiling import PhaseProfiler
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    NullTelemetry,
    NumericalHealthWatchdog,
    StreamingHistogram,
    Telemetry,
    TelemetryWriter,
    WatchdogConfig,
    ensure_telemetry,
    read_events,
    render_report,
    summarize_jsonl,
)
from tests.helpers import noisy_wraps


def make_model(lx=2, ly=2, u=4.0, beta=1.0, n_slices=8):
    return HubbardModel(SquareLattice(lx, ly), u=u, beta=beta, n_slices=n_slices)


def make_engine(seed=0, **kwargs):
    model = make_model()
    rng = np.random.default_rng(seed)
    field = HSField.random(model.n_slices, model.n_sites, rng)
    return GreensFunctionEngine(
        BMatrixFactory(model), field, cluster_size=4, **kwargs
    ), rng


class TestStreamingHistogram:
    def test_moments(self):
        h = StreamingHistogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0 and h.max == 3.0

    def test_quantiles_bracket_the_data(self):
        h = StreamingHistogram()
        for v in np.linspace(1e-8, 1e-2, 100):
            h.observe(v)
        assert h.quantile(0.0) == h.min
        assert h.quantile(1.0) == h.max
        assert h.min <= h.quantile(0.5) <= 10 * h.max  # bucket resolution

    def test_custom_bounds(self):
        h = StreamingHistogram(bounds=[0.5])
        h.observe(0.2)
        h.observe(0.9)
        assert h.buckets == [1, 1]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram(bounds=[1.0, 0.5])

    def test_merge(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2 and a.max == 3.0
        with pytest.raises(ValueError):
            a.merge(StreamingHistogram(bounds=[1.0]))

    def test_snapshot_is_json_serializable(self):
        h = StreamingHistogram()
        h.observe(0.5)
        json.dumps(h.snapshot())
        assert StreamingHistogram().snapshot() == {"count": 0}


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        r = MetricsRegistry()
        r.inc("a")
        r.inc("a", 2.0)
        r.set_gauge("g", 7.5)
        assert r.counter("a") == 3.0
        assert r.gauge("g") == 7.5
        assert r.counter("missing") == 0.0

    def test_snapshot_round_trips_through_json(self):
        r = MetricsRegistry()
        r.inc("c")
        r.set_gauge("g", 1.0)
        r.observe("h", 0.5)
        snap = json.loads(json.dumps(r.snapshot()))
        assert snap["counters"]["c"] == 1.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        a.set_gauge("g", 1.0)
        b.inc("c", 2)
        b.set_gauge("g", 9.0)
        b.observe("h", 1.0)
        a.merge(b)
        assert a.counter("c") == 3.0
        assert a.gauge("g") == 9.0  # last write wins
        assert a.histograms["h"].count == 1
        assert "c" in a.names() and "h" in a.names()


class TestTelemetryWriter:
    def test_writes_parseable_lines_with_seq(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as w:
            w.write("alpha", x=1)
            w.write("beta")
        events = list(read_events(path))
        assert [e["event"] for e in events] == ["alpha", "beta"]
        assert [e["seq"] for e in events] == [0, 1]
        assert events[0]["x"] == 1

    def test_no_file_until_first_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        w = TelemetryWriter(path)
        w.close()
        assert not path.exists()

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as w:
            w.write("ok")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "torn", "t"')  # interrupted mid-write
        events = list(read_events(path))
        assert [e["event"] for e in events] == ["ok"]

    def test_corrupt_middle_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('not json\n{"event": "ok", "t": 0, "seq": 1}\n')
        with pytest.raises(json.JSONDecodeError):
            list(read_events(path))


class DummyStats:
    """Stand-in SweepStats for facade-level tests."""

    proposed = 10
    accepted = 4
    negative_ratios = 1
    singular_rejects = 0
    refreshes = 2
    sign = -1.0
    acceptance_rate = 0.4
    wrap_drift = 3e-11
    boundaries = 1
    grading_ratio = 1e5


class TestTelemetryFacade:
    def test_sweep_done_counters_and_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(TelemetryWriter(path), snapshot_every=2)
        tel.sweep_done(1, DummyStats())
        tel.sweep_done(2, DummyStats())
        tel.close()
        reg = tel.registry
        assert reg.counter("sweep.count") == 2
        assert reg.counter("sweep.proposed") == 20
        assert reg.gauge("sweep.sign") == -1.0
        kinds = [e["event"] for e in read_events(path)]
        # snapshot cadence: one periodic snapshot at sweep 2 + final on close
        assert kinds == ["sweep_done", "sweep_done", "metrics", "metrics"]

    def test_snapshot_sources_polled(self):
        tel = Telemetry(writer=None, snapshot_every=0)
        tel.add_snapshot_source(lambda reg: reg.set_gauge("from.source", 42.0))
        snap = tel.snapshot()
        assert snap["gauges"]["from.source"] == 42.0

    def test_close_is_idempotent(self, tmp_path):
        tel = Telemetry(TelemetryWriter(tmp_path / "t.jsonl"))
        tel.event("x")
        tel.close()
        tel.close()

    def test_null_telemetry_is_inert_and_shared(self):
        assert ensure_telemetry(None) is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.counter("x")
        NULL_TELEMETRY.event("x", a=1)
        NULL_TELEMETRY.sweep_done(1, DummyStats())
        assert NULL_TELEMETRY.snapshot() == {}
        tel = Telemetry(writer=None)
        assert ensure_telemetry(tel) is tel
        assert isinstance(NullTelemetry(), Telemetry)

    def test_invalid_snapshot_every(self):
        with pytest.raises(ValueError):
            Telemetry(writer=None, snapshot_every=-1)


class TestProfilerExport:
    def test_phases_become_gauges(self):
        prof = PhaseProfiler()
        with prof.phase("stratification"):
            pass
        reg = MetricsRegistry()
        prof.export_to_registry(reg)
        assert reg.gauge("phase.stratification.seconds") >= 0.0
        assert reg.gauge("phase.stratification.calls") == 1.0
        assert reg.gauge("phase.total.seconds") == pytest.approx(
            prof.accounted
        )


class TestEngineWiring:
    def test_stratification_counter_and_cache_stats(self):
        tel = Telemetry(writer=None, snapshot_every=0)
        eng, rng = make_engine(telemetry=tel)
        sweep(eng, rng)
        assert tel.registry.counter("engine.stratifications") > 0
        snap = tel.snapshot()
        assert snap["gauges"]["cluster_cache.misses"] > 0
        stats = eng.cache.stats()
        assert 0.0 <= stats["cluster_cache.hit_rate"] <= 1.0


class TestWatchdog:
    def test_healthy_engine_no_alert(self):
        eng, rng = make_engine()
        wd = NumericalHealthWatchdog(eng, WatchdogConfig(check_every=1))
        report = wd.maybe_check(1, sweep(eng, rng))
        assert report.healthy
        assert not report.forced_refresh
        assert report.boundaries == eng.n_clusters - 1
        assert 0.0 < report.wrap_drift < 1e-8
        assert report.dynamic_range > 1.0

    def test_tight_tolerance_alerts_and_forces_refresh(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(TelemetryWriter(path), snapshot_every=0)
        eng, rng = make_engine(telemetry=tel)
        st = sweep(eng, rng)
        eng.boundary_greens(1, 0)
        # every push takes its product: warm the cache by hand
        eng.cache.get(1, 1)
        assert eng.cache._cache  # warm cache before the forced refresh
        assert eng.n_kept(1)
        wd = NumericalHealthWatchdog(
            eng, WatchdogConfig(check_every=1, drift_tol=1e-300), tel
        )
        before = tel.registry.counter("engine.stratifications")
        report = wd.maybe_check(3, st)
        assert not report.healthy
        assert report.forced_refresh
        assert wd.alerts == 1 and wd.forced_refreshes == 1
        assert tel.registry.counter("health.alerts") == 1
        # the refresh drops derived state and rebuilds nothing itself
        assert not eng.cache._cache and not eng.n_kept(1)
        assert tel.registry.counter("engine.stratifications") == before
        tel.close()
        kinds = [e["event"] for e in read_events(path)]
        # the alert must be followed by the forced refresh
        assert kinds.index("health_alert") < kinds.index("forced_refresh")

    def test_drifting_wrap_trips_the_alert(self, monkeypatch):
        """A wrap that loses 1e-4 per call is caught from the sweep's own
        boundary comparison, at the default tolerance."""
        eng, rng = make_engine()
        noisy_wraps(eng, monkeypatch)
        wd = NumericalHealthWatchdog(eng, WatchdogConfig(check_every=1))
        report = wd.maybe_check(1, sweep(eng, rng))
        assert report.wrap_drift > 1e-5
        assert report.alerts and "wrap_drift" in report.alerts[0]
        assert report.forced_refresh and report.promoted_to is None

    def test_cadence(self):
        eng, rng = make_engine()
        wd = NumericalHealthWatchdog(eng, WatchdogConfig(check_every=3))
        stats = [sweep(eng, rng) for _ in range(3)]
        assert wd.maybe_check(1, stats[0]) is None
        assert wd.maybe_check(2, stats[1]) is None
        report = wd.maybe_check(3, stats[2])
        assert len(wd.reports) == 1
        # the report is the worst case over every sweep since the last
        assert report.wrap_drift == max(st.wrap_drift for st in stats)
        assert report.boundaries == sum(st.boundaries for st in stats)
        assert wd.maybe_check(4, stats[0]) is None
        assert wd.maybe_check(6, stats[0]).boundaries == 2 * stats[0].boundaries

    def test_healthy_check_costs_no_linear_algebra(self):
        """The watchdog only reads what the sweep recorded: no fresh
        Green's function, no backend dispatch."""
        eng, rng = make_engine()
        wd = NumericalHealthWatchdog(eng, WatchdogConfig(check_every=1))
        st = sweep(eng, rng)
        ops = sum(eng.backend.op_counts.values())
        calls = []
        eng.boundary_greens = lambda *a, **k: calls.append(a)
        assert wd.maybe_check(1, st).healthy
        assert not calls
        assert sum(eng.backend.op_counts.values()) == ops

    def test_one_cluster_chain_reports_drift_unmeasured(self):
        model = make_model()
        rng = np.random.default_rng(0)
        field = HSField.random(model.n_slices, model.n_sites, rng)
        eng = GreensFunctionEngine(
            BMatrixFactory(model), field, cluster_size=model.n_slices
        )
        wd = NumericalHealthWatchdog(eng, WatchdogConfig(check_every=1))
        report = wd.maybe_check(1, sweep(eng, rng))
        assert report.boundaries == 0 and report.wrap_drift == 0.0
        assert report.dynamic_range > 1.0  # boundary 0 still saw the chain

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(check_every=0)
        with pytest.raises(ValueError):
            WatchdogConfig(drift_tol=0.0)
        with pytest.raises(ValueError):
            WatchdogConfig(range_tol=1.0)

    @staticmethod
    def _check_ranges(watchdog, ranges):
        """Reports for synthetic sweeps that record only a graded range."""
        return [
            watchdog.maybe_check(k, SweepStats(grading_ratio=r))
            for k, r in enumerate(ranges, start=1)
        ]

    def test_range_is_judged_against_the_first_reading(self):
        """A healthy graded range is the workload's own (~1e20 at a hot
        start, 1e22-1e25 thermalized, on an 8x8 lattice at beta = 4):
        readings within the default factor of the first never alert, a
        jump past it does."""
        eng, _ = make_engine()
        wd = NumericalHealthWatchdog(eng, WatchdogConfig(check_every=1))
        first, tol = 1e20, wd.config.range_tol
        steady = [first, 3e24, first / 50, 0.9 * tol * first, 5e23]
        assert all(r.healthy for r in self._check_ranges(wd, steady))
        assert wd.first_range == first and wd.alerts == 0
        report = wd.maybe_check(len(steady) + 1, SweepStats(grading_ratio=2 * tol * first))
        assert not report.healthy and report.forced_refresh
        assert "graded dynamic range" in report.alerts[0]
        assert wd.first_range == first  # the reference stays the first reading

    def test_non_finite_range_alerts(self):
        eng, _ = make_engine()
        wd = NumericalHealthWatchdog(eng, WatchdogConfig(check_every=1))
        reports = self._check_ranges(wd, [1e20, float("inf")])
        assert reports[0].healthy and not reports[1].healthy

    def test_lifted_factor_never_alerts_on_healthy_ranges(self):
        """The e2e ``observed_8x8_b4`` workload passes ``range_tol=1e30``."""
        eng, _ = make_engine()
        wd = NumericalHealthWatchdog(eng, WatchdogConfig(check_every=1, range_tol=1e30))
        ranges = np.logspace(20, 26, 40)[::-1]  # the first reading the largest, too
        assert all(r.healthy for r in self._check_ranges(wd, ranges))


class TestSimulationWiring:
    def test_run_emits_sweep_done_and_matching_counters(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(TelemetryWriter(path), snapshot_every=0)
        sim = Simulation(make_model(), seed=3, cluster_size=4, telemetry=tel)
        sim.warmup(2)
        sim.measure_sweeps(3)
        tel.close()
        events = list(read_events(path))
        sweeps = [e for e in events if e["event"] == "sweep_done"]
        assert len(sweeps) == 5
        assert [e["stage"] for e in sweeps] == ["warmup"] * 2 + ["measure"] * 3
        assert [e["sweep"] for e in sweeps] == [1, 2, 3, 4, 5]
        assert tel.registry.counter("sweep.proposed") == (
            sim.total_stats.proposed
        )
        # phase gauges present in the final snapshot
        final = [e for e in events if e["event"] == "metrics"][-1]
        assert "phase.stratification.seconds" in final["metrics"]["gauges"]

    def test_watchdog_runs_on_cadence_inside_simulation(self):
        tel = Telemetry(writer=None, snapshot_every=0)
        sim = Simulation(
            make_model(), seed=3, cluster_size=4, telemetry=tel,
            watchdog=WatchdogConfig(check_every=2, drift_tol=1e-300),
        )
        sim.warmup(4)
        assert sim.watchdog is not None
        assert len(sim.watchdog.reports) == 2
        assert sim.watchdog.forced_refreshes == 2
        assert tel.registry.counter("health.checks") == 2

    def test_telemetry_defaults_to_shared_null(self):
        sim = Simulation(make_model(), seed=3, cluster_size=4)
        assert sim.telemetry is NULL_TELEMETRY
        assert sim.watchdog is None
        sim.warmup(1)  # no telemetry machinery in the way

    def test_physics_identical_with_and_without_telemetry(self):
        a = Simulation(make_model(), seed=7, cluster_size=4)
        b = Simulation(
            make_model(), seed=7, cluster_size=4,
            telemetry=Telemetry(writer=None, snapshot_every=0),
        )
        a.warmup(2)
        b.warmup(2)
        np.testing.assert_array_equal(a.field.h, b.field.h)


class TestEnsembleWiring:
    def test_chain_events_and_merged_registry(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(TelemetryWriter(path), snapshot_every=0)
        run_ensemble(
            make_model(),
            n_chains=2,
            warmup_sweeps=1,
            measurement_sweeps=2,
            max_workers=1,
            cluster_size=4,
            telemetry=tel,
        )
        tel.close()
        events = list(read_events(path))
        kinds = [e["event"] for e in events]
        assert kinds.count("chain_done") == 2
        assert "ensemble_done" in kinds
        # merged counters cover both chains: 2 chains x 3 sweeps x L x N
        assert tel.registry.counter("sweep.proposed") == 2 * 3 * 8 * 4


class TestReport:
    def test_summarize_and_render(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(TelemetryWriter(path), snapshot_every=2)
        sim = Simulation(
            make_model(), seed=3, cluster_size=4, telemetry=tel,
            watchdog=WatchdogConfig(check_every=2, drift_tol=1e-300),
        )
        sim.warmup(1)
        sim.measure_sweeps(3)
        tel.event("checkpoint_saved", path="x.npz", measured_sweeps=3)
        tel.close()

        summary = summarize_jsonl(path)
        assert summary.sweeps == 4
        assert summary.proposed == 4 * 8 * 4
        assert summary.checkpoints == 1
        assert len(summary.alerts) == 2
        assert summary.forced_refreshes == 2
        assert summary.metrics is not None
        phases = summary.phase_seconds()
        assert "stratification" in phases and "total" not in phases

        text = render_report(summary)
        assert "HEALTH: 2 alert(s)" in text
        assert "stratification" in text
        assert "acceptance" in text

    def test_render_healthy_report(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(TelemetryWriter(path), snapshot_every=0)
        tel.sweep_done(1, DummyStats())
        tel.close()
        text = render_report(summarize_jsonl(path))
        assert "HEALTH: ok" in text


# ---------------------------------------------------------------------------
# thread-safety and pickle regressions (the QL101/QL102 findings)
# ---------------------------------------------------------------------------


class TestRegistryThreadSafety:
    """Registries are shared by `executor="thread"` chains and
    `parallel_for` bodies; a lost increment here silently skews every
    acceptance-rate and GFLOPS figure in the report."""

    def test_concurrent_increments_are_exact(self):
        import concurrent.futures as cf

        reg = MetricsRegistry()
        n_threads, n_incs = 8, 2000

        def work(_):
            for _ in range(n_incs):
                reg.inc("hits")

        with cf.ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, range(n_threads)))
        assert reg.counter("hits") == n_threads * n_incs

    def test_concurrent_observes_lose_no_samples(self):
        import concurrent.futures as cf

        reg = MetricsRegistry()
        n_threads, n_obs = 8, 1000

        def work(k):
            for i in range(n_obs):
                reg.observe("acc", (i % 10) / 10.0, bounds=(0.5, 1.0))

        with cf.ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, range(n_threads)))
        hist = reg.histograms["acc"]
        assert hist.count == n_threads * n_obs
        assert sum(hist.buckets) == n_threads * n_obs

    def test_concurrent_merge_is_exact(self):
        import concurrent.futures as cf

        chain = MetricsRegistry()
        chain.inc("n", 5.0)
        chain.observe("x", 1.0)
        merged = MetricsRegistry()

        def fold(_):
            merged.merge(chain)

        with cf.ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(fold, range(40)))
        assert merged.counter("n") == 40 * 5.0
        assert merged.histograms["x"].count == 40

    def test_registry_pickles_and_lock_is_recreated(self):
        import pickle

        reg = MetricsRegistry()
        reg.inc("n", 3.0)
        reg.observe("x", 0.5)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.counter("n") == 3.0
        assert clone.histograms["x"].count == 1
        clone.inc("n")  # the recreated lock must actually work
        assert clone.counter("n") == 4.0

    def test_histogram_pickles_and_lock_is_recreated(self):
        import pickle

        hist = StreamingHistogram(bounds=(1.0, 2.0))
        hist.observe(1.5)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.count == 1
        clone.observe(0.5)
        assert clone.count == 2


class TestWriterDurability:
    """close() promises flush+fsync whatever flush_every is — the
    campaign manifest layer treats a closed JSONL as a durable artifact."""

    def test_close_flushes_lines_buffered_by_flush_every(self, tmp_path):
        path = tmp_path / "t.jsonl"
        w = TelemetryWriter(path, flush_every=100)
        for i in range(3):
            w.write("tick", i=i)
        w.close()
        assert [e["i"] for e in read_events(path)] == [0, 1, 2]

    def test_context_exit_flushes_buffered_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path, flush_every=50) as w:
            w.write("tick", i=0)
            w.write("tick", i=1)
        assert len(list(read_events(path))) == 2

    def test_close_is_idempotent_after_buffered_writes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        w = TelemetryWriter(path, flush_every=10)
        w.write("tick")
        w.close()
        w.close()
        assert len(list(read_events(path))) == 1

    def test_concurrent_writes_get_unique_ordered_seqs(self, tmp_path):
        import concurrent.futures as cf

        path = tmp_path / "t.jsonl"
        w = TelemetryWriter(path, flush_every=7)
        with cf.ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda i: w.write("tick", i=i), range(200)))
        w.close()
        seqs = [e["seq"] for e in read_events(path)]
        assert sorted(seqs) == list(range(200))

    def test_writer_pickles_without_handle(self, tmp_path):
        import pickle

        path = tmp_path / "t.jsonl"
        w = TelemetryWriter(path, flush_every=5)
        w.write("tick")
        clone = pickle.loads(pickle.dumps(w))
        assert clone.path == w.path
        assert clone._fh is None  # handles never cross the boundary
        w.close()


class TestEnsembleThreadDeterminism:
    """Telemetry instrumentation must not perturb the physics: a seeded
    threaded ensemble produces bit-identical observables with telemetry
    on, off, and across repeated runs."""

    KWARGS = dict(
        n_chains=2,
        warmup_sweeps=1,
        measurement_sweeps=2,
        max_workers=2,
        cluster_size=4,
        base_seed=7,
        executor="thread",
    )

    @staticmethod
    def _means(result):
        return {
            k: np.asarray(v.mean) for k, v in sorted(result.observables.items())
        }

    def test_telemetry_does_not_perturb_threaded_observables(self, tmp_path):
        tel = Telemetry(
            TelemetryWriter(tmp_path / "t.jsonl"), snapshot_every=0
        )
        with_tel = run_ensemble(make_model(), telemetry=tel, **self.KWARGS)
        tel.close()
        plain = run_ensemble(make_model(), **self.KWARGS)
        a, b = self._means(with_tel), self._means(plain)
        assert list(a) == list(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_repeated_threaded_runs_bit_identical(self, tmp_path):
        tel1 = Telemetry(
            TelemetryWriter(tmp_path / "a.jsonl"), snapshot_every=0
        )
        tel2 = Telemetry(
            TelemetryWriter(tmp_path / "b.jsonl"), snapshot_every=0
        )
        r1 = run_ensemble(make_model(), telemetry=tel1, **self.KWARGS)
        r2 = run_ensemble(make_model(), telemetry=tel2, **self.KWARGS)
        tel1.close()
        tel2.close()
        a, b = self._means(r1), self._means(r2)
        for name in a:
            assert np.array_equal(a[name], b[name]), name
        assert tel1.registry.counter("sweep.proposed") == tel2.registry.counter(
            "sweep.proposed"
        )
