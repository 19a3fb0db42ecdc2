"""Unit tests for the Metropolis sweep."""

import gc
import hashlib
import sys
import weakref

import numpy as np
import pytest

from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice, Telemetry
from repro.core import DelayedUpdater, GreensFunctionEngine
from repro.dqmc import SweepStats, sweep
from repro.dqmc.sweep import SINGULAR_THRESHOLD
from repro.linalg import flops
from repro.telemetry import TelemetryWriter, read_events
from tests.helpers import brute_greens, dense_twin, noisy_wraps, relerr


def small_engine(u=4.0, beta=1.5, n_slices=12, cluster=4, seed=0, lx=2, ly=2,
                 mu=0.0):
    model = HubbardModel(
        SquareLattice(lx, ly), u=u, beta=beta, n_slices=n_slices, mu=mu
    )
    rng = np.random.default_rng(seed)
    field = HSField.random(n_slices, model.n_sites, rng)
    fac = BMatrixFactory(model)
    return GreensFunctionEngine(fac, field, cluster_size=cluster), rng


class TestSweepMechanics:
    def test_counters(self):
        eng, rng = small_engine()
        st = sweep(eng, rng)
        assert st.proposed == 12 * 4
        assert 0 <= st.accepted <= st.proposed
        assert st.refreshes == eng.n_clusters

    def test_greens_consistent_after_sweep(self):
        """After a sweep mutates the field, a fresh boundary G computed by
        the engine must match brute force on the *current* field — i.e.
        all invalidation and incremental updates composed correctly."""
        eng, rng = small_engine()
        sweep(eng, rng)
        for sigma in (1, -1):
            g = eng.boundary_greens(sigma, 0)
            expected = brute_greens(eng.factory, eng.field, sigma)
            assert relerr(g, expected) < 1e-8

    def test_deterministic_given_seed(self):
        eng1, rng1 = small_engine(seed=5)
        eng2, rng2 = small_engine(seed=5)
        st1 = sweep(eng1, rng1)
        st2 = sweep(eng2, rng2)
        assert st1.accepted == st2.accepted
        assert np.array_equal(eng1.field.h, eng2.field.h)

    def test_different_seeds_diverge(self):
        eng1, rng1 = small_engine(seed=5)
        eng2, rng2 = small_engine(seed=6)
        sweep(eng1, rng1)
        sweep(eng2, rng2)
        assert not np.array_equal(eng1.field.h, eng2.field.h)

    def test_delay_size_does_not_change_physics_path(self):
        """Identical random stream + identical decisions regardless of
        the delayed-update block size (it is a pure performance knob)."""
        for delay in (1, 4, 64):
            eng, rng = small_engine(seed=9)
            sweep(eng, rng, max_delay=delay)
            if delay == 1:
                ref = eng.field.h.copy()
            else:
                assert np.array_equal(eng.field.h, ref)

    def test_u0_always_accepts(self):
        eng, rng = small_engine(u=0.0)
        st = sweep(eng, rng)
        assert st.accepted == st.proposed
        assert st.sign == 1.0

    def test_on_boundary_callback(self):
        """The hook sees every evaluated sector: the spin-up one alone at
        half filling (the down one is its particle-hole image), both on
        a doped copy."""
        for mu, sectors in ((0.0, {1}), (-0.5, {1, -1})):
            eng, rng = small_engine(mu=mu)
            calls = []

            def cb(c, g, sign):
                calls.append(c)
                assert set(g) == set(eng.sectors) == sectors
                assert g[1].shape == (4, 4)
                assert sign in (-1.0, 1.0)

            sweep(eng, rng, on_boundary=cb)
            assert calls == list(range(eng.n_clusters))

    def test_start_sign_threaded_through(self):
        eng, rng = small_engine(u=0.0)
        st = sweep(eng, rng, start_sign=-1.0)
        assert st.sign == -1.0  # U=0: no ratio can flip it


class TestBackwardSweep:
    def test_visits_every_entry_once(self):
        eng, rng = small_engine()
        st = sweep(eng, rng, direction="backward")
        assert st.proposed == 12 * 4

    def test_greens_consistent_after_backward_sweep(self):
        eng, rng = small_engine(seed=4)
        sweep(eng, rng, direction="backward")
        for sigma in (1, -1):
            g = eng.boundary_greens(sigma, 0)
            expected = brute_greens(eng.factory, eng.field, sigma)
            assert relerr(g, expected) < 1e-8

    def test_direction_changes_the_path(self):
        f1, _ = small_engine(seed=5)[0].field, None
        eng_f, rng_f = small_engine(seed=5)
        eng_b, rng_b = small_engine(seed=5)
        sweep(eng_f, rng_f, direction="forward")
        sweep(eng_b, rng_b, direction="backward")
        assert not np.array_equal(eng_f.field.h, eng_b.field.h)

    def test_unknown_direction_rejected(self):
        eng, rng = small_engine()
        with pytest.raises(ValueError):
            sweep(eng, rng, direction="sideways")

    def test_half_filling_invariants_hold_backward(self):
        eng, rng = small_engine(u=6.0, beta=2.0)
        st = sweep(eng, rng, direction="backward")
        assert st.negative_ratios == 0 and st.sign == 1.0

    def test_alternating_preserves_greens_consistency(self):
        eng, rng = small_engine(seed=8, lx=4, ly=2)
        for d in ("forward", "backward", "forward", "backward"):
            sweep(eng, rng, direction=d)
        g = eng.boundary_greens(1, 0)
        expected = brute_greens(eng.factory, eng.field, 1)
        assert relerr(g, expected) < 1e-8

    def test_wrap_unwrap_is_inverse(self):
        """unwrap(wrap(G, l), l) must recover G — the identity the
        backward sweep's retreat step relies on."""
        eng, _ = small_engine(seed=11)
        for sigma in (1, -1):
            g0 = eng.boundary_greens(sigma, 0)
            g = g0.copy()
            for l in (0, 1, 2):
                g = eng.wrap(g, l, sigma)
            for l in (2, 1, 0):
                g = eng.unwrap(g, l, sigma)
            assert relerr(g, g0) < 1e-10

    def test_forward_backward_statistically_compatible(self):
        """Both directions sample the same distribution: from identical
        seeds, acceptance rates agree within Monte Carlo error and the
        half-filling sign stays +1 in both."""
        n_sweeps = 12
        stats = {}
        for direction in ("forward", "backward"):
            eng, rng = small_engine(seed=21, u=4.0, beta=1.5)
            agg = SweepStats()
            for _ in range(n_sweeps):
                st = sweep(eng, rng, direction=direction)
                agg.merge(st)
                assert st.sign == 1.0
            stats[direction] = agg
        f, b = stats["forward"], stats["backward"]
        assert f.proposed == b.proposed
        # binomial std of the mean rate ~ sqrt(p(1-p)/n) ~ 0.023 here;
        # 4 sigma keeps the test deterministic-seeded yet meaningful
        p = f.acceptance_rate
        tol = 4.0 * np.sqrt(p * (1.0 - p) / f.proposed)
        assert abs(f.acceptance_rate - b.acceptance_rate) < tol


class RiggedUpdater(DelayedUpdater):
    """DelayedUpdater whose effective diagonal forces a near-singular
    Metropolis denominator: d = 1 + a*(1 - diag) == D_TARGET for the
    alpha this diagonal is rigged against."""

    #: below SINGULAR_THRESHOLD but nonzero, so r != 0 and the proposal
    #: still *enters* the acceptance branch where the guard lives
    D_TARGET = 1e-20
    #: set by the test to the (uniform) spin-up alpha of the field
    rig_alpha = None

    def anchor(self, g):
        # the sweep builds one updater and re-anchors it on every slice,
        # so the rig has to be renewed here, not in __init__
        super().anchor(g)
        self.diag[:] = 1.0 + (1.0 - self.D_TARGET) / self.rig_alpha


class ZeroRng:
    """Duck-typed Generator whose uniforms are all 0, so every proposal
    with |r| > 0 takes the acceptance branch."""

    def random(self, n):
        return np.zeros(int(n))


class TestSingularGuard:
    def make_forced_singular(self, monkeypatch, telemetry=None):
        # doped, so both sectors are evaluated: the rig sets d_+ alone.
        # With one sector d_- = 1 + alpha_- G_+(i, i) vanishes with d_+,
        # r = 0 and no proposal reaches the guard.
        model = HubbardModel(
            SquareLattice(2, 2), u=4.0, beta=1.5, n_slices=12, mu=-0.5
        )
        field = HSField.ordered(model.n_slices, model.n_sites)
        eng = GreensFunctionEngine(
            BMatrixFactory(model), field, cluster_size=4, telemetry=telemetry
        )
        # all-ones field: alpha_up is the same for every site and slice,
        # so one rigged diagonal value forces d_up = D_TARGET everywhere
        # repro.dqmc re-exports the sweep *function* under the same name
        # as the module, so fetch the module object itself
        sweep_module = sys.modules["repro.dqmc.sweep"]
        RiggedUpdater.rig_alpha = float(np.exp(-2.0 * model.nu) - 1.0)
        monkeypatch.setattr(sweep_module, "DelayedUpdater", RiggedUpdater)
        return model, eng

    def test_forced_singular_rejects_instead_of_corrupting(self, monkeypatch):
        model, eng = self.make_forced_singular(monkeypatch)
        before = eng.field.h.copy()
        st = sweep(eng, ZeroRng())
        assert st.proposed == model.n_slices * model.n_sites
        assert st.singular_rejects == st.proposed
        assert st.accepted == 0
        assert st.sign == 1.0
        # nothing was flipped, so the chain state is untouched
        np.testing.assert_array_equal(eng.field.h, before)

    def test_guard_reports_to_telemetry(self, monkeypatch, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(TelemetryWriter(path), snapshot_every=0)
        model, eng = self.make_forced_singular(monkeypatch, telemetry=tel)
        st = sweep(eng, ZeroRng(), telemetry=tel)
        tel.close()
        total = model.n_slices * model.n_sites
        assert tel.registry.counter("sweep.singular_guard_hits") == total
        events = [e for e in read_events(path) if e["event"] == "singular_reject"]
        assert len(events) == model.n_slices  # one per slice that tripped
        assert sum(e["count"] for e in events) == st.singular_rejects == total

    def test_threshold_is_not_overly_aggressive(self):
        """Ordinary sweeps at a typical operating point never trip the
        guard — it only fires on genuinely degenerate denominators."""
        eng, rng = small_engine(u=4.0, beta=2.0)
        agg = SweepStats()
        for _ in range(5):
            agg.merge(sweep(eng, rng))
        assert agg.singular_rejects == 0
        assert agg.accepted > 0

    def test_threshold_value(self):
        # pinned: changing it alters which chains survive; see sweep.py
        assert SINGULAR_THRESHOLD == 1e-12


class RecordingUpdater(DelayedUpdater):
    """DelayedUpdater that keeps a weak reference to every G it was
    anchored on."""

    anchored = []

    def anchor(self, g):
        super().anchor(g)
        self.anchored.append(weakref.ref(g))


class TestReusedUpdater:
    """The engine keeps one delayed updater across sweeps, rebuilt only
    when it no longer fits, and anchored on no G between sweeps."""

    #: (max_delay, precision) per sweep: reuse, a delay change, a
    #: mid-run promotion mixed -> full64, reuse, a delay change
    PLAN = ((8, "mixed"), (8, "mixed"), (3, "mixed"), (3, "full64"),
            (3, "full64"), (5, "full64"))

    @classmethod
    def _chain(cls, reuse, mu):
        model = HubbardModel(
            SquareLattice(2, 2), u=4.0, beta=1.5, n_slices=12, mu=mu
        )
        rng = np.random.default_rng(17)
        field = HSField.random(model.n_slices, model.n_sites, rng)
        eng = GreensFunctionEngine(
            BMatrixFactory(model), field, cluster_size=4, precision="mixed"
        )
        kept, accepted = [], 0
        for k, (delay, policy) in enumerate(cls.PLAN):
            eng.set_precision(policy)
            if not reuse:
                eng.delayed_updater = None
            st = sweep(eng, rng, max_delay=delay,
                       direction=("forward", "backward")[k % 2])
            kept.append(eng.delayed_updater)
            accepted += st.accepted
        return eng, kept, accepted

    @pytest.mark.parametrize("mu", [0.0, -0.5])
    def test_reuse_equals_a_fresh_updater_per_sweep(self, mu):
        reused, kept, accepted = self._chain(True, mu)
        fresh, _, fresh_accepted = self._chain(False, mu)
        assert accepted == fresh_accepted > 0
        np.testing.assert_array_equal(reused.field.h, fresh.field.h)
        for s in reused.sectors:
            np.testing.assert_array_equal(
                reused.boundary_greens(s, 0), fresh.boundary_greens(s, 0)
            )
        a, b, c, d, e, f = kept
        assert a is b and d is e
        assert len({id(a), id(c), id(d), id(f)}) == 4
        assert [u.max_delay for u in kept] == [8, 8, 3, 3, 3, 5]
        assert c.diag.dtype == np.float32 and d.diag.dtype == np.float64
        assert a.diag.shape == (len(reused.sectors), 4)

    def test_kept_updater_holds_no_g(self, monkeypatch):
        sweep_module = sys.modules["repro.dqmc.sweep"]
        monkeypatch.setattr(sweep_module, "DelayedUpdater", RecordingUpdater)
        monkeypatch.setattr(RecordingUpdater, "anchored", [])
        eng, rng = small_engine(seed=2)
        for direction in ("forward", "backward"):
            sweep(eng, rng, direction=direction)
            gc.collect()
            upd = eng.delayed_updater
            assert isinstance(upd, RecordingUpdater) and upd.g is None
            # every slice's G, the last one included, is gone
            assert len(upd.anchored) == 12
            assert all(ref() is None for ref in upd.anchored)
            upd.anchored.clear()
        assert eng.delayed_updater is upd


class TestSweepStats:
    def test_merge(self):
        a = SweepStats(
            proposed=10, accepted=5, negative_ratios=1, refreshes=2,
            singular_rejects=1,
        )
        b = SweepStats(
            proposed=4, accepted=1, negative_ratios=0, refreshes=1,
            singular_rejects=2,
        )
        a.merge(b)
        assert (a.proposed, a.accepted, a.negative_ratios, a.refreshes) == (
            14, 6, 1, 3,
        )
        assert a.singular_rejects == 3
        assert a.sign == 1.0

    def test_merge_keeps_the_worst_health_signal(self):
        a = SweepStats(wrap_drift=1e-9, boundaries=3, grading_ratio=1e5)
        a.merge(SweepStats(wrap_drift=1e-12, boundaries=3, grading_ratio=1e7))
        assert (a.wrap_drift, a.boundaries, a.grading_ratio) == (1e-9, 6, 1e7)
        a.merge(SweepStats())  # nothing measured: nothing changes
        assert (a.wrap_drift, a.boundaries, a.grading_ratio) == (1e-9, 6, 1e7)

    def test_merge_carries_latest_sign(self):
        """The aggregate reports the sign of the latest configuration,
        not the +1 it was constructed with."""
        agg = SweepStats()
        agg.merge(SweepStats(proposed=4, sign=-1.0))
        assert agg.sign == -1.0
        agg.merge(SweepStats())  # e.g. warmup(0): no configuration seen
        assert agg.sign == -1.0
        agg.merge(SweepStats(proposed=4, sign=1.0))
        assert agg.sign == 1.0

    def test_acceptance_rate(self):
        assert SweepStats(proposed=8, accepted=2).acceptance_rate == 0.25
        assert SweepStats().acceptance_rate == 0.0


def replayed_forward_drift(eng, h_before, monkeypatch=None):
    """The per-boundary wrap drift of the forward sweep that took
    ``h_before`` to ``eng.field.h``, recomputed independently: a second
    engine built cold at every boundary, per-spin wraps, and one plain
    rank-1 update per accepted flip instead of the delayed updater. With
    ``monkeypatch`` the replay wraps through the same noisy pair wrap."""
    h_after = eng.field.h
    field = HSField(h_before.copy())
    ref = GreensFunctionEngine(
        BMatrixFactory(eng.factory.model), field, cluster_size=eng.cluster_size
    )
    if monkeypatch is not None:
        noisy_wraps(ref, monkeypatch)
    nu = ref.factory.nu
    spins = eng.sectors  # what the sweep carried and compared
    drifts, g = [], None
    for c in range(ref.n_clusters):
        ref.invalidate_all()
        fresh = [ref.boundary_greens(s, c) for s in spins]
        if g is not None:
            drifts.append(max(relerr(a, b) for a, b in zip(g, fresh)))
        g = fresh
        for l in ref.cache.ranges[c]:
            if monkeypatch is None:
                g = [ref.wrap(gs, l, s) for gs, s in zip(g, spins)]
            else:
                g = list(ref.wrap_pair(np.stack(g), l))
            for i in np.flatnonzero(h_before[l] != h_after[l]):
                for gs, s in zip(g, spins):
                    alpha = np.exp(-2.0 * s * nu * field.h[l, i]) - 1.0
                    d = 1.0 + alpha * (1.0 - gs[i, i])
                    row = -gs[i, :].copy()
                    row[i] += 1.0
                    gs -= (alpha / d) * np.outer(gs[:, i].copy(), row)
                field.h[l, i] = -field.h[l, i]
    np.testing.assert_array_equal(field.h, h_after)
    return drifts


class TestHealthSignals:
    """What the sweep records about the G it discards at each boundary."""

    @pytest.mark.parametrize("lx, cluster", [(4, 5), (6, 4)])
    def test_healthy_chain_records_small_drift_at_every_boundary(
        self, lx, cluster
    ):
        eng, rng = small_engine(beta=2.0, n_slices=20, cluster=cluster,
                                seed=3, lx=lx, ly=lx)
        h_before = eng.field.h.copy()
        st = sweep(eng, rng)
        assert st.boundaries == eng.n_clusters - 1
        assert 0.0 < st.wrap_drift < 1e-8
        # rounding-level numbers: equal to the independent replay to
        # rounding, not digit for digit
        replay = replayed_forward_drift(eng, h_before)
        assert len(replay) == st.boundaries
        assert abs(st.wrap_drift - max(replay)) < 1e-10
        # boundary 0 decomposes the whole chain
        assert st.grading_ratio >= eng.last_stats.grading_ratio > 1.0

    def test_recorded_drift_equals_independent_replay(self, monkeypatch):
        """With a wrap that loses 1e-4 per call the drift is far above
        rounding, and the recorded number is the replayed one."""
        eng, rng = small_engine(beta=2.0, n_slices=20, cluster=5, seed=3,
                                lx=4, ly=4)
        noisy_wraps(eng, monkeypatch)
        h_before = eng.field.h.copy()
        st = sweep(eng, rng)
        replay = replayed_forward_drift(eng, h_before, monkeypatch)
        assert st.wrap_drift > 1e-5
        assert st.wrap_drift == pytest.approx(max(replay), rel=1e-6)

    def test_backward_and_alternating_sweeps_record_drift(self):
        eng, rng = small_engine(seed=8, lx=4, ly=2)
        for direction in ("backward", "forward", "backward"):
            st = sweep(eng, rng, direction=direction)
            assert st.boundaries == eng.n_clusters - 1
            assert 0.0 < st.wrap_drift < 1e-8
            assert st.grading_ratio > 1.0

    def test_backward_sweep_sees_a_drifting_unwrap(self, monkeypatch):
        eng, rng = small_engine(seed=8, lx=4, ly=2)
        clean = eng.unwrap_pair
        monkeypatch.setattr(
            eng, "unwrap_pair", lambda gs, l: clean(gs, l) * (1.0 + 1e-4)
        )
        assert sweep(eng, rng, direction="backward").wrap_drift > 1e-5

    def test_one_cluster_chain_compares_no_boundary(self):
        eng, rng = small_engine(cluster=12)
        for direction in ("forward", "backward"):
            st = sweep(eng, rng, direction=direction)
            assert st.boundaries == 0 and st.wrap_drift == 0.0
            assert st.grading_ratio > 1.0

    def test_non_finite_g_can_never_pass_a_tolerance(self, monkeypatch):
        eng, rng = small_engine()
        clean = eng.wrap_pair

        def poisoned(gs, l):
            out = clean(gs, l)
            if l == 3:  # last slice of cluster 0
                out[0, 0, 1] = np.nan
            return out

        monkeypatch.setattr(eng, "wrap_pair", poisoned)
        assert sweep(eng, rng).wrap_drift == np.inf


def golden_engine(seed, backend="numpy", dense=False, mu=0.0):
    """4x4, beta=2, U=4 with every option pinned, so the $REPRO_* CI legs
    run the same chain. ``dense=True`` carries the same torus bonds on a
    ``GeneralLattice``: the same K bit for bit, but no separable structure,
    so the kernels under test see the dense ``exp(-dtau K)`` GEMM path.
    At the default ``mu = 0`` the engine evaluates the spin-up sector
    alone; a nonzero ``mu`` (the doped copy) keeps both."""
    lattice = SquareLattice(4, 4)
    if dense:
        lattice = dense_twin(lattice)
    model = HubbardModel(lattice, u=4.0, beta=2.0, n_slices=20, mu=mu)
    rng = np.random.default_rng(seed)
    field = HSField.random(model.n_slices, model.n_sites, rng)
    engine = GreensFunctionEngine(
        BMatrixFactory(model, kinetic="exact"), field, cluster_size=5,
        backend=backend, precision="full64",
    )
    return engine, rng


def sha1(a):
    return hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestGoldenChain:
    """Same-seed full64/exact chains: SHA-1 of ``field.h`` and of the
    spin-up boundary G, and the accepted count, after 5 forward+backward
    sweeps; one value per seed on every backend and block size.

    The field hashes and accepted counts are the ones recorded from the
    commit before the spin-stacked delayed updater. The G hashes were
    re-recorded when ``boundary_greens`` began joining a prefix and a
    transposed-suffix factorization instead of inverting one full chain:
    the same G to ~1e-13, rounded differently (at boundary 0 it is the
    transpose of the stable inverse of the transposed chain), which moved
    no accept decision in any of the 18 cases. They were re-recorded once
    more when ``kinetic="exact"`` on a rectangle began applying
    ``exp(-dtau K)`` as its Kronecker factors ``exp(-dtau Ky) (x)
    exp(-dtau Kx)`` instead of one dense GEMM: the same propagator to
    ~1e-15, so G moves by ~5e-15 and again no accept decision does. The
    dense-GEMM values live on as ``GOLDEN_DENSE_G``, reproduced by the
    ``GeneralLattice`` twin of the same torus."""

    GOLDEN = {
        11: ("38629d7e6715e5f8602147f352c906927064d57b",
             "59e33805906d4a6a12392514a671b85310864d0f", 2190),
        12: ("d0a22a4c38dc5fe23a3731f386359d2113e28e3e",
             "68b156d70024d0cee83872ec0a119812091edbc0", 2126),
    }
    #: boundary-G hashes of the same chains through the dense GEMM path
    GOLDEN_DENSE_G = {
        11: "e812361fb3fbab2fcba28a1a690ad53b47fdb1e4",
        12: "b4497b937a708b8462ba9ea8bad1e27f48e3678e",
    }
    #: delayed_update flops of the first forward sweep of seed 11 (230
    #: accepts), keyed by max_delay: one sector (the down one is the
    #: particle-hole image), half of the 264960 / 352512 / 426240 both
    #: sectors cost on this chain
    GOLDEN_FLOPS = {1: 132480.0, 8: 176256.0, 32: 213120.0}
    #: the same on the doped copy (mu = -0.5, 234 accepts), which keeps
    #: both sectors
    GOLDEN_DOPED_FLOPS = {1: 269568.0, 8: 360832.0, 32: 436608.0}

    @staticmethod
    def run_chain(eng, rng, max_delay):
        """Five forward+backward sweeps; returns (field, boundary G, accepts)."""
        accepted = 0
        sign = 1.0
        for _ in range(5):
            for direction in ("forward", "backward"):
                st = sweep(eng, rng, max_delay=max_delay, direction=direction,
                           start_sign=sign)
                accepted += st.accepted
                sign = st.sign
        return eng.field.h, eng.boundary_greens(1, 0), accepted

    @pytest.mark.parametrize("backend", ["numpy", "threaded", "gpu-sim"])
    @pytest.mark.parametrize("max_delay", [1, 8, 32])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_chain_is_bit_identical_to_parent(self, seed, max_delay, backend):
        h, g, accepted = self.run_chain(*golden_engine(seed, backend), max_delay)
        assert (sha1(h), sha1(g), accepted) == self.GOLDEN[seed]

    @pytest.mark.parametrize("seed", [11, 12])
    def test_dense_twin_runs_the_same_chain(self, seed):
        """Kronecker factors vs the dense GEMM (the ``GeneralLattice``
        twin): identical HS field and accept count, boundary G to 1e-11 —
        and the dense path still gives its recorded hash."""
        h, g, accepted = self.run_chain(*golden_engine(seed), 8)
        h_d, g_d, accepted_d = self.run_chain(*golden_engine(seed, dense=True), 8)
        assert np.array_equal(h, h_d) and accepted == accepted_d
        assert np.abs(g - g_d).max() < 1e-11
        assert sha1(g_d) == self.GOLDEN_DENSE_G[seed]

    @pytest.mark.parametrize("max_delay", [1, 8, 32])
    def test_delayed_update_ledger_is_exact(self, max_delay):
        """Handing the flops to the ledger once per flush must not move
        the total: per accept and sector 2 * 2*n*pending for the G_eff
        reads plus 4n, plus the flush GEMMs; one sector at half filling,
        two on the doped copy."""
        for mu, accepts, golden in (
            (0.0, 230, self.GOLDEN_FLOPS),
            (-0.5, 234, self.GOLDEN_DOPED_FLOPS),
        ):
            eng, rng = golden_engine(11, mu=mu)
            with flops.tally() as tally:
                st = sweep(eng, rng, max_delay=max_delay)
            assert st.accepted == accepts
            assert tally.flops["delayed_update"] == golden[max_delay]
            if max_delay == 1:  # nothing ever pending: 4n + one rank-1 GEMM
                n, sectors = eng.n, len(eng.sectors)
                assert tally.flops["delayed_update"] == (
                    sectors * accepts * (4 * n + 2 * n * n)
                )


class TestHalfFillingInvariants:
    def test_sign_stays_positive(self):
        eng, rng = small_engine(u=6.0, beta=2.0)
        st = sweep(eng, rng)
        assert st.negative_ratios == 0
        assert st.sign == 1.0

    def test_per_config_density_is_one(self):
        """Particle-hole symmetry at mu = 0: n_up(i) + n_dn(i) = 1 per
        site for every configuration."""
        eng, rng = small_engine(u=4.0, beta=2.0, lx=4, ly=2)
        sweep(eng, rng)
        g_up = eng.boundary_greens(1, 0)
        g_dn = eng.boundary_greens(-1, 0)
        total = (1 - np.diag(g_up)) + (1 - np.diag(g_dn))
        np.testing.assert_allclose(total, 1.0, atol=1e-9)
