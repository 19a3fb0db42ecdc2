"""Unit tests for simulation checkpointing."""

import json
import zipfile

import numpy as np
import pytest

from repro import HubbardModel, Simulation, SquareLattice
from repro.dqmc import CheckpointError, load_checkpoint, save_checkpoint
from repro.stats.stream import checkpoint_accumulator
from tests.helpers import RecordingAccumulator, rewrite_as_series


def make_sim(seed=3, u=4.0, **options):
    model = HubbardModel(SquareLattice(2, 2), u=u, beta=1.0, n_slices=8)
    return Simulation(model, seed=seed, cluster_size=4, **options)


def make_dynamic_sim(seed=3):
    return make_sim(seed, measure_dynamic=True)


def rewrite_as_version_1(path):
    """Re-express a version-2 checkpoint the way version 1 wrote it:
    one ``stream/<key>`` member per state array, no layout."""
    with np.load(path, allow_pickle=False) as npz:
        header = json.loads(str(npz["header"]))
        payload = {"field": npz["field"]}
        acc = checkpoint_accumulator(npz, header)
        for key, arr in acc.state_arrays().items():
            payload[f"stream/{key}"] = arr
    assert header.pop("version") == 2
    del header["stream_layout"]
    header["version"] = 1
    np.savez_compressed(path, header=np.array(json.dumps(header)), **payload)


class TestRoundTrip:
    def test_resume_is_bit_exact(self, tmp_path):
        """Stop-and-resume must equal an uninterrupted run exactly."""
        path = tmp_path / "ckpt.npz"

        # uninterrupted reference
        ref = make_sim()
        ref.warmup(3)
        ref.measure_sweeps(4)
        ref.measure_sweeps(4)
        ref_obs = ref.collector.results()

        # interrupted run
        a = make_sim()
        a.warmup(3)
        a.measure_sweeps(4)
        save_checkpoint(path, a)
        b = make_sim()  # fresh process, same configuration
        load_checkpoint(path, b)
        b.measure_sweeps(4)
        got_obs = b.collector.results()

        np.testing.assert_array_equal(b.field.h, ref.field.h)
        for name in ref_obs:
            np.testing.assert_array_equal(
                np.asarray(got_obs[name].mean), np.asarray(ref_obs[name].mean)
            )

    def test_resume_after_an_odd_sweep_count_is_bit_exact(self, tmp_path):
        """Sweeps alternate direction, so a run stopped after 2k + 1 of
        them resumes with a backward sweep: the field, the RNG state, the
        observables and the continuation's SweepStats equal an
        uninterrupted run's, and so does the watchdog's sweep count."""
        from dataclasses import asdict

        path = tmp_path / "ckpt.npz"
        ref = make_sim()
        ref.warmup(2)
        ref.measure_sweeps(3)
        ref_stats = ref.measure_sweeps(4)

        a = make_sim()
        a.warmup(2)
        a.measure_sweeps(3)
        save_checkpoint(path, a)
        b = make_sim()
        load_checkpoint(path, b)
        assert (b._sweep_parity, b._sweep_index) == (1, 5)
        stats = b.measure_sweeps(4)

        assert asdict(stats) == asdict(ref_stats)
        np.testing.assert_array_equal(b.field.h, ref.field.h)
        assert b.rng.bit_generator.state == ref.rng.bit_generator.state
        assert b._sweep_index == ref._sweep_index == 9
        for field in ("proposed", "accepted", "negative_ratios", "refreshes"):
            assert getattr(b.total_stats, field) == getattr(ref.total_stats, field)
        ref_obs, got_obs = ref.collector.results(), b.collector.results()
        assert set(got_obs) == set(ref_obs)
        for name in ref_obs:
            np.testing.assert_array_equal(
                np.asarray(got_obs[name].mean), np.asarray(ref_obs[name].mean)
            )
            np.testing.assert_array_equal(
                np.asarray(got_obs[name].error), np.asarray(ref_obs[name].error)
            )

    def test_checkpoint_without_sweep_counters_starts_forward(self, tmp_path):
        """Files written before the sweep parity was saved load with the
        counters at 0: the next sweep is a forward one."""
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        a.warmup(1)
        save_checkpoint(path, a)
        with np.load(path, allow_pickle=False) as npz:
            header = json.loads(str(npz["header"]))
            payload = {k: npz[k] for k in npz.files if k != "header"}
        del header["sweep_parity"], header["sweep_index"]
        np.savez_compressed(path, header=np.array(json.dumps(header)), **payload)
        b = make_sim()
        b.warmup(2)
        load_checkpoint(path, b)
        assert (b._sweep_parity, b._sweep_index) == (0, 0)
        assert b._next_direction() == "forward"

    def test_stats_restored(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        a.warmup(2)
        save_checkpoint(path, a)
        b = make_sim(seed=99)  # different seed; checkpoint overrides
        load_checkpoint(path, b)
        assert b.total_stats.proposed == a.total_stats.proposed
        assert b.total_stats.accepted == a.total_stats.accepted

    def test_rng_stream_restored(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        a.warmup(1)
        save_checkpoint(path, a)
        b = make_sim(seed=1234)
        load_checkpoint(path, b)
        assert a.rng.random() == b.rng.random()

    def test_empty_accumulator_roundtrips(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        save_checkpoint(path, a)
        b = make_sim()
        load_checkpoint(path, b)
        assert b.collector.n_measurements == 0


class TestAtomicSave:
    def test_failed_save_preserves_previous_checkpoint(self, tmp_path, monkeypatch):
        """A crash mid-save must never destroy the last good checkpoint."""
        import repro.dqmc.checkpoint as ckpt_mod

        path = tmp_path / "ckpt.npz"
        a = make_sim()
        a.warmup(2)
        save_checkpoint(path, a)
        good_bytes = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ckpt_mod.np, "savez_compressed", explode)
        a.measure_sweeps(1)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, a)

        assert path.read_bytes() == good_bytes
        # the partial temp file must not linger either
        assert list(tmp_path.iterdir()) == [path]
        # and the surviving file still loads
        load_checkpoint(path, make_sim())

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, make_sim())
        assert list(tmp_path.iterdir()) == [path]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        """Re-saving over an existing checkpoint goes through the same
        temp-then-rename path, so the destination is always complete."""
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        save_checkpoint(path, a)
        a.warmup(1)
        save_checkpoint(path, a)
        b = make_sim()
        load_checkpoint(path, b)
        np.testing.assert_array_equal(b.field.h, a.field.h)


class TestLosslessObservables:
    def test_zero_sample_observable_survives(self, tmp_path):
        """A registered-but-unsampled observable (here: recorded before
        an equilibration cut, not since) must round-trip, not silently
        vanish from the accumulator."""
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        a.warmup(1)
        acc = a.collector.accumulator
        acc.track("pending_obs")
        acc.add("pending_obs", 1.0)
        acc.reset()
        a.measure_sweeps(2)
        names_before = list(acc.names())
        assert acc.n_samples("pending_obs") == 0

        save_checkpoint(path, a)
        b = make_sim()
        load_checkpoint(path, b)

        bacc = b.collector.accumulator
        assert list(bacc.names()) == names_before
        assert bacc.n_samples("pending_obs") == 0
        assert bacc.series("pending_obs").shape == (0,)
        # zero-sample names must not break the final reduction
        reduced = bacc.reduce()
        assert "pending_obs" not in reduced
        assert any(bacc.n_samples(n) > 0 for n in bacc.names())

    def test_every_sample_series_restored_exactly(self, tmp_path):
        """Tracked series come back sample for sample, every estimate
        bit for bit."""
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        acc = a.collector.accumulator
        acc.track("sign")
        acc.track("density")
        a.warmup(1)
        a.measure_sweeps(3)
        save_checkpoint(path, a)
        b = make_sim()
        load_checkpoint(path, b)
        bacc = b.collector.accumulator
        assert list(bacc.names()) == list(acc.names())
        for name in acc.tracked_names:
            np.testing.assert_array_equal(bacc.series(name), acc.series(name))
        for name in acc.names():
            np.testing.assert_array_equal(
                bacc.estimate(name).mean, acc.estimate(name).mean
            )
            np.testing.assert_array_equal(
                bacc.estimate(name).error, acc.estimate(name).error
            )

    def test_load_replaces_stale_accumulator_state(self, tmp_path):
        """Loading clears anything accumulated before the restore."""
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        a.warmup(1)
        a.measure_sweeps(1)
        save_checkpoint(path, a)
        b = make_sim()
        b.warmup(1)
        b.measure_sweeps(2)  # stale pre-restore measurements
        load_checkpoint(path, b)
        assert b.collector.n_measurements == a.collector.n_measurements

    def test_singular_rejects_counter_roundtrips(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        a.warmup(1)
        a.total_stats.singular_rejects = 7
        save_checkpoint(path, a)
        b = make_sim()
        load_checkpoint(path, b)
        assert b.total_stats.singular_rejects == 7

    def test_pre_guard_checkpoint_loads_with_zero_rejects(self, tmp_path):
        """Checkpoints written before the singular-guard counter existed
        lack the stats key; loading must default it to zero."""
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        a.warmup(1)
        save_checkpoint(path, a)
        with np.load(path, allow_pickle=False) as npz:
            payload = {k: npz[k] for k in npz.files}
        header = json.loads(str(payload["header"]))
        del header["stats"]["singular_rejects"]
        payload["header"] = np.array(json.dumps(header))
        np.savez_compressed(path, **payload)
        b = make_sim()
        load_checkpoint(path, b)
        assert b.total_stats.singular_rejects == 0


@pytest.mark.parametrize("version", [1, 2])
class TestStreamingFormats:
    """Streaming checkpoints: the packed version-2 member and the
    per-array version-1 members both load, atomically and losslessly."""

    def save(self, path, sim, version):
        save_checkpoint(path, sim)
        if version == 1:
            rewrite_as_version_1(path)
        members = zipfile.ZipFile(path).namelist()
        if version == 2:
            assert sorted(members) == ["field.npy", "header.npy", "stream.npy"]
        else:
            assert len(members) > 20

    def test_resume_is_bit_exact(self, tmp_path, version):
        path = tmp_path / "ckpt.npz"
        ref = make_dynamic_sim()
        ref.warmup(3)
        ref.measure_sweeps(5)
        ref.measure_sweeps(4)
        ref_obs = ref.collector.results()

        a = make_dynamic_sim()
        a.warmup(3)
        a.measure_sweeps(5)
        self.save(path, a, version)
        b = make_dynamic_sim()
        load_checkpoint(path, b)
        b.measure_sweeps(4)
        got_obs = b.collector.results()

        np.testing.assert_array_equal(b.field.h, ref.field.h)
        assert set(got_obs) == set(ref_obs) and "g_loc_tau" in ref_obs
        for name, est in ref_obs.items():
            np.testing.assert_array_equal(got_obs[name].mean, est.mean)
            np.testing.assert_array_equal(got_obs[name].error, est.error)

    def test_every_state_array_restored_exactly(self, tmp_path, version):
        path = tmp_path / "ckpt.npz"
        a = make_dynamic_sim()
        a.collector.accumulator.track("density")
        a.warmup(1)
        a.measure_sweeps(3)
        self.save(path, a, version)
        b = make_dynamic_sim()
        load_checkpoint(path, b)
        acc, bacc = a.collector.accumulator, b.collector.accumulator
        assert bacc.state_meta() == acc.state_meta()
        saved, restored = acc.state_arrays(), bacc.state_arrays()
        assert list(restored) == list(saved)
        for key, arr in saved.items():
            assert restored[key].shape == arr.shape, key
            np.testing.assert_array_equal(restored[key], arr)

    def test_failed_save_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch, version
    ):
        import repro.dqmc.checkpoint as ckpt_mod

        path = tmp_path / "ckpt.npz"
        a = make_dynamic_sim()
        a.warmup(1)
        a.measure_sweeps(2)
        self.save(path, a, version)
        good_bytes = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ckpt_mod.np, "savez_compressed", explode)
        a.measure_sweeps(1)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, a)
        assert path.read_bytes() == good_bytes
        assert list(tmp_path.iterdir()) == [path]
        load_checkpoint(path, make_dynamic_sim())


def test_truncated_packed_member_is_rejected(tmp_path):
    path = tmp_path / "ckpt.npz"
    a = make_dynamic_sim()
    a.warmup(1)
    a.measure_sweeps(2)
    save_checkpoint(path, a)
    with np.load(path, allow_pickle=False) as npz:
        payload = {k: npz[k] for k in npz.files}
    payload["stream"] = payload["stream"][:-1]
    np.savez_compressed(path, **payload)
    with pytest.raises(ValueError):
        load_checkpoint(path, make_dynamic_sim())


class TestValidation:
    def test_model_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, make_sim(u=4.0))
        with pytest.raises(CheckpointError, match="different model"):
            load_checkpoint(path, make_sim(u=6.0))

    def test_version_check(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        save_checkpoint(path, a)
        with np.load(path, allow_pickle=False) as npz:
            payload = {k: npz[k] for k in npz.files}
        header = json.loads(str(payload["header"]))
        header["version"] = 999
        payload["header"] = np.array(json.dumps(header))
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, make_sim())


class TestOneAccumulator:
    def test_default_checkpoint_holds_the_packed_stream(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        a = make_sim()
        a.warmup(1)
        a.measure_sweeps(2)
        save_checkpoint(path, a)
        members = zipfile.ZipFile(path).namelist()
        assert sorted(members) == ["field.npy", "header.npy", "stream.npy"]
        assert not any(m.startswith("obs") for m in members)

    def test_streaming_false_is_rejected(self):
        with pytest.raises(ValueError, match="post-hoc accumulation was removed"):
            make_sim(streaming=False)

    def test_series_checkpoint_resumes_bit_exact(self, tmp_path):
        """A checkpoint that retained per-name sample series loads by
        replaying them: 4 more sweeps match an uninterrupted run."""
        path = tmp_path / "ckpt.npz"
        ref = make_dynamic_sim()
        ref.warmup(3)
        ref.measure_sweeps(5)
        ref.measure_sweeps(4)

        a = make_dynamic_sim()
        a.collector.accumulator = RecordingAccumulator()
        a.warmup(3)
        a.measure_sweeps(5)
        save_checkpoint(path, a)
        rewrite_as_series(path, a.collector.accumulator.samples)
        members = zipfile.ZipFile(path).namelist()
        assert "stream.npy" not in members and "obs0.npy" in members

        b = make_dynamic_sim()
        load_checkpoint(path, b)
        assert b.measured_sweeps == 5
        b.measure_sweeps(4)

        np.testing.assert_array_equal(b.field.h, ref.field.h)
        for got, want in (
            (b.collector.results(), ref.collector.results()),
            (b.collector.corrected_results(), ref.collector.corrected_results()),
        ):
            assert set(got) == set(want) and "g_k_tau" in want
            for name, est in want.items():
                np.testing.assert_array_equal(got[name].mean, est.mean)
                np.testing.assert_array_equal(got[name].error, est.error)
