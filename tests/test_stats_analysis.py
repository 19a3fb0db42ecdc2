"""`repro analyze` backend + CLI: reports from every artifact kind."""

import json

import numpy as np
import pytest

from repro import HubbardModel, Simulation, SquareLattice
from repro.cli import main
from repro.dqmc import save_checkpoint
from repro.io import save_observables
from repro.measure import binned_statistics
from repro.stats import (
    RunController,
    analyze_archive,
    analyze_checkpoint,
    analyze_path,
    render_analysis,
)
from tests.helpers import RecordingAccumulator, rewrite_as_series

INPUT = """\
nx = 2
ny = 2
u = 4.0
dtau = 0.125
l = 8
north = 4
nwarm = 2
npass = 200
seed = 5
"""


def make_sim():
    model = HubbardModel(SquareLattice(2, 2), u=4.0, beta=1.0, n_slices=8)
    return Simulation(model, seed=3, cluster_size=4)


@pytest.fixture
def checkpoint(tmp_path):
    sim = make_sim()
    sim.warmup(2)
    sim.measure_sweeps(16)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, sim)
    return path


@pytest.fixture
def archive(tmp_path):
    rng = np.random.default_rng(0)
    obs = {
        "density": binned_statistics(1.0 + 0.01 * rng.standard_normal(64)),
        "sign": binned_statistics(np.ones(64)),
    }
    path = tmp_path / "results.npz"
    save_observables(
        path,
        obs,
        metadata={
            "sign_corrected": True,
            "equilibration_cut": 8,
            "control": {
                "target_observable": "density",
                "target_error": 0.01,
                "target_met": True,
                "discarded": 8,
            },
        },
    )
    return path


class TestAnalyzeCheckpoint:
    def test_posthoc_report(self, tmp_path):
        """A checkpoint of retained sample series is replayed into the
        log-binned state: the estimates equal the stream checkpoint's of
        the same run, and the series feed the diagnostics."""
        sim = make_sim()
        sim.collector.accumulator = RecordingAccumulator()
        sim.warmup(2)
        sim.measure_sweeps(16)
        stream_path, series_path = tmp_path / "s.npz", tmp_path / "p.npz"
        save_checkpoint(stream_path, sim)
        save_checkpoint(series_path, sim)
        rewrite_as_series(series_path, sim.collector.accumulator.samples)
        report = analyze_checkpoint(series_path)
        assert report["kind"] == "checkpoint"
        assert report["mode"] == "replayed"
        assert report["sign_corrected"] is True
        assert report["model"]["n_sites"] == 4
        density = report["observables"]["density"]
        assert density["corrected"] is True
        assert np.isfinite(density["mean"])
        # Full series retained -> fresh equilibration + tau diagnostics.
        assert "equilibration" in report
        assert "tau_int" in density
        stream = analyze_checkpoint(stream_path)["observables"]
        assert set(stream) == set(report["observables"])
        for name, entry in stream.items():
            assert report["observables"][name]["mean"] == entry["mean"]
            assert report["observables"][name]["error"] == entry["error"]

    def test_streaming_report(self, tmp_path):
        sim = make_sim()
        sim.attach_controller(
            RunController(
                target_error=0.05, check_every=8, min_samples=16,
                equilibrate=False,
            )
        )
        sim.warmup(2)
        sim.measure_until(64)
        path = tmp_path / "stream.npz"
        save_checkpoint(path, sim)
        report = analyze_checkpoint(path)
        assert report["mode"] == "streaming"
        assert report["controller"]["target_error"] == 0.05
        assert report["observables"]["density"]["corrected"] is True

    def test_render(self, checkpoint):
        text = render_analysis(analyze_checkpoint(checkpoint))
        assert "checkpoint" in text
        assert "density" in text
        assert "sign correction: on" in text


class TestAnalyzeArchive:
    def test_report_surfaces_provenance(self, archive):
        report = analyze_archive(archive)
        assert report["kind"] == "archive"
        assert report["sign_corrected"] is True
        assert report["equilibration"]["n_cut"] == 8
        assert report["controller"]["target_met"] is True
        entry = report["observables"]["density"]
        assert entry["corrected"] is True
        assert np.isfinite(entry["relative_error"])

    def test_render_mentions_control(self, archive):
        text = render_analysis(analyze_archive(archive))
        assert "run control" in text
        assert "met" in text


class TestDispatch:
    def test_checkpoint_vs_archive(self, checkpoint, archive):
        assert analyze_path(checkpoint)["kind"] == "checkpoint"
        assert analyze_path(archive)["kind"] == "archive"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            analyze_path(tmp_path / "nope.npz")

    def test_non_campaign_dir(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            analyze_path(tmp_path)

    def test_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, x=np.arange(3))
        with pytest.raises(ValueError, match="neither"):
            analyze_path(path)


class TestAnalyzeCampaign:
    @pytest.fixture
    def campaign_dir(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "ana",
                    "base": {
                        "nx": 2, "ny": 2, "dtau": 0.125, "l": 8,
                        "north": 4, "nwarm": 2, "npass": 8,
                    },
                    "grid": {"u": [4.0]},
                    "replicas": 2,
                    "base_seed": 11,
                }
            )
        )
        cdir = tmp_path / "camp"
        assert (
            main(
                [
                    "campaign", "run", str(spec),
                    "--dir", str(cdir),
                    "--executor", "thread", "--quiet",
                ]
            )
            == 0
        )
        return cdir

    def test_replicas_merged_with_rhat(self, campaign_dir):
        report = analyze_path(campaign_dir)
        assert report["kind"] == "campaign"
        assert report["n_jobs"] == 2
        (group,) = report["merged"]
        density = group["observables"]["density"]
        assert density["n_replicas"] == 2
        assert "rhat" in density
        text = render_analysis(report)
        assert "merged" in text and "2 replicas" in text

    def test_cli_on_campaign_dir(self, campaign_dir, capsys):
        assert main(["analyze", str(campaign_dir)]) == 0
        assert "campaign" in capsys.readouterr().out


class TestAnalyzeCli:
    def test_analyze_checkpoint(self, checkpoint, capsys):
        assert main(["analyze", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "density" in out and "checkpoint" in out

    def test_analyze_json(self, archive, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", str(archive), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "archive"

    def test_analyze_bad_path(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.npz")]) != 0


class TestTargetErrorCli:
    @pytest.fixture
    def input_file(self, tmp_path):
        p = tmp_path / "run.in"
        p.write_text(INPUT)
        return p

    def test_adaptive_run_stops_early(self, input_file, tmp_path, capsys):
        out_path = tmp_path / "out.npz"
        ck_path = tmp_path / "ck.npz"
        code = main(
            [
                "run", str(input_file),
                "--target-error", "0.05",
                "--output", str(out_path),
                "--checkpoint", str(ck_path),
                "--quiet",
            ]
        )
        assert code == 0
        obs, meta = __import__(
            "repro.io", fromlist=["load_observables"]
        ).load_observables(out_path)
        assert meta["control"]["target_met"] is True
        # budget was 200; half-filled density converges much sooner
        assert "density.corrected" in obs
        # analyze the archive end to end
        assert main(["analyze", str(out_path)]) == 0
        assert "run control" in capsys.readouterr().out
        # the final checkpoint carries the stopped decision state; its
        # report must say so (state_dict spells the flag "stopped")
        report = analyze_checkpoint(ck_path)
        assert report["controller"]["target_met"] is True
        assert "(met" in render_analysis(report)

    def test_streaming_flag(self, input_file, tmp_path, capsys):
        """The flag is gone (every run is log-binned): argparse refuses
        it, and so does the input-file parser the ``streaming`` key."""
        with pytest.raises(SystemExit) as exc:
            main(["run", str(input_file), "--streaming", "--quiet"])
        assert exc.value.code == 2
        assert "--streaming" in capsys.readouterr().err
        keyed = tmp_path / "keyed.in"
        keyed.write_text(INPUT + "streaming = 1\n")
        assert main(["run", str(keyed), "--quiet"]) == 2
        assert "unknown key 'streaming'" in capsys.readouterr().err

    def test_bad_target_error_rejected(self, input_file, tmp_path):
        assert (
            main(
                [
                    "run", str(input_file),
                    "--target-error", "-1",
                    "--quiet",
                ]
            )
            == 2
        )
