"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.io import load_observables

INPUT = """\
nx = 2
ny = 2
u = 4.0
dtau = 0.125
l = 8
north = 4
nwarm = 2
npass = 6
seed = 5
"""


@pytest.fixture
def input_file(tmp_path):
    p = tmp_path / "run.in"
    p.write_text(INPUT)
    return p


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        from repro import __version__

        assert capsys.readouterr().out.strip() == __version__


class TestInfo:
    def test_reports_derived_quantities(self, input_file, capsys):
        assert main(["info", str(input_file)]) == 0
        out = capsys.readouterr().out
        assert "beta = 1" in out
        assert "conditioning" in out
        assert "N = 4" in out

    def test_reports_qmclint_version(self, input_file, capsys):
        import re

        assert main(["info", str(input_file)]) == 0
        out = capsys.readouterr().out
        # e.g. "qmclint          2.0.0 (14 rules)" — pins the analysis
        # gate in bug reports from source checkouts
        assert re.search(r"qmclint\s+\d+\.\d+\.\d+ \(\d+ rules\)", out)

    def test_warns_on_unsafe_k(self, tmp_path, capsys):
        p = tmp_path / "hot.in"
        p.write_text(
            "nx = 2\nny = 2\nu = 8.0\ndtau = 0.5\nl = 10\nnorth = 10\n"
        )
        main(["info", str(p)])
        assert "WARNING" in capsys.readouterr().out

    @pytest.mark.parametrize("north, warns", [(11, False), (33, True)])
    def test_warning_reads_the_conditioning_bound(
        self, tmp_path, capsys, north, warns
    ):
        """8x8, U = 4, dtau = 0.1 allows k <= 13; L = 33 has no divisor
        near 10, which must not shrink the bound the warning checks."""
        p = tmp_path / "l33.in"
        p.write_text(
            f"nx = 8\nny = 8\nu = 4.0\ndtau = 0.1\nl = 33\nnorth = {north}\n"
        )
        assert main(["info", str(p)]) == 0
        out = capsys.readouterr().out
        assert "safe cluster/wrap size k <= 13" in out
        assert ("WARNING" in out) is warns
        if warns:
            assert "configured k = 33 exceeds the safe bound 13" in out


class TestRun:
    def test_produces_archive(self, input_file, capsys):
        assert main(["run", str(input_file), "--quiet"]) == 0
        out = input_file.with_suffix(".npz")
        assert out.exists()
        obs, meta = load_observables(out)
        assert "density" in obs
        assert obs["sign"].n_samples == 6
        assert 0 <= meta["acceptance"] <= 1

    def test_summary_names_precision_and_spin_sectors(self, input_file, capsys):
        """The printed summary says which precision the run ended in, how
        often the watchdog promoted it and how many spin sectors were
        evaluated (one at half filling)."""
        assert main(["run", str(input_file)]) == 0
        out = capsys.readouterr().out
        assert "precision          full64 (0 watchdog promotions)" in out
        assert "spin sectors       1 (down = particle-hole image of up)" in out

    def test_explicit_output_path(self, input_file, tmp_path):
        target = tmp_path / "custom.npz"
        main(["run", str(input_file), "--quiet", "--output", str(target)])
        assert target.exists()

    def test_checkpoint_resume_matches_straight_run(self, input_file, tmp_path):
        """Interrupting at a checkpoint and re-invoking the CLI must give
        the same final observables as one uninterrupted run."""
        straight_out = tmp_path / "straight.npz"
        main(["run", str(input_file), "--quiet", "--output", str(straight_out)])

        ck = tmp_path / "ck.npz"
        part_out = tmp_path / "part.npz"
        # run with checkpointing every 2 sweeps, then "crash" by rerunning:
        # the second invocation resumes from the checkpoint file
        main([
            "run", str(input_file), "--quiet", "--output", str(part_out),
            "--checkpoint", str(ck), "--checkpoint-every", "2",
        ])
        # rerun: finds the finished checkpoint, nothing more to do, same result
        main([
            "run", str(input_file), "--quiet", "--output", str(part_out),
            "--checkpoint", str(ck), "--checkpoint-every", "2",
        ])
        a, _ = load_observables(straight_out)
        b, _ = load_observables(part_out)
        np.testing.assert_allclose(
            np.asarray(a["double_occupancy"].mean),
            np.asarray(b["double_occupancy"].mean),
        )

    def test_true_interruption_resume(self, input_file, tmp_path, monkeypatch):
        """Simulate a crash mid-run: checkpoint after 2 of 6 sweeps, then
        resume with a fresh CLI invocation and compare to uninterrupted."""
        from repro.dqmc import load_config, save_checkpoint

        cfg = load_config(input_file)
        sim = cfg.simulation()
        sim.warmup(cfg.nwarm)
        sim.measure_sweeps(2)
        ck = tmp_path / "crash.npz"
        save_checkpoint(ck, sim)

        out = tmp_path / "resumed.npz"
        main([
            "run", str(input_file), "--quiet", "--output", str(out),
            "--checkpoint", str(ck), "--checkpoint-every", "100",
        ])
        ref_out = tmp_path / "ref.npz"
        main(["run", str(input_file), "--quiet", "--output", str(ref_out)])
        a, _ = load_observables(out)
        b, _ = load_observables(ref_out)
        np.testing.assert_allclose(
            np.asarray(a["kinetic_energy"].mean),
            np.asarray(b["kinetic_energy"].mean),
        )
