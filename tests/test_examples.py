"""Smoke tests: every example script must run end to end.

Executed as subprocesses with minimal workloads so the examples stay
green as the library evolves (the single most common way example code
rots).
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--size", "2", "--sweeps", "20")
        assert "density" in out and "time profile" in out

    def test_fermi_surface(self):
        out = run_example(
            "fermi_surface.py", "--sizes", "4", "--sweeps", "10"
        )
        assert "Fermi surface" in out

    def test_multilayer_interface(self):
        out = run_example(
            "multilayer_interface.py", "--lx", "2", "--ly", "2",
            "--layers", "2", "--sweeps", "12", "--tperp", "0.0", "1.0",
        )
        assert "interlayer" in out

    def test_gpu_offload(self):
        out = run_example("gpu_offload.py", "--size", "4", "--slices", "20")
        assert "relative difference 0.00e+00" in out
        assert "kernel launches" in out

    def test_input_file_run(self, tmp_path):
        inp = tmp_path / "run.in"
        inp.write_text(
            "nx = 2\nny = 2\nu = 4.0\ndtau = 0.125\nl = 8\nnorth = 4\n"
            "nwarm = 2\nnpass = 6\nseed = 1\n"
        )
        out = run_example("input_file_run.py", str(inp))
        assert "archived observables" in out

    def test_dynamic_response(self):
        out = run_example(
            "dynamic_response.py", "--size", "4", "--samples", "2"
        )
        assert "Fermi surface marker" in out

    def test_dynamic_response_u0_is_exact(self):
        """At U = 0 the run's ``beta G(k, beta/2)`` column is the closed
        form along the whole symmetry path."""
        out = run_example(
            "dynamic_response.py", "--size", "4", "--u", "0", "--samples", "4"
        )
        rows = [line.split() for line in out.splitlines()
                if line.strip().startswith("(")]
        assert len(rows) == 7
        got, exact = (np.array([float(r[i]) for r in rows]) for i in (1, 2))
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-8)
        assert "Fermi surface marker" in out

    def test_strong_coupling(self):
        out = run_example(
            "strong_coupling.py", "--sweeps", "8", "--size", "2",
        )
        assert "global flips" in out and "conditioning" in out

    def test_extrapolation_study(self):
        out = run_example(
            "extrapolation_study.py", "--sizes", "2", "4", "--sweeps", "8",
        )
        assert "bulk limit" in out and "continuum limit" in out
