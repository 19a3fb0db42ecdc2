"""Unit tests for QUEST-style input files."""

import pytest

from repro import SimulationConfig, load_config
from repro.dqmc import parse_config
from repro.lattice import MultilayerLattice, SquareLattice

EXAMPLE = """
# an 8x8 plane at U = 2
nx   = 8
ny   = 8
u    = 2.0
mu   = 0.0
dtau = 0.125
l    = 40
nwarm = 10
npass = 20
seed  = 7
method = qrp
north  = 10
"""


class TestParsing:
    def test_example_roundtrip(self):
        cfg = parse_config(EXAMPLE)
        assert cfg.nx == 8 and cfg.u == 2.0 and cfg.l == 40
        assert cfg.method == "qrp"
        cfg2 = parse_config(cfg.dumps())
        assert cfg2 == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# only a comment\n\nnx = 3 # trailing\n")
        assert cfg.nx == 3

    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == SimulationConfig()

    def test_beta_derived(self):
        cfg = parse_config("dtau = 0.2\nl = 40\nnorth = 10\n")
        assert cfg.beta == pytest.approx(8.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("nz = 4\n")

    def test_streaming_key_rejected(self):
        # every run accumulates log-binned; the old mode key is unknown
        with pytest.raises(ValueError, match="unknown key 'streaming'"):
            parse_config("streaming = 1\n")

    def test_altdir_key_rejected(self):
        # every run alternates sweep directions; the old switch is unknown
        with pytest.raises(ValueError, match="unknown key 'altdir'"):
            parse_config("altdir = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_config("nx = eight\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_config("just some words\n")

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            parse_config("method = lu\n")

    def test_indivisible_cluster_rejected(self):
        with pytest.raises(ValueError, match="must divide"):
            parse_config("l = 32\nnorth = 10\n")

    def test_case_insensitive_keys(self):
        cfg = parse_config("NX = 5\nU = 3.5\nL = 20\nNORTH = 10\n")
        assert cfg.nx == 5 and cfg.u == 3.5


class TestModelConstruction:
    def test_square_lattice(self):
        cfg = parse_config("nx = 4\nny = 6\n")
        model = cfg.model()
        assert isinstance(model.lattice, SquareLattice)
        assert model.lattice.shape == (4, 6)

    def test_multilayer(self):
        cfg = parse_config("nx = 4\nny = 4\nnlayers = 3\ntperp = 0.5\n")
        model = cfg.model()
        assert isinstance(model.lattice, MultilayerLattice)
        assert model.lattice.n_layers == 3
        assert model.t_perp == 0.5

    def test_simulation_construction_and_run(self):
        cfg = parse_config(
            "nx = 2\nny = 2\nl = 8\nnorth = 4\nu = 4.0\ndtau = 0.125\nseed = 1\n"
        )
        sim = cfg.simulation()
        res = sim.run(warmup_sweeps=1, measurement_sweeps=2)
        assert "density" in res.observables


class TestLoadConfig:
    def test_from_file(self, tmp_path):
        p = tmp_path / "run.in"
        p.write_text(EXAMPLE)
        cfg = load_config(p)
        assert cfg.nx == 8
