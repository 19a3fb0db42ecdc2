"""One resolver for backend / precision / kinetic (``repro.options``).

Table-driven: every behaviour is checked for each of the three options
from the same rows, because the point of the module is that the three
do not differ. Every test clears the three ``$REPRO_*`` variables first,
so the file also passes under the CI legs that set them ambiently.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro import HubbardModel, Simulation, SquareLattice
from repro.backends import NumpyBackend
from repro.campaign import CampaignSpec, SpecError
from repro.cli import main
from repro.core import GreensFunctionEngine
from repro.dqmc.config import parse_config
from repro.hamiltonian import BMatrixFactory, HSField
from repro.io import load_observables
from repro.options import OptionError, RunOptions, resolve_options
from repro.precision import POLICIES

#: option -> (environment variable, default, a valid non-default value)
TABLE = {
    "backend": ("REPRO_BACKEND", "numpy", "threaded"),
    "precision": ("REPRO_PRECISION", "full64", "mixed"),
    "kinetic": ("REPRO_KINETIC", "exact", "checkerboard"),
}
OPTIONS = sorted(TABLE)
DEFAULT = RunOptions(backend="numpy", precision="full64", kinetic="exact")

INPUT = "nx = 2\nny = 2\nu = 4.0\nl = 8\nnorth = 4\nnwarm = 1\nnpass = 2\nseed = 5\n"
MULTILAYER = INPUT + "nlayers = 2\n"


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for env, _, _ in TABLE.values():
        monkeypatch.delenv(env, raising=False)


def model():
    return HubbardModel(SquareLattice(2, 2), u=4.0, beta=1.0, n_slices=8)


def simulation(**kwargs):
    return Simulation(model(), cluster_size=4, **kwargs)


def engine(factory=None, **kwargs):
    m = model()
    field = HSField.random(m.n_slices, m.n_sites, np.random.default_rng(0))
    return GreensFunctionEngine(
        factory or BMatrixFactory(m), field, cluster_size=4, **kwargs
    )


def write(tmp_path, text=INPUT):
    path = tmp_path / "run.in"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# the chain, per option
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("option", OPTIONS)
class TestChain:
    def test_default(self, option):
        assert resolve_options() == DEFAULT
        assert getattr(resolve_options(), option) == TABLE[option][1]

    def test_environment(self, option, monkeypatch):
        env, _, other = TABLE[option]
        monkeypatch.setenv(env, other)
        assert getattr(resolve_options(), option) == other

    def test_explicit_beats_environment(self, option, monkeypatch):
        env, default, other = TABLE[option]
        monkeypatch.setenv(env, other)
        assert resolve_options(**{option: default}) == DEFAULT

    @pytest.mark.parametrize("unset", [None, "", "auto", "  "])
    def test_unset_spellings(self, option, unset, monkeypatch):
        env, _, other = TABLE[option]
        assert resolve_options(**{option: unset}) == DEFAULT
        monkeypatch.setenv(env, other)
        assert getattr(resolve_options(**{option: unset}), option) == other

    @pytest.mark.parametrize("blank", ["", " ", "\t", "auto"])
    def test_blank_environment_is_unset(self, option, blank, monkeypatch):
        monkeypatch.setenv(TABLE[option][0], blank)
        assert resolve_options() == DEFAULT

    def test_unknown_name_lists_choices(self, option):
        _, default, other = TABLE[option]
        with pytest.raises(OptionError, match=f"{default}.*{other}") as info:
            resolve_options(**{option: "bogus"})
        exc = info.value
        assert (exc.option, exc.value, exc.from_env) == (option, "bogus", False)
        assert str(exc).startswith(f"{option} = 'bogus': unknown")

    def test_unknown_environment_value_names_the_variable(
        self, option, monkeypatch
    ):
        env = TABLE[option][0]
        monkeypatch.setenv(env, "bogus")
        with pytest.raises(OptionError) as info:
            resolve_options()
        assert info.value.from_env
        assert str(info.value).startswith(f"${env}='bogus': unknown")
        # ... and an explicit value still outranks the broken variable.
        assert resolve_options(**{option: TABLE[option][1]}) == DEFAULT

    def test_four_spellings_agree(self, option, tmp_path, monkeypatch):
        """kwarg, file key, CLI flag and environment: one RunOptions."""
        env, _, other = TABLE[option]
        expected = resolve_options(**{option: other})
        assert getattr(expected, option) == other

        assert simulation(**{option: other}).options == expected
        cfg = parse_config(INPUT + f"{option} = {other}\n")
        assert cfg.options() == expected
        assert cfg.simulation().options == expected

        out = tmp_path / "out.npz"
        argv = ["run", str(write(tmp_path)), "--quiet", "--output", str(out)]
        assert main(argv + [f"--{option}", other]) == 0
        assert load_observables(out)[1]["options"] == expected.names()

        monkeypatch.setenv(env, other)
        assert simulation().options == expected
        assert parse_config(INPUT).options() == expected

    def test_flag_beats_file_key_beats_environment(
        self, option, tmp_path, monkeypatch
    ):
        env, default, other = TABLE[option]
        monkeypatch.setenv(env, "bogus")  # outranked, so never looked at
        path = write(tmp_path, INPUT + f"{option} = {other}\n")
        out = tmp_path / "out.npz"
        argv = ["run", str(path), "--quiet", "--output", str(out)]
        assert main(argv) == 0
        assert load_observables(out)[1]["options"][option] == other
        assert main(argv + [f"--{option}", default]) == 0
        assert load_observables(out)[1]["options"][option] == default


class TestInstances:
    def test_live_backend_passes_through_with_its_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "full64")
        backend = NumpyBackend(precision="mixed")
        resolved = resolve_options(backend=backend)
        assert resolved.backend is backend
        assert resolved.precision is POLICIES["mixed"]
        assert resolved.names() == {
            "backend": "numpy", "precision": "mixed", "kinetic": "exact",
        }
        assert engine(backend=backend).policy is POLICIES["mixed"]
        # an explicit precision still outranks the instance's own
        assert resolve_options(backend, "full64").precision == "full64"

    def test_policy_instance_passes_through(self):
        policy = POLICIES["mixed"]
        assert resolve_options(precision=policy).precision is policy
        assert resolve_options(precision=policy).policy is policy
        assert resolve_options(precision="mixed").policy is policy

    def test_other_types_are_rejected(self):
        for option in OPTIONS:
            with pytest.raises(OptionError):
                resolve_options(**{option: 32})


# ---------------------------------------------------------------------------
# every constructor asks the same function
# ---------------------------------------------------------------------------


class TestConstructors:
    def test_auto_means_unset_everywhere(self, monkeypatch):
        sim = simulation(backend="auto", precision="auto", kinetic="auto")
        assert sim.options == DEFAULT
        assert engine(backend="auto", precision="auto").backend.name == "numpy"
        assert BMatrixFactory(model(), kinetic="auto").kinetic_mode == "exact"
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        monkeypatch.setenv("REPRO_KINETIC", "checkerboard")
        assert engine(backend="auto").backend.name == "threaded"
        assert BMatrixFactory(model(), kinetic="auto").kinetic_mode == "checkerboard"

    def test_bare_constructors_follow_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu-sim")
        monkeypatch.setenv("REPRO_PRECISION", "mixed")
        monkeypatch.setenv("REPRO_KINETIC", " checkerboard ")
        assert NumpyBackend().policy is POLICIES["mixed"]
        assert BMatrixFactory(model()).kinetic_mode == "checkerboard"
        eng = engine()
        assert (eng.backend.name, eng.policy.name) == ("gpu-sim", "mixed")
        assert simulation().options.names() == {
            "backend": "gpu-sim", "precision": "mixed", "kinetic": "checkerboard",
        }

    @pytest.mark.parametrize("option", OPTIONS)
    def test_unknown_names_raise_the_one_error(self, option):
        with pytest.raises(OptionError):
            simulation(**{option: "bogus"})
        with pytest.raises(OptionError, match=f"{option} = 'bogus'"):
            parse_config(INPUT + f"{option} = bogus\n")

    def test_config_keeps_the_auto_spelling(self):
        cfg = parse_config(INPUT)
        assert (cfg.backend, cfg.precision, cfg.kinetic) == ("auto",) * 3
        assert parse_config(cfg.dumps()) == cfg


# ---------------------------------------------------------------------------
# CLI: exit 2 and one line, whichever link of the chain was wrong
# ---------------------------------------------------------------------------


def one_line_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["run", "info"])
class TestCliRejections:
    def argv(self, command, tmp_path, text):
        return [command, str(write(tmp_path, text))]

    def test_checkerboard_on_a_multilayer_input(
        self, command, tmp_path, capsys, monkeypatch
    ):
        argv = self.argv(command, tmp_path, MULTILAYER)
        if command == "run":  # the only command with a --kinetic flag
            err = one_line_error(capsys, argv + ["--kinetic", "checkerboard"])
            assert err.startswith("run: --kinetic checkerboard: cannot partition")
        monkeypatch.setenv("REPRO_KINETIC", "checkerboard")
        err = one_line_error(capsys, argv)
        assert f"{command}: $REPRO_KINETIC='checkerboard': cannot" in err
        if command == "run":  # a flag outranks the variable it shadows
            assert main(argv + ["--kinetic", "exact", "--quiet"]) == 0

    def test_checkerboard_file_key_on_a_multilayer_input(
        self, command, tmp_path, capsys
    ):
        argv = self.argv(command, tmp_path, MULTILAYER + "kinetic = checkerboard\n")
        err = one_line_error(capsys, argv)
        assert f"{command}: kinetic = 'checkerboard': cannot" in err

    @pytest.mark.parametrize("option", OPTIONS)
    def test_bogus_environment(self, command, option, tmp_path, capsys, monkeypatch):
        env = TABLE[option][0]
        monkeypatch.setenv(env, "bogus")
        err = one_line_error(capsys, self.argv(command, tmp_path, INPUT))
        assert err.startswith(f"{command}: ${env}='bogus': unknown")

    def test_bogus_backend_flag(self, command, tmp_path, capsys):
        if command == "info":
            pytest.skip("info has no --backend flag")
        argv = self.argv(command, tmp_path, INPUT) + ["--backend", "cuda"]
        err = one_line_error(capsys, argv)
        assert err.startswith(f"{command}: --backend cuda: unknown backend")


class TestCliReports:
    def test_info_prints_the_resolved_backend(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path)
        assert main(["info", str(path)]) == 0
        assert "backend          numpy" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        assert main(["info", str(path)]) == 0
        assert "backend          threaded" in capsys.readouterr().out

    def test_run_records_the_resolved_triple(self, tmp_path, capsys, monkeypatch):
        """Banner, run_started event and archive metadata carry what ran,
        not the config's 'auto'."""
        monkeypatch.setenv("REPRO_PRECISION", "mixed")
        path, stream = write(tmp_path), tmp_path / "t.jsonl"
        argv = ["run", str(path), "--kinetic", "checkerboard",
                "--telemetry", str(stream)]
        assert main(argv) == 0
        triple = {"backend": "numpy", "precision": "mixed",
                  "kinetic": "checkerboard"}
        banner = "backend: numpy  precision: mixed  kinetic: checkerboard"
        assert banner in capsys.readouterr().out
        meta = load_observables(path.with_suffix(".npz"))[1]
        assert meta["options"] == triple
        assert "precision = auto" in meta["input"]
        events = [json.loads(line) for line in stream.read_text().splitlines()]
        started = [e for e in events if e.get("event") == "run_started"]
        assert len(started) == 1 and started[0]["options"] == triple

    def test_campaign_summary_records_the_resolved_triple(self, tmp_path):
        from repro.campaign import CampaignSpec, SchedulerConfig, run_campaign

        spec = CampaignSpec(
            base={"nx": 2, "ny": 2, "l": 8, "north": 4, "nwarm": 1,
                  "npass": 2, "precision": "mixed"},
            grid={"u": [4.0]},
        )
        summary = run_campaign(
            spec, tmp_path, config=SchedulerConfig(executor="thread")
        )
        assert summary.all_done
        (job,) = tmp_path.rglob("summary.json")
        recorded = json.loads(job.read_text())
        assert {k: recorded[k] for k in OPTIONS} == {
            "backend": "numpy", "precision": "mixed", "kinetic": "exact",
        }


# ---------------------------------------------------------------------------
# one place
# ---------------------------------------------------------------------------


def test_only_options_py_knows_the_variables_and_the_unset_spelling():
    """The three variable names are string constants (what an environment
    read needs) in options.py only - elsewhere they appear inside help
    text and docstrings; the same goes for the "auto" spelling, which
    otherwise survives only as the three SimulationConfig field defaults
    (so input files round-trip); and options.py reads os.environ once."""
    import ast

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    names = {env for env, _, _ in TABLE.values()}
    variables, autos = [], []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and node.value in names:
                variables.append(path.name)
            if isinstance(node, ast.Constant) and node.value == "auto":
                autos.append(path.name)
        if path.name != "options.py":
            for line in text.splitlines():
                assert not (
                    re.search(r"environ|getenv", line)
                    and any(n in line for n in names)
                ), f"{path}: {line.strip()}"
    assert variables == ["options.py"] * 3
    assert autos == ["config.py"] * 3 + ["options.py"]
    options = (src / "options.py").read_text()
    assert len(re.findall(r"os\.environ|getenv", options)) == 1


def _input_with_autotune(tmp_path):
    parse_config(INPUT + "autotune = 1\n")


def _spec_with_tune_cache(tmp_path):
    CampaignSpec.from_dict({"base": {"l": 8}, "tune_cache": "tuning.json"})


def _run_with_autotune_flag(tmp_path):
    main(["run", str(write(tmp_path)), "--autotune"])


def _tune_subcommand(tmp_path):
    main(["tune", str(write(tmp_path))])


def _cupy_backend(tmp_path):
    simulation(backend="cupy")


def _fast32_precision(tmp_path):
    simulation(precision="fast32")


@pytest.mark.parametrize(
    "spell, error, names",
    [
        (_input_with_autotune, ValueError, ["unknown key 'autotune'"]),
        (_spec_with_tune_cache, SpecError, ["unknown spec keys: tune_cache"]),
        (_run_with_autotune_flag, SystemExit, ["unrecognized arguments: --autotune"]),
        (_tune_subcommand, SystemExit, ["invalid choice: 'tune'"]),
        (_cupy_backend, OptionError, ["'cupy'", "gpu-sim", "numpy", "threaded"]),
        (_fast32_precision, OptionError, ["'fast32'", "full64", "mixed"]),
    ],
    ids=["input-key", "spec-key", "run-flag", "subcommand", "backend", "precision"],
)
def test_removed_spelling_fails_by_name(spell, error, names, tmp_path, capsys):
    """Removed keys, flags, commands and backends have no aliases: each
    fails through the validator that already guards its surface, and the
    message names what was written."""
    with pytest.raises(error) as exc:
        spell(tmp_path)
    if error is SystemExit:  # argparse: usage error on stderr, status 2
        assert exc.value.code == 2
        message = capsys.readouterr().err
    else:
        message = str(exc.value)
    for name in names:
        assert name in message
