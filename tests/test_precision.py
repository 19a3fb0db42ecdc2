"""Unit tests for the precision-policy layer.

Covers the policy objects and resolution rules, the threading of a
policy through the engine/simulation stack, same-seed observable
agreement between ``full64`` and ``mixed``, watchdog-driven promotion
up the safety ladder, checkpoint persistence of a promoted policy,
policy-aware runtime contracts, and the dtype-aware pieces of the
simulated-GPU performance model.
"""

import numpy as np
import pytest

from repro import BMatrixFactory, HSField, HubbardModel, Simulation, SquareLattice
from repro.precision import (
    POLICIES,
    PROMOTION_LADDER,
    PrecisionError,
    SPINE_DTYPE,
    PrecisionPolicy,
    resolve_policy,
)
from tests.helpers import noisy_wraps

ENV_VAR = "REPRO_PRECISION"

F32 = np.dtype("float32")
F64 = np.dtype("float64")


def make_model(lx=2, ly=2, u=4.0, beta=1.0, n_slices=8):
    return HubbardModel(SquareLattice(lx, ly), u=u, beta=beta, n_slices=n_slices)


def make_engine(seed=0, precision=None, **kwargs):
    from repro.core import GreensFunctionEngine

    model = make_model()
    rng = np.random.default_rng(seed)
    field = HSField.random(model.n_slices, model.n_sites, rng)
    engine = GreensFunctionEngine(
        BMatrixFactory(model), field, cluster_size=4, precision=precision, **kwargs
    )
    return engine, rng


class TestResolvePolicy:
    """Name-or-instance lookup only; what an *unset* precision means is
    a row of tests/test_options.py."""

    def test_names_resolve(self):
        for name in PROMOTION_LADDER:
            assert resolve_policy(name).name == name

    def test_policy_instance_passes_through(self):
        p = POLICIES["mixed"]
        assert resolve_policy(p) is p

    def test_unknown_name_lists_choices(self):
        with pytest.raises(PrecisionError, match="full64.*mixed"):
            resolve_policy("float16")

    def test_bad_env_value_raises_rather_than_running_full64(self, monkeypatch):
        """A bare engine under a typo'd ambient policy must not run."""
        monkeypatch.setenv(ENV_VAR, "fats32")
        with pytest.raises(ValueError, match="REPRO_PRECISION"):
            make_engine()

    def test_non_string_spec_raises(self):
        for spec in (32, None):
            with pytest.raises(PrecisionError):
                resolve_policy(spec)


class TestPolicyObjects:
    def test_ladder_walks_to_full64(self):
        assert POLICIES["mixed"].safer is POLICIES["full64"]
        assert POLICIES["full64"].safer is None

    def test_dtype_table(self):
        assert POLICIES["full64"].compute_dtype == F64
        assert POLICIES["mixed"].compute_dtype == F32
        assert SPINE_DTYPE == F64

    def test_drift_scales_widen_down_the_ladder(self):
        assert POLICIES["full64"].drift_scale < POLICIES["mixed"].drift_scale

    def test_full64_coercions_preserve_identity(self):
        """full64's compute() must be a no-op for float64 arrays — this
        is what keeps the default policy bit-identical to the
        historical pipeline."""
        a = np.eye(3)
        assert POLICIES["full64"].compute(a) is a

    def test_mixed_narrows_compute_keeps_spine(self):
        a = np.eye(3)
        assert POLICIES["mixed"].compute(a).dtype == F32
        assert np.asarray(a, dtype=SPINE_DTYPE) is a


class TestEnginePolicy:
    def test_engine_carries_policy(self):
        eng, _ = make_engine(precision="mixed")
        assert eng.policy.name == "mixed"
        assert eng.policy is POLICIES["mixed"]

    def test_default_engine_is_full64(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        eng, _ = make_engine()
        assert eng.policy.name == "full64"

    def test_set_precision_switches_and_reports(self):
        eng, rng = make_engine(precision="mixed")
        assert eng.set_precision("full64") is True
        assert eng.policy.name == "full64"
        # idempotent: same policy again is a no-op
        assert eng.set_precision("full64") is False

    def test_set_precision_invalidates_cached_products(self):
        from repro.dqmc import sweep

        eng, rng = make_engine(precision="mixed")
        sweep(eng, rng)
        # a sweep's pushes take the products they fold in: warm them again
        eng.cache.chain(1, 0)
        assert eng.cache._cache  # warm
        assert eng.n_kept(1)
        eng.set_precision("full64")
        assert not eng.cache._cache  # compute-dtype state was dropped
        assert not eng.n_kept(1)

    def test_greens_matches_full64_construction_after_switch(self):
        """A switched engine must be indistinguishable from one
        constructed with the new policy over the same field."""
        eng_a, _ = make_engine(seed=5, precision="mixed")
        eng_a.set_precision("full64")
        eng_b, _ = make_engine(seed=5, precision="full64")
        np.testing.assert_array_equal(
            eng_a.boundary_greens(1, 0), eng_b.boundary_greens(1, 0)
        )

    def test_simulation_precision_property(self):
        sim = Simulation(make_model(), seed=3, cluster_size=4, precision="mixed")
        assert sim.precision == "mixed"
        assert sim.set_precision("full64") is True
        assert sim.precision == "full64"


class TestObservableAgreement:
    """ISSUE acceptance: same-seed full64 vs mixed on the 4x4 lattice at
    beta = 2 must agree on scalar observables to 1e-5."""

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for name in ("full64", "mixed"):
            model = HubbardModel(
                SquareLattice(4, 4), u=4.0, beta=2.0, n_slices=16
            )
            sim = Simulation(model, seed=7, cluster_size=8, precision=name)
            sim.warmup(5)
            sim.measure_sweeps(10)
            out[name] = sim.collector.results()
        return out

    @pytest.mark.parametrize(
        "observable", ["density", "double_occupancy", "kinetic_energy"]
    )
    def test_scalars_agree(self, results, observable):
        a = float(np.asarray(results["full64"][observable].mean))
        b = float(np.asarray(results["mixed"][observable].mean))
        assert abs(a - b) < 1e-5, f"{observable}: full64={a!r} mixed={b!r}"


class TestPromotion:
    """Every case runs a real sweep: the watchdog judges what that sweep
    recorded at its cluster boundary, nothing it computes itself."""

    def _watchdog(self, eng, tel=None, drift_tol=1e-6):
        from repro.telemetry import NumericalHealthWatchdog, WatchdogConfig

        return NumericalHealthWatchdog(
            eng, WatchdogConfig(check_every=1, drift_tol=drift_tol), tel
        )

    def test_alert_under_mixed_promotes_to_full64(self, tmp_path, monkeypatch):
        from repro.dqmc import sweep
        from repro.telemetry import Telemetry, TelemetryWriter, read_events

        path = tmp_path / "t.jsonl"
        tel = Telemetry(TelemetryWriter(path), snapshot_every=0)
        eng, rng = make_engine(precision="mixed", telemetry=tel)
        # 1e-3 noise per wrap: past the mixed tolerance of 1e-6 x 100
        noisy_wraps(eng, monkeypatch, rel=1e-3)
        wd = self._watchdog(eng, tel)
        report = wd.maybe_check(3, sweep(eng, rng))
        assert not report.healthy
        assert report.promoted_to == "full64"
        assert report.forced_refresh
        assert eng.policy.name == "full64"
        assert wd.promotions == 1
        assert tel.registry.counter("health.precision_promotions") == 1
        tel.close()
        kinds = [e["event"] for e in read_events(path)]
        # promotion happens after the alert and before the forced
        # refresh, so the rebuild it forces runs under the safer rung
        assert (
            kinds.index("health_alert")
            < kinds.index("precision_promoted")
            < kinds.index("forced_refresh")
        )

    def test_full64_alert_does_not_promote(self, monkeypatch):
        from repro.dqmc import sweep

        eng, rng = make_engine(precision="full64")
        noisy_wraps(eng, monkeypatch)
        wd = self._watchdog(eng)
        report = wd.maybe_check(1, sweep(eng, rng))
        assert not report.healthy  # still alerts + refreshes ...
        assert report.forced_refresh
        assert report.promoted_to is None  # ... but has no safer rung
        assert wd.promotions == 0

    def test_drift_tolerance_scales_with_policy(self):
        """The watchdog widens the configured tolerance by the active
        policy's drift_scale: a tolerance 50x tighter than the measured
        drift stays healthy under mixed (x100 allowance), while 200x
        tighter alerts even after scaling."""
        from repro.dqmc import sweep

        eng, rng = make_engine(seed=11, precision="mixed")
        st = sweep(eng, rng)
        assert st.wrap_drift > 0.0
        loose = self._watchdog(eng, drift_tol=st.wrap_drift / 50.0)
        report = loose.maybe_check(1, st)
        assert report.healthy
        assert eng.policy.name == "mixed"
        tight = self._watchdog(eng, drift_tol=st.wrap_drift / 200.0)
        report = tight.maybe_check(1, st)
        assert not report.healthy
        assert report.promoted_to == "full64"


class TestCheckpointPrecision:
    def _make_sim(self, seed=3, precision=None):
        return Simulation(
            make_model(), seed=seed, cluster_size=4, precision=precision
        )

    def test_resume_under_mixed_is_bit_exact(self, tmp_path):
        from repro.dqmc import load_checkpoint, save_checkpoint

        path = tmp_path / "ckpt.npz"
        ref = self._make_sim(precision="mixed")
        ref.warmup(3)
        ref.measure_sweeps(4)
        ref.measure_sweeps(4)
        ref_obs = ref.collector.results()

        a = self._make_sim(precision="mixed")
        a.warmup(3)
        a.measure_sweeps(4)
        save_checkpoint(path, a)
        b = self._make_sim(precision="mixed")
        load_checkpoint(path, b)
        b.measure_sweeps(4)
        got_obs = b.collector.results()

        np.testing.assert_array_equal(b.field.h, ref.field.h)
        for name in ref_obs:
            np.testing.assert_array_equal(
                np.asarray(got_obs[name].mean), np.asarray(ref_obs[name].mean)
            )

    def test_promoted_policy_survives_the_round_trip(self, tmp_path):
        """Resuming a run the watchdog promoted must continue on the
        promoted rung, not the configured one."""
        from repro.dqmc import load_checkpoint, save_checkpoint
        from repro.telemetry import NumericalHealthWatchdog, WatchdogConfig

        path = tmp_path / "ckpt.npz"
        a = self._make_sim(precision="mixed")
        a.warmup(2)
        wd = NumericalHealthWatchdog(
            a.engine, WatchdogConfig(check_every=1, drift_tol=1e-300)
        )
        assert wd.maybe_check(1, a.warmup(1)).promoted_to == "full64"
        assert a.precision == "full64"
        a.measure_sweeps(2)
        save_checkpoint(path, a)

        b = self._make_sim(precision="mixed")  # configured narrow ...
        load_checkpoint(path, b)
        assert b.precision == "full64"  # ... resumes promoted

        # and the continuation is bit-exact against the uninterrupted run
        a.measure_sweeps(2)
        b.measure_sweeps(2)
        np.testing.assert_array_equal(b.field.h, a.field.h)

    def test_checkpoint_without_precision_key_keeps_configured(self, tmp_path):
        """Pre-precision checkpoints (no header key) must load into
        whatever the receiving simulation was configured with."""
        from repro.dqmc import load_checkpoint, save_checkpoint

        path = tmp_path / "ckpt.npz"
        a = self._make_sim(precision="full64")
        a.warmup(2)
        save_checkpoint(path, a)
        # strip the key to emulate an old file
        data = dict(np.load(path, allow_pickle=False))
        import json

        header = json.loads(str(data["header"]))
        del header["precision"]
        data["header"] = np.array(json.dumps(header))
        np.savez(path, **data)

        b = self._make_sim(precision="mixed")
        load_checkpoint(path, b)
        assert b.precision == "mixed"


class TestPolicyAwareContracts:
    def test_mixed_backend_declares_float32_compute(self, monkeypatch):
        from repro.contracts import ContractViolation
        from repro.core import wrap_forward

        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        eng, _ = make_engine(precision="mixed")
        g64 = eng.boundary_greens(1, 0)
        g32 = np.asarray(g64, dtype=F32)
        # the backend argument carries the policy: float32 is now the
        # *declared* compute dtype, float64 the violation
        out = wrap_forward(
            eng.factory, eng.field, g32, 0, 1, backend=eng.backend
        )
        assert out.dtype == F32
        with pytest.raises(ContractViolation):
            wrap_forward(
                eng.factory,
                eng.field,
                np.asarray(g64, dtype=F64),
                0,
                1,
                backend=eng.backend,
            )

    def test_no_carrier_falls_back_to_ambient_policy(self, monkeypatch):
        from repro.contracts import ContractViolation, shape_contract

        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        monkeypatch.delenv(ENV_VAR, raising=False)

        @shape_contract("(n,n)", dtype="compute")
        def f(a: np.ndarray) -> np.ndarray:
            return a

        f(np.eye(2))  # ambient default: full64
        with pytest.raises(ContractViolation):
            f(np.eye(2, dtype=F32))
        monkeypatch.setenv(ENV_VAR, "mixed")
        f(np.eye(2, dtype=F32))  # ambient mixed: float32 is the contract


class TestPerfModelSinglePrecision:
    def test_sgemm_rate_doubles_on_c2050(self):
        from repro.gpu.perfmodel import TESLA_C2050

        n = 2048  # large enough to sit near the asymptote
        dp = TESLA_C2050.gemm_rate(n)
        sp = TESLA_C2050.gemm_rate(n, dtype=F32)
        assert sp == pytest.approx(2.0 * dp, rel=1e-6)

    def test_sgemm_time_beats_dgemm(self):
        from repro.gpu.perfmodel import TESLA_C2050

        t64 = TESLA_C2050.time_gemm(512, 512, 512)
        t32 = TESLA_C2050.time_gemm(512, 512, 512, dtype=F32)
        assert t32 < t64

    def test_unmodeled_sp_rate_falls_back_to_dp(self):
        import dataclasses

        from repro.gpu.perfmodel import TESLA_C2050

        model = dataclasses.replace(TESLA_C2050, gemm_rate_inf_sp=0.0)
        assert model.gemm_rate(512, dtype=F32) == model.gemm_rate(512)

    def test_device_upload_preserves_dtype_and_halves_bytes(self):
        from repro.gpu.device import SimulatedDevice

        dev = SimulatedDevice()
        a32 = dev.set_matrix(np.eye(64, dtype=F32))
        assert a32.dtype == F32
        bytes32 = dev.h2d_bytes
        dev.set_matrix(np.eye(64))
        assert dev.h2d_bytes - bytes32 == 2 * bytes32

    def test_device_copy_cannot_convert_width(self):
        from repro.gpu.device import DeviceError, SimulatedDevice

        dev = SimulatedDevice()
        dest = dev.alloc((8, 8), dtype=F64)
        with pytest.raises(DeviceError, match="dtype mismatch"):
            dev.set_matrix(np.eye(8, dtype=F32), dest)

    def test_gpu_sim_backend_runs_faster_under_mixed(self):
        """The end-to-end acceptance mechanism in miniature: the same
        engine work costs less simulated device time at float32."""
        elapsed = {}
        for name in ("full64", "mixed"):
            eng, rng = make_engine(
                seed=2, backend="gpu-sim", precision=name
            )
            eng.boundary_greens(1, 0)
            elapsed[name] = eng.device.elapsed
        assert elapsed["mixed"] < elapsed["full64"]


class TestCLIPrecision:
    INPUT = (
        "nx = 2\nny = 2\nu = 4.0\ndtau = 0.125\nl = 8\n"
        "north = 4\nnwarm = 1\nnpass = 2\nseed = 5\n"
    )

    @pytest.fixture
    def input_file(self, tmp_path):
        p = tmp_path / "run.in"
        p.write_text(self.INPUT)
        return p

    def test_info_reports_policy(self, input_file, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv(ENV_VAR, raising=False)
        assert main(["info", str(input_file)]) == 0
        assert "precision        full64" in capsys.readouterr().out

    def test_run_precision_flag(self, input_file, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "obs.npz"
        code = main(
            [
                "run",
                str(input_file),
                "--output",
                str(out),
                "--precision",
                "mixed",
            ]
        )
        assert code == 0
        assert "precision: mixed" in capsys.readouterr().out

    def test_run_rejects_unknown_policy(self, input_file, capsys):
        from repro.cli import main

        assert main(["run", str(input_file), "--precision", "half"]) == 2
        assert "unknown precision policy" in capsys.readouterr().err

    def test_config_file_precision_key(self, tmp_path, monkeypatch):
        from repro.dqmc import parse_config

        monkeypatch.delenv(ENV_VAR, raising=False)
        cfg = parse_config(self.INPUT + "precision = mixed\n")
        assert cfg.precision == "mixed"
        sim = cfg.simulation()
        assert sim.precision == "mixed"

    def test_config_rejects_unknown_precision(self):
        from repro.dqmc import parse_config

        with pytest.raises(ValueError, match="precision"):
            parse_config(self.INPUT + "precision = quad\n")
