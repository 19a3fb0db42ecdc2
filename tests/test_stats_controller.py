"""RunController: error-targeted stopping, equilibration, bit-exact resume."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import HubbardModel, Simulation, SquareLattice
from repro.dqmc import load_checkpoint, save_checkpoint
from repro.stats import RunController, StreamingAccumulator


def fake_sim(acc):
    """The controller only touches .collector.accumulator/.telemetry."""
    return SimpleNamespace(
        collector=SimpleNamespace(accumulator=acc), telemetry=None
    )


def fill(acc, n, noise=0.001, drift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    for i in range(n):
        acc.add("sign", 1.0)
        acc.add(
            "density",
            1.0 + drift * np.exp(-i / 10.0) + noise * rng.standard_normal(),
        )


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="target_error"):
            RunController(target_error=0.0)
        with pytest.raises(ValueError, match="check_every"):
            RunController(check_every=0)
        with pytest.raises(ValueError, match="min_samples"):
            RunController(min_samples=4)


class TestCadence:
    def test_no_evaluation_before_min_samples(self):
        ctl = RunController(
            target_error=0.1, check_every=8, min_samples=16, equilibrate=False
        )
        acc = StreamingAccumulator()
        fill(acc, 8)
        assert ctl.check(fake_sim(acc)) is None
        assert ctl.checks == 0

    def test_evaluates_only_on_cadence_points(self):
        ctl = RunController(
            target_error=1e-12, check_every=8, min_samples=8, equilibrate=False
        )
        acc = StreamingAccumulator()
        sim = fake_sim(acc)
        fill(acc, 9)
        assert ctl.check(sim) is None  # 9 % 8 != 0
        fill(acc, 7, seed=1)
        assert ctl.check(sim) is not None  # n = 16


class TestStopping:
    def test_stops_when_target_met(self):
        ctl = RunController(
            target_error=0.1, check_every=8, min_samples=32, equilibrate=False
        )
        acc = StreamingAccumulator()
        fill(acc, 64, noise=1e-4)
        decision = ctl.check(fake_sim(acc))
        assert decision.stop and decision.reason == "target"
        assert ctl.stopped
        assert decision.relative_error <= 0.1
        assert "target reached" in decision.describe()
        assert ctl.summary()["target_met"] is True

    def test_keeps_going_when_noisy(self):
        ctl = RunController(
            target_error=1e-9, check_every=8, min_samples=32, equilibrate=False
        )
        acc = StreamingAccumulator()
        fill(acc, 64, noise=0.5)
        decision = ctl.check(fake_sim(acc))
        assert not decision.stop and decision.reason == "continue"

    def test_missing_observable_never_stops(self):
        ctl = RunController(
            target_observable="nonexistent",
            target_error=0.5,
            check_every=8,
            min_samples=8,
            equilibrate=False,
        )
        acc = StreamingAccumulator()
        fill(acc, 16)
        sim = fake_sim(acc)
        # zero samples of the target -> gated out entirely
        assert ctl.check(sim) is None


class TestEquilibration:
    def test_streaming_reset_discards_everything(self):
        ctl = RunController(
            target_error=1e-9, check_every=64, min_samples=64
        )
        acc = StreamingAccumulator()
        sim = fake_sim(acc)
        ctl.bind(sim)  # installs tracking for sign + target
        fill(acc, 512, noise=0.05, drift=3.0)
        ctl.check(sim)
        assert ctl.equilibrated
        assert ctl.discarded == 512
        assert acc.n_samples("density") == 0

    def test_drifting_chain_stays_unequilibrated(self):
        ctl = RunController(target_error=0.1, check_every=64, min_samples=64)
        acc = StreamingAccumulator()
        sim = fake_sim(acc)
        ctl.bind(sim)
        rng = np.random.default_rng(3)
        for i in range(128):
            acc.add("sign", 1.0)
            acc.add("density", 0.05 * i + 0.01 * rng.standard_normal())
        decision = ctl.check(sim)
        assert decision.reason == "equilibrating"
        assert not decision.stop and not ctl.equilibrated


class TestStateDict:
    def test_round_trip(self):
        ctl = RunController(target_error=0.1, equilibrate=False)
        ctl.checks, ctl.discarded, ctl.stopped = 3, 40, True
        clone = RunController(target_error=0.1)
        clone.restore_state(ctl.state_dict())
        assert clone.checks == 3
        assert clone.discarded == 40
        assert clone.stopped and clone.equilibrated


def make_sim(seed=3):
    model = HubbardModel(SquareLattice(2, 2), u=4.0, beta=1.0, n_slices=8)
    return Simulation(model, seed=seed, cluster_size=4)


def make_controller():
    # Half filling: density is pinned at 1 by particle-hole symmetry, so
    # a modest target is reached quickly — ideal for an early-stop test.
    return RunController(
        target_observable="density",
        target_error=0.05,
        check_every=8,
        min_samples=16,
        equilibrate=False,
    )


class TestAdaptiveRuns:
    def test_stops_before_budget(self):
        sim = make_sim()
        sim.attach_controller(make_controller())
        sim.warmup(2)
        _, done, decision = sim.measure_until(400)
        assert done < 400
        assert decision.stop and sim.controller.stopped
        result = sim.result(n_warmup=2, n_measurement=done)
        assert result.control["target_met"] is True
        assert result.corrected is not None

    def test_measure_until_requires_controller(self):
        sim = make_sim()
        with pytest.raises(RuntimeError, match="controller"):
            sim.measure_until(10)

    def test_stopped_run_measures_nothing_more(self):
        sim = make_sim()
        sim.attach_controller(make_controller())
        sim.warmup(2)
        _, done, _ = sim.measure_until(400)
        _, again, decision = sim.measure_until(400)
        assert again == 0 and decision.stop

    def test_resume_is_bit_exact(self, tmp_path):
        """Checkpoint mid-flight; the resumed run must stop at the same
        sweep with identical estimates as the uninterrupted one."""
        path = tmp_path / "ckpt.npz"

        ref = make_sim()
        ref.attach_controller(make_controller())
        ref.warmup(3)
        _, ref_done, _ = ref.measure_until(200)
        ref_obs = ref.collector.results()

        a = make_sim()
        a.attach_controller(make_controller())
        a.warmup(3)
        a.measure_until(10)  # interrupt before the controller can stop
        save_checkpoint(path, a)

        b = make_sim()
        b.attach_controller(make_controller())  # attach BEFORE load
        load_checkpoint(path, b)
        assert b.measured_sweeps == 10
        _, more, _ = b.measure_until(200 - b.measured_sweeps)
        assert b.measured_sweeps + 0 == 10 + more
        assert 10 + more == ref_done
        got_obs = b.collector.results()
        for name in ref_obs:
            np.testing.assert_array_equal(
                np.asarray(got_obs[name].mean), np.asarray(ref_obs[name].mean)
            )
            np.testing.assert_array_equal(
                np.asarray(got_obs[name].error),
                np.asarray(ref_obs[name].error),
            )
