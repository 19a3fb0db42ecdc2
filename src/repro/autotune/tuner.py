"""The warmup-time autotuner: measure the knobs instead of guessing them.

The paper tunes cluster size, wrap interval and delayed-update block
per machine by hand (Sec. III / Table I). This tuner does it inside the
warmup phase of the run being tuned — warmup sweeps are thermalization,
so spending them on different engine configurations costs nothing: the
Markov chain keeps advancing whichever parameters execute it.

Protocol, per candidate:

1. re-partition the live engine to the candidate (cluster size = wrap
   interval; the delayed-update block rides the sweep call),
2. run ``sweeps_per_candidate`` warmup sweeps, timed through the
   simulation's :class:`~repro.profiling.PhaseProfiler` phase data,
3. read the numerical-health signals those same sweeps recorded (the
   :class:`~repro.dqmc.sweep.SweepStats` the
   :class:`~repro.telemetry.NumericalHealthWatchdog` also judges) and
   reject the candidate if its wrap drift exceeds ``drift_tol`` — a
   fast-but-drifting configuration is not a winner, it is a correctness
   bug waiting for a long run. The graded dynamic range is gated
   *relative to the baseline's own measurement* (an order of magnitude
   past it, floored at ``range_tol``): the absolute range is a property
   of the workload — it grows like exp(beta * bandwidth) regardless of
   clustering — so the baseline's range is the reference, never judged,
   and only a candidate that makes it materially *worse* than the
   configuration the user already chose is rejected.

The fastest healthy candidate is locked for the measurement sweeps. The
run's configured parameters are always candidate #0, so the tuner can
never pick something measured slower than the defaults. Every trial and
the final decision stream through the :class:`~repro.telemetry.Telemetry`
facade as ``autotune_*`` events.

Determinism: the choice is a pure function of (candidate order, recorded
timings, recorded drifts). Identical seeds and identical recorded
timings therefore lock identical parameters — the property the tests
pin by injecting a scripted ``timing_source``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..telemetry import Telemetry, ensure_telemetry
from .cache import TuningCache, profile_key
from .params import TuningParameters, candidate_grid

__all__ = [
    "TuningTrial",
    "AutotuneResult",
    "WarmupAutotuner",
    "tune_simulation",
]


@dataclass
class TuningTrial:
    """What one candidate cost and how healthy it was."""

    params: TuningParameters
    sweeps: int
    seconds: float
    sweep_seconds: float
    phase_seconds: dict
    wrap_drift: float
    dynamic_range: float
    accepted: bool
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "sweeps": self.sweeps,
            "seconds": self.seconds,
            "sweep_seconds": self.sweep_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "wrap_drift": self.wrap_drift,
            "dynamic_range": self.dynamic_range,
            "accepted": self.accepted,
            "reason": self.reason,
        }


@dataclass
class AutotuneResult:
    """The locked parameters plus the full decision trace."""

    chosen: TuningParameters
    baseline: TuningParameters
    trials: List[TuningTrial] = field(default_factory=list)
    key: str = ""
    sweeps_used: int = 0
    #: served from the profile cache; no trials ran
    cache_hit: bool = False
    #: every candidate failed the health gate; baseline kept
    fallback: bool = False

    def to_dict(self) -> dict:
        return {
            "chosen": self.chosen.to_dict(),
            "baseline": self.baseline.to_dict(),
            "trials": [t.to_dict() for t in self.trials],
            "key": self.key,
            "sweeps_used": self.sweeps_used,
            "cache_hit": self.cache_hit,
            "fallback": self.fallback,
        }

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        if self.cache_hit:
            return f"autotune: cache hit -> {self.chosen}"
        if self.fallback:
            return (
                f"autotune: no candidate passed the health gate; "
                f"keeping defaults ({self.chosen})"
            )
        rejected = sum(1 for t in self.trials if not t.accepted)
        return (
            f"autotune: {len(self.trials)} trials "
            f"({rejected} rejected) -> {self.chosen} "
            f"in {self.sweeps_used} warmup sweeps"
        )


class WarmupAutotuner:
    """Searches engine parameters during a live simulation's warmup.

    Parameters
    ----------
    sim:
        The :class:`~repro.dqmc.Simulation` being tuned; its engine is
        re-partitioned in place per candidate and left configured with
        the winner.
    candidates:
        Explicit candidate list; ``None`` builds the default grid from
        the model's slice/site counts with the run's configuration as
        candidate #0.
    sweeps_per_candidate:
        Warmup sweeps timed per candidate. These are real thermalization
        sweeps — the field keeps equilibrating throughout the search.
    drift_tol / range_tol:
        The health gate. ``drift_tol`` is absolute (same meaning as
        :class:`~repro.telemetry.WatchdogConfig`): any candidate whose
        wrap drift exceeds it is rejected regardless of speed.
        ``range_tol`` floors the *relative* dynamic-range gate — a
        candidate is rejected only when its graded dynamic range
        exceeds ``max(range_tol, 10 x the baseline trial's range)``.
        The baseline (the first measured trial) sets that reference and
        is judged by the drift and unmeasured-chain rules only.
    telemetry:
        Sink for the ``autotune_*`` decision trace; defaults to the
        simulation's own facade.
    timing_source:
        Zero-argument callable returning cumulative seconds; a trial
        costs the delta across its sweeps. Defaults to the simulation
        profiler's accounted phase time (Table-I phase data). Tests
        inject a scripted source to pin determinism.

    The run's precision policy and kinetic mode are not tuned: both
    change the floating-point trajectory, and both are fixed when the
    simulation is constructed.
    """

    def __init__(
        self,
        sim,
        candidates: Optional[Sequence[TuningParameters]] = None,
        sweeps_per_candidate: int = 3,
        drift_tol: float = 1e-6,
        range_tol: float = 1e14,
        telemetry: Optional[Telemetry] = None,
        timing_source: Optional[Callable[[], float]] = None,
        key: str = "",
    ):
        if sweeps_per_candidate < 1:
            raise ValueError("sweeps_per_candidate must be >= 1")
        self.sim = sim
        self.baseline = TuningParameters(
            sim.engine.cluster_size, sim.max_delay
        )
        if candidates is None:
            from ..linalg.condition import max_safe_cluster_size

            model = sim.model
            cap = max_safe_cluster_size(
                model.nu, model.dtau, _bandwidth(model)
            )
            candidates = candidate_grid(
                model.n_slices,
                model.n_sites,
                self.baseline,
                target_cluster=min(10, max(1, cap)),
                cluster_cap=cap,
            )
        self.candidates = list(candidates)
        self.sweeps_per_candidate = sweeps_per_candidate
        self.drift_tol = drift_tol
        self.range_tol = range_tol
        self.telemetry = ensure_telemetry(
            telemetry if telemetry is not None else sim.telemetry
        )
        self.timing_source = (
            timing_source
            if timing_source is not None
            else lambda: sim.profiler.accounted
        )
        self.key = key

    # -- trial machinery -----------------------------------------------------

    def _trial(
        self, params: TuningParameters, range_ref: Optional[float]
    ) -> TuningTrial:
        sim = self.sim
        try:
            sim.apply_tuning(params)
        except ValueError as exc:
            return TuningTrial(
                params=params,
                sweeps=0,
                seconds=0.0,
                sweep_seconds=float("inf"),
                phase_seconds={},
                wrap_drift=float("inf"),
                dynamic_range=float("inf"),
                accepted=False,
                reason=f"inapplicable: {exc}",
            )
        phases_before = dict(sim.profiler.seconds)
        t0 = self.timing_source()
        stats = sim.warmup(self.sweeps_per_candidate)
        seconds = max(0.0, self.timing_source() - t0)
        phase_seconds = {
            k: v - phases_before.get(k, 0.0)
            for k, v in sim.profiler.seconds.items()
            if v - phases_before.get(k, 0.0) > 0.0
        }
        # The trial's own sweeps measured both signals at every cluster
        # boundary they crossed; the gate only rejects, it never promotes
        # or refreshes the engine mid-search. Without a reference the
        # trial is the baseline, whose range is the workload's own.
        reasons = []
        if not stats.boundaries:
            reasons.append("wrap drift unmeasured: one-cluster chain")
        if stats.wrap_drift > self.drift_tol:
            reasons.append(
                f"wrap drift {stats.wrap_drift:.3e} exceeds "
                f"tolerance {self.drift_tol:.3e}"
            )
        if range_ref is not None:
            range_cap = max(self.range_tol, 10.0 * range_ref)
            if stats.grading_ratio > range_cap:
                reasons.append(
                    f"graded dynamic range {stats.grading_ratio:.3e} "
                    f"exceeds {range_cap:.3e} (the larger of range_tol "
                    "and 10x the baseline's)"
                )
        return TuningTrial(
            params=params,
            sweeps=self.sweeps_per_candidate,
            seconds=seconds,
            sweep_seconds=seconds / self.sweeps_per_candidate,
            phase_seconds=phase_seconds,
            wrap_drift=stats.wrap_drift,
            dynamic_range=stats.grading_ratio,
            accepted=not reasons,
            reason="; ".join(reasons),
        )

    def run(self) -> AutotuneResult:
        """Search every candidate, lock the winner, return the trace."""
        tel = self.telemetry
        tel.event(
            "autotune_started",
            key=self.key,
            candidates=[c.to_dict() for c in self.candidates],
            sweeps_per_candidate=self.sweeps_per_candidate,
            drift_tol=self.drift_tol,
            range_tol=self.range_tol,
        )
        trials: List[TuningTrial] = []
        range_ref: Optional[float] = None
        for params in self.candidates:
            trial = self._trial(params, range_ref)
            if range_ref is None and trial.sweeps:
                # First measurable trial is the baseline (candidate #0):
                # its dynamic range anchors the relative gate.
                range_ref = trial.dynamic_range
            trials.append(trial)
            tel.counter("autotune.trials")
            if not trial.accepted:
                tel.counter("autotune.rejected")
            tel.event("autotune_trial", **trial.to_dict())

        accepted = [
            (t.sweep_seconds, i, t) for i, t in enumerate(trials) if t.accepted
        ]
        if accepted:
            # Fastest healthy candidate; ties resolve to the earliest
            # candidate (the baseline is #0), keeping the decision a
            # pure function of the recorded timings.
            _, _, winner = min(accepted)
            chosen, fallback = winner.params, False
        else:
            chosen, fallback = self.baseline, True
        self.sim.apply_tuning(chosen)
        result = AutotuneResult(
            chosen=chosen,
            baseline=self.baseline,
            trials=trials,
            key=self.key,
            sweeps_used=sum(t.sweeps for t in trials),
            fallback=fallback,
        )
        tel.gauge("autotune.cluster_size", chosen.cluster_size)
        tel.gauge("autotune.max_delay", chosen.max_delay)
        tel.event(
            "autotune_locked",
            key=self.key,
            chosen=chosen.to_dict(),
            fallback=fallback,
            sweeps_used=result.sweeps_used,
        )
        return result


def _bandwidth(model) -> float:
    """Spectral width of K (one small eigh, matching ``repro info``)."""
    import numpy as np

    w = np.linalg.eigvalsh(model.kinetic_matrix())
    return float(w[-1] - w[0])


def tune_simulation(
    sim,
    cache: Optional[TuningCache] = None,
    key: Optional[str] = None,
    force: bool = False,
    **tuner_kwargs,
) -> AutotuneResult:
    """Cache-aware tuning of a live simulation.

    A cache hit applies the stored profile and returns immediately (no
    warmup sweeps consumed); a miss — or ``force=True`` — runs the
    warmup search and persists the winner so the next job with the same
    workload shape reuses it.
    """
    if key is None:
        key = profile_key(sim.model, sim.options, sim.engine.method)
    if cache is not None and not force:
        hit = cache.lookup(key)
        if hit is not None:
            baseline = TuningParameters(
                sim.engine.cluster_size, sim.max_delay
            )
            sim.apply_tuning(hit)
            ensure_telemetry(sim.telemetry).event(
                "autotune_locked", key=key, chosen=hit.to_dict(),
                cache_hit=True,
            )
            return AutotuneResult(
                chosen=hit, baseline=baseline, key=key, cache_hit=True
            )
    result = WarmupAutotuner(sim, key=key, **tuner_kwargs).run()
    if cache is not None and not result.fallback:
        cache.store(key, result.chosen)
    return result
