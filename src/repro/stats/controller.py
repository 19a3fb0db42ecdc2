"""Error-targeted run control: measure until the error bar is good enough.

Fixed sweep budgets are always wrong in one direction: too short and
the result is noise, too long and the machine burns hours past the
point of diminishing returns (the paper's 3000-sweep Figs 5-7 budgets
were chosen by hand). A :class:`RunController` replaces the guess with
a statistical contract:

1. **Equilibrate** — until MSER-5 + Geweke agree the control series is
   stationary, keep sweeping; on detection, discard everything
   accumulated so far and flag the run equilibrated.
2. **Converge** — after equilibration, evaluate the sign-corrected
   relative error of the target observable at a fixed sample cadence
   and stop the moment it reaches the target.

Decisions depend only on the accumulated sample stream and the sample
counter — never on wall clock — so a checkpointed run that is resumed
replays the *same* decisions at the same sweeps and stops at the same
point bit-exactly (tested). Controller state (equilibration flag, cut,
stop record) is serialized into the checkpoint via
:meth:`RunController.state_dict`.

Telemetry: each evaluation publishes ``stats.relative_error``,
``stats.n_samples``, ``stats.tau_int`` and ``stats.equilibration_cut``
gauges; transitions emit ``stats_equilibrated`` and
``stats_target_reached`` events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..measure.estimators import integrated_autocorrelation_time
from .equilibration import detect_equilibration
from .ratio import propagate_ratio_error
from .stream import StreamingError

__all__ = ["ControlDecision", "RunController"]


@dataclass(frozen=True)
class ControlDecision:
    """One controller evaluation's verdict."""

    #: stop measuring now (target met)
    stop: bool
    #: "target" | "equilibrating" | "continue"
    reason: str
    #: samples of the target observable at evaluation time (post-discard)
    n_samples: int
    #: sign-corrected relative error of the target (inf when undefined)
    relative_error: float
    #: has the equilibration stage completed?
    equilibrated: bool
    #: total samples discarded as pre-equilibration so far
    discarded: int

    def describe(self) -> str:
        if self.stop:
            return (
                f"target reached: relative error "
                f"{self.relative_error:.3g} at {self.n_samples} samples "
                f"({self.discarded} discarded as pre-equilibration)"
            )
        if not self.equilibrated:
            return f"equilibrating ({self.n_samples} samples so far)"
        return (
            f"relative error {self.relative_error:.3g} "
            f"at {self.n_samples} samples"
        )


class RunController:
    """Adaptive stopping policy for one simulation's measurement stage.

    Parameters
    ----------
    target_observable:
        Scalar observable whose sign-corrected relative error drives
        the stop decision (default ``"density"``).
    target_error:
        Relative-error target epsilon; the run stops at the first
        evaluation where ``|error / mean| <= target_error``.
    check_every:
        Evaluation cadence in *samples* of the target observable (not
        sweeps — deterministic across checkpoint resume regardless of
        measurement cadence).
    min_samples:
        No evaluation (and no stop) before this many samples.
    equilibrate:
        Run the equilibration stage (default on). When off, the run is
        treated as already equilibrated (the configured warmup is
        trusted).
    z_threshold / batch:
        Forwarded to :func:`~repro.stats.detect_equilibration`.
    """

    def __init__(
        self,
        target_observable: str = "density",
        target_error: float = 0.01,
        check_every: int = 32,
        min_samples: int = 64,
        equilibrate: bool = True,
        z_threshold: float = 2.0,
        batch: int = 5,
    ):
        if target_error <= 0:
            raise ValueError("target_error must be > 0")
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if min_samples < 8:
            raise ValueError("min_samples must be >= 8")
        self.target_observable = target_observable
        self.target_error = float(target_error)
        self.check_every = int(check_every)
        self.min_samples = int(min_samples)
        self.equilibrate = bool(equilibrate)
        self.z_threshold = float(z_threshold)
        self.batch = int(batch)
        # -- mutable decision state (checkpointed) --------------------------
        self.equilibrated = not self.equilibrate
        self.cut = 0
        self.discarded = 0
        self.checks = 0
        self.stopped = False
        self.last: Optional[ControlDecision] = None
        self._telemetry = None

    # -- wiring --------------------------------------------------------------

    def bind(self, sim) -> None:
        """Attach to a live simulation (telemetry + series tracking).

        Called by :meth:`Simulation.attach_controller`; ensures the
        accumulator retains the scalar control series the equilibration
        detector needs.
        """
        self._telemetry = getattr(sim, "telemetry", None)
        acc = sim.collector.accumulator
        acc.track("sign")
        acc.track(self.target_observable)

    def _gauge(self, name: str, value: float) -> None:
        if self._telemetry is not None and self._telemetry.enabled:
            self._telemetry.gauge(name, value)

    def _event(self, kind: str, **fields) -> None:
        if self._telemetry is not None and self._telemetry.enabled:
            self._telemetry.event(kind, **fields)

    # -- checkpoint state ----------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "target_observable": self.target_observable,
            "target_error": self.target_error,
            "equilibrated": self.equilibrated,
            "cut": self.cut,
            "discarded": self.discarded,
            "checks": self.checks,
            "stopped": self.stopped,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed decision state (resume path).

        The *policy* fields (target, cadence) come from the live
        configuration; only the decision state is restored — a resumed
        run must not re-discard an already-discarded prefix.
        """
        self.equilibrated = bool(state["equilibrated"])
        self.cut = int(state["cut"])
        self.discarded = int(state["discarded"])
        self.checks = int(state["checks"])
        self.stopped = bool(state["stopped"])

    # -- the decision --------------------------------------------------------

    def relative_error(self, accumulator, n_bins: int = 16) -> float:
        """Current sign-corrected relative error of the target."""
        try:
            num = accumulator.estimate(self.target_observable, n_bins)
            sgn = accumulator.estimate("sign", n_bins)
            est = propagate_ratio_error(num, sgn)
        except (KeyError, ValueError):
            return float("inf")
        return float(np.asarray(est.relative_error))

    def check(self, sim) -> Optional[ControlDecision]:
        """Evaluate after a sweep; ``None`` between cadence points.

        Gates on the target observable's sample count (``min_samples``
        reached and a multiple of ``check_every``), so resumed runs
        evaluate at identical points.
        """
        acc = sim.collector.accumulator
        n = acc.n_samples(self.target_observable)
        if n < self.min_samples or n % self.check_every:
            return None
        return self._evaluate(acc, n)

    def _evaluate(self, acc, n: int) -> ControlDecision:
        self.checks += 1
        if not self.equilibrated:
            decision = self._check_equilibration(acc, n)
            if decision is not None:
                self.last = decision
                return decision
            n = acc.n_samples(self.target_observable)
        rel = self.relative_error(acc)
        self._gauge("stats.relative_error", rel)
        self._gauge("stats.n_samples", n)
        self._gauge("stats.equilibration_cut", self.discarded)
        self._publish_tau(acc)
        stop = (
            np.isfinite(rel)
            and rel <= self.target_error
            and n >= self.min_samples
        )
        if stop and not self.stopped:
            self.stopped = True
            self._event(
                "stats_target_reached",
                observable=self.target_observable,
                relative_error=rel,
                target=self.target_error,
                n_samples=n,
                discarded=self.discarded,
            )
        decision = ControlDecision(
            stop=bool(stop),
            reason="target" if stop else "continue",
            n_samples=n,
            relative_error=rel,
            equilibrated=self.equilibrated,
            discarded=self.discarded,
        )
        self.last = decision
        return decision

    def _check_equilibration(self, acc, n: int) -> Optional[ControlDecision]:
        """Run detection; a returned decision means 'keep sweeping'."""
        series = np.asarray(acc.series(self.target_observable))
        eq = detect_equilibration(
            series, batch=self.batch, z_threshold=self.z_threshold
        )
        self._gauge("stats.geweke_z", eq.z_score)
        if not eq.converged:
            return ControlDecision(
                stop=False,
                reason="equilibrating",
                n_samples=n,
                relative_error=float("inf"),
                equilibrated=False,
                discarded=self.discarded,
            )
        self.equilibrated = True
        self.cut = eq.n_cut
        if eq.n_cut > 0:
            self.discarded += acc.reset()
        self._event(
            "stats_equilibrated",
            observable=self.target_observable,
            cut=eq.n_cut,
            discarded=self.discarded,
            geweke_z=eq.z_score,
            n_samples=n,
        )
        return None  # fall through to the target evaluation

    def _publish_tau(self, acc) -> None:
        """Gauge the control series' integrated autocorrelation time."""
        if self._telemetry is None or not self._telemetry.enabled:
            return
        try:
            series = np.asarray(acc.series(self.target_observable))
            if series.size >= 8:
                self._gauge(
                    "stats.tau_int",
                    integrated_autocorrelation_time(series),
                )
        except (KeyError, ValueError, StreamingError):
            pass

    def summary(self) -> dict:
        """JSON-able digest for result metadata / worker summaries."""
        last = self.last
        return {
            "target_observable": self.target_observable,
            "target_error": self.target_error,
            "target_met": self.stopped,
            "equilibrated": self.equilibrated,
            "equilibration_cut": self.cut,
            "discarded": self.discarded,
            "checks": self.checks,
            "relative_error": (
                last.relative_error if last is not None else None
            ),
        }
