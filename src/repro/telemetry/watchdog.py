"""Numerical-health watchdog: detect drift before it corrupts physics.

The two quantities that degrade silently in a long DQMC run are exactly
the two the paper's stability machinery exists to control:

* **wrap drift** — the relative error between the running wrapped
  Green's function and a freshly stratified one (Sec. III-B justifies
  l_wrap ~ 10 by keeping this small). It grows with the B-matrix
  condition number, so a parameter point that was safe at the start of
  a run can turn unsafe as the field decorrelates.
* **graded dynamic range** — the spread ``max|D| / min|D|`` of the
  stratified scales. Its size is the workload's (the stratification
  exists to carry it), so it is judged against the run's first reading;
  a non-finite range - a scale that under- or overflowed - always
  alerts.

Neither is recomputed here. The sweep already holds both at every
cluster boundary — the G it is about to discard next to the fresh one
replacing it, and the decompositions that fresh one was built from — and
records them in its :class:`~repro.dqmc.sweep.SweepStats`. The watchdog
folds every sweep's record into a running worst case and judges it every
``check_every`` sweeps, so a report covers *every* boundary of *every*
sweep since the previous one. Past the configured tolerances it
*degrades gracefully*: it emits a ``health_alert`` event and invalidates
every cached cluster product and kept factorization, so the next sweep
rebuilds from the field instead of compounding the drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from .core import Telemetry, ensure_telemetry

__all__ = ["WatchdogConfig", "HealthReport", "NumericalHealthWatchdog"]


@dataclass(frozen=True)
class WatchdogConfig:
    """Tolerances and cadence for :class:`NumericalHealthWatchdog`.

    Defaults are loose enough that a healthy run at the paper's operating
    points never alerts while a mis-sized cluster or a pathological
    parameter point trips within one check interval. Wrap drift there
    sits around 1e-10. The graded range is a property of the workload
    (about ``exp(beta x bandwidth)``: 1e20 from a random field and
    1e22-1e25 thermalized on an 8x8 lattice at beta = 4, U = 4), so it
    is judged against the run's own first reading. Checked every sweep
    from a random field, healthy chains rose to at most 3e5 times that
    reading at 8x8, beta = 4, 8e8 at 16x16, beta = 8 and 3e9 at beta =
    16, so the default factor leaves some three decades of headroom
    (``docs/observability.md``).
    """

    #: sweeps folded into one report (the judging cadence; every sweep
    #: is observed whatever this is)
    check_every: int = 50
    #: alert when wrap drift (relative Frobenius error) exceeds this
    drift_tol: float = 1e-6
    #: alert when max|D|/min|D| of the graded scales exceeds this
    #: factor times the run's first reading of it
    range_tol: float = 1e12

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if self.drift_tol <= 0 or self.range_tol <= 1:
            raise ValueError("tolerances must be positive (range_tol > 1)")


@dataclass
class HealthReport:
    """Worst case over the sweeps since the previous report."""

    sweep: int
    wrap_drift: float
    dynamic_range: float
    #: cluster boundaries ``wrap_drift`` was measured at; 0 (a
    #: one-cluster chain never replaces a wrapped G mid-sweep) means the
    #: drift is unmeasured, not zero
    boundaries: int = 0
    alerts: List[str] = field(default_factory=list)
    forced_refresh: bool = False
    #: name of the policy the engine was promoted to, when an alert
    #: under a narrowed precision policy triggered promotion
    promoted_to: Optional[str] = None

    @property
    def healthy(self) -> bool:
        return not self.alerts


class NumericalHealthWatchdog:
    """Judges the health signals the sweeps of one engine record.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.GreensFunctionEngine` whose precision
        policy scales the drift tolerance and is promoted on alert, and
        whose caches are invalidated on alert.
    config:
        Tolerances and cadence.
    telemetry:
        Sink for ``health_alert`` / ``forced_refresh`` events and the
        ``health.*`` gauge series; ``None`` keeps reports in-memory only.
    """

    def __init__(
        self,
        engine,
        config: Optional[WatchdogConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.engine = engine
        self.config = config if config is not None else WatchdogConfig()
        self.telemetry = ensure_telemetry(telemetry)
        self.reports: List[HealthReport] = []
        self.alerts = 0
        self.forced_refreshes = 0
        self.promotions = 0
        #: the graded range of the first report, which later ones are
        #: judged against
        self.first_range: Optional[float] = None
        self._reset_window()

    def _reset_window(self) -> None:
        self._drift = 0.0
        self._boundaries = 0
        self._range = 0.0

    def maybe_check(self, sweep_index: int, stats) -> Optional[HealthReport]:
        """Fold one sweep's record in; report if on the cadence.

        ``stats`` is the :class:`~repro.dqmc.sweep.SweepStats` of the
        sweep that just finished (``wrap_drift``, ``boundaries``,
        ``grading_ratio`` are read). Returns the report when
        ``sweep_index`` (1-based, from the simulation driver) falls on
        ``check_every``, ``None`` otherwise.
        """
        self._drift = max(self._drift, stats.wrap_drift)
        self._boundaries += stats.boundaries
        self._range = max(self._range, stats.grading_ratio)
        if sweep_index % self.config.check_every != 0:
            return None
        return self._check(sweep_index)

    def _check(self, sweep_index: int) -> HealthReport:
        """Judge the window folded so far, alert + refresh past tolerance.

        The wrap-drift tolerance is scaled by the active precision
        policy's ``drift_scale``: a narrowed pipeline legitimately
        drifts more between refreshes (float32 eps ~1e-7), and the
        scale keeps one configured tolerance meaningful on every rung
        of the ladder. Under ``full64`` the scale is 1.

        The graded range alerts when it is not finite or exceeds
        ``range_tol`` times the first report's range.
        """
        cfg = self.config
        drift, dyn_range = self._drift, self._range
        report = HealthReport(
            sweep=sweep_index,
            wrap_drift=drift,
            dynamic_range=dyn_range,
            boundaries=self._boundaries,
        )
        self._reset_window()

        drift_tol = cfg.drift_tol * self.engine.policy.drift_scale
        if drift > drift_tol:
            report.alerts.append(
                f"wrap_drift {drift:.3e} exceeds tolerance {drift_tol:.3e}"
            )
        if self.first_range is None:
            self.first_range = dyn_range
        range_limit = cfg.range_tol * self.first_range
        if not math.isfinite(dyn_range) or dyn_range > range_limit:
            report.alerts.append(
                f"graded dynamic range {dyn_range:.3e} exceeds {cfg.range_tol:.3e} "
                f"x the first reading {self.first_range:.3e}"
            )

        tel = self.telemetry
        tel.gauge("health.wrap_drift", drift)
        tel.gauge("health.dynamic_range", dyn_range)
        tel.observe("health.wrap_drift_samples", drift)
        tel.counter("health.checks")

        if report.alerts:
            self.alerts += len(report.alerts)
            tel.counter("health.alerts", len(report.alerts))
            tel.event(
                "health_alert",
                sweep=sweep_index,
                wrap_drift=drift,
                dynamic_range=dyn_range,
                alerts=list(report.alerts),
            )
            # Promotion before refresh: when a narrowed policy is what
            # drifted, the rebuild the refresh forces already runs
            # under the next-safer rung.
            self._maybe_promote(sweep_index, report)
            self._force_refresh(sweep_index)
            report.forced_refresh = True

        self.reports.append(report)
        return report

    def _maybe_promote(self, sweep_index: int, report: "HealthReport") -> None:
        """Promote a narrowed engine to the next-safer precision policy.

        An alert under ``mixed`` means the narrowed pipeline is not
        holding this workload; instead of failing (or silently
        measuring drifted physics) the engine is switched in place to
        ``full64`` and a
        ``precision_promoted`` event records the transition. At
        ``full64`` there is no safer rung and the historical
        alert-and-refresh behaviour stands alone.
        """
        policy = self.engine.policy
        safer = policy.safer
        if safer is None:
            return
        self.engine.set_precision(safer)
        self.promotions += 1
        report.promoted_to = safer.name
        self.telemetry.counter("health.precision_promotions")
        self.telemetry.event(
            "precision_promoted",
            sweep=sweep_index,
            from_policy=policy.name,
            to_policy=safer.name,
            reason="; ".join(report.alerts),
        )

    def _force_refresh(self, sweep_index: int) -> None:
        """Graceful degradation: drop all derived state.

        ``invalidate_all`` empties the cluster cache and forgets every
        kept factorization, so the next sweep's first boundary rebuilds
        both from the field. Nothing is rebuilt here: a fresh G computed
        now would be used by nobody.
        """
        self.engine.invalidate_all()
        self.forced_refreshes += 1
        self.telemetry.counter("health.forced_refreshes")
        self.telemetry.event("forced_refresh", sweep=sweep_index)
