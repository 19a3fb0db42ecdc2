"""Numerical-health watchdog: detect drift before it corrupts physics.

The two quantities that degrade silently in a long DQMC run are exactly
the two the paper's stability machinery exists to control:

* **wrap drift** — the relative error between the running wrapped
  Green's function and a freshly stratified one (Sec. III-B justifies
  l_wrap ~ 10 by keeping this small). It grows with the B-matrix
  condition number, so a parameter point that was safe at the start of
  a run can turn unsafe as the field decorrelates.
* **graded dynamic range** — the spread ``max|D| / min|D|`` of the
  stratified scales. When it approaches 1/eps the cluster products are
  no longer representable and every downstream number is suspect.

The watchdog samples both every ``check_every`` sweeps (each sample
costs roughly one direct stratification — strictly off the hot path)
and, past the configured tolerances, *degrades gracefully*: it emits a
``health_alert`` event, invalidates every cached cluster product and
forces a fresh re-stratification of both spin species, replacing the
drifted state instead of letting it contaminate further measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .core import Telemetry, ensure_telemetry

__all__ = ["WatchdogConfig", "HealthReport", "NumericalHealthWatchdog"]


@dataclass(frozen=True)
class WatchdogConfig:
    """Tolerances and cadence for :class:`NumericalHealthWatchdog`.

    Defaults are loose enough that a healthy run at the paper's operating
    points never alerts (wrap drift there sits around 1e-10, graded
    ranges around 1e4 per cluster chain) while a mis-sized cluster or a
    pathological parameter point trips within one check interval.
    """

    #: sweeps between health samples (each costs ~one stratification)
    check_every: int = 50
    #: alert when wrap drift (relative Frobenius error) exceeds this
    drift_tol: float = 1e-6
    #: alert when max|D|/min|D| of the graded scales exceeds this
    range_tol: float = 1e14
    #: wraps to accumulate before comparing (None: one full cluster)
    n_wraps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if self.drift_tol <= 0 or self.range_tol <= 1:
            raise ValueError("tolerances must be positive (range_tol > 1)")


@dataclass
class HealthReport:
    """Outcome of one watchdog sample."""

    sweep: int
    wrap_drift: float
    dynamic_range: float
    alerts: List[str] = field(default_factory=list)
    forced_refresh: bool = False
    #: name of the policy the engine was promoted to, when an alert
    #: under a narrowed precision policy triggered promotion
    promoted_to: Optional[str] = None

    @property
    def healthy(self) -> bool:
        return not self.alerts


class NumericalHealthWatchdog:
    """Periodic numerical-health sampling bound to one engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.GreensFunctionEngine` whose
        ``wrap_drift`` / ``grading_profile`` diagnostics are sampled and
        whose caches are invalidated on alert.
    config:
        Tolerances and cadence.
    telemetry:
        Sink for ``health_alert`` / ``forced_refresh`` events and the
        ``health.*`` gauge series; ``None`` keeps reports in-memory only.
    promote:
        When True (the default, production behaviour) an alert under a
        narrowed precision policy promotes the engine to the next-safer
        rung. The autotuner disables this: its trials deliberately probe
        configurations that may be unhealthy, and the gate's job is to
        *reject* them, not to mutate the engine's policy mid-search.
    """

    def __init__(
        self,
        engine,
        config: Optional[WatchdogConfig] = None,
        telemetry: Optional[Telemetry] = None,
        promote: bool = True,
    ):
        self.engine = engine
        self.config = config if config is not None else WatchdogConfig()
        self.telemetry = ensure_telemetry(telemetry)
        self.promote = promote
        self.reports: List[HealthReport] = []
        self.alerts = 0
        self.forced_refreshes = 0
        self.promotions = 0

    def maybe_check(self, sweep_index: int) -> Optional[HealthReport]:
        """Run a health sample if ``sweep_index`` falls on the cadence.

        Returns the report when a sample ran, ``None`` otherwise. Called
        by the simulation driver after every sweep with a 1-based index.
        """
        if sweep_index % self.config.check_every != 0:
            return None
        return self.check(sweep_index)

    def check(self, sweep_index: int = 0) -> HealthReport:
        """Sample both diagnostics, alert + refresh past tolerance.

        The wrap-drift tolerance is scaled by the active precision
        policy's ``drift_scale``: a narrowed pipeline legitimately
        drifts more between refreshes (float32 eps ~1e-7), and the
        scale keeps one configured tolerance meaningful on every rung
        of the ladder. Under ``full64`` the scale is 1 — behaviour is
        exactly historical.
        """
        cfg = self.config
        policy = getattr(self.engine, "policy", None)
        drift_tol = cfg.drift_tol * (
            policy.drift_scale if policy is not None else 1.0
        )
        drift = max(
            self.engine.wrap_drift(sigma, n_wraps=cfg.n_wraps)
            for sigma in (1, -1)
        )
        dyn_range = 0.0
        for sigma in (1, -1):
            scales = self.engine.grading_profile(sigma)
            # sorted descending; the smallest scale can underflow to 0 on
            # a truly lost chain — report an infinite range, not a crash.
            smallest = float(scales[-1])
            largest = float(scales[0])
            ratio = largest / smallest if smallest > 0.0 else float("inf")
            dyn_range = max(dyn_range, ratio)

        report = HealthReport(
            sweep=sweep_index, wrap_drift=drift, dynamic_range=dyn_range
        )
        if drift > drift_tol:
            report.alerts.append(
                f"wrap_drift {drift:.3e} exceeds tolerance {drift_tol:.3e}"
            )
        if dyn_range > cfg.range_tol:
            report.alerts.append(
                f"graded dynamic range {dyn_range:.3e} exceeds tolerance "
                f"{cfg.range_tol:.3e}"
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
            # drifted, the forced re-stratification below already runs
            # under the next-safer rung.
            self._maybe_promote(sweep_index, report)
            self._force_refresh(sweep_index)
            report.forced_refresh = True

        self.reports.append(report)
        return report

    def _maybe_promote(self, sweep_index: int, report: "HealthReport") -> bool:
        """Promote a narrowed engine to the next-safer precision policy.

        An alert under ``mixed``/``fast32`` means the narrowed pipeline
        is not holding this workload; instead of failing (or silently
        measuring drifted physics) the engine is switched in place —
        ``fast32`` -> ``mixed`` -> ``full64`` — and a
        ``precision_promoted`` event records the transition. At
        ``full64`` there is no safer rung and the historical
        alert-and-refresh behaviour stands alone.
        """
        if not self.promote:
            return False
        policy = getattr(self.engine, "policy", None)
        set_precision = getattr(self.engine, "set_precision", None)
        if policy is None or set_precision is None:
            return False
        safer = policy.safer
        if safer is None:
            return False
        set_precision(safer)
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
        return True

    def _force_refresh(self, sweep_index: int) -> None:
        """Graceful degradation: drop all derived state and re-stratify.

        ``invalidate_all`` empties the cluster cache; the immediate
        ``boundary_greens`` calls rebuild the products and run a fresh
        stratification for both spins, so the next sweep starts from
        clean state instead of compounding the drift.
        """
        self.engine.invalidate_all()
        for sigma in (1, -1):
            self.engine.boundary_greens(sigma, 0)
        self.forced_refreshes += 1
        self.telemetry.counter("health.forced_refreshes")
        self.telemetry.event("forced_refresh", sweep=sweep_index)
