"""The telemetry facade components report into, plus its no-op twin.

Mirrors the two zero-overhead patterns already in the package:

* like ``ensure_profiler``, call sites never branch on ``None`` — they
  call ``ensure_telemetry(telemetry)`` once and talk to the result;
* like ``REPRO_CONTRACTS``, the disabled path must cost nothing in the
  hot loop — :class:`NullTelemetry` methods are empty one-liners and the
  sweep additionally hoists an ``enabled`` check so the per-sweep work
  is a single attribute read when telemetry is off.

A :class:`Telemetry` object owns one :class:`MetricsRegistry` and
optionally one :class:`TelemetryWriter`; *snapshot sources* (the
profiler export hook, cluster-cache stats, a FLOP tally) are callables
registered once and polled right before each periodic snapshot, so
subsystems that already keep their own counters need no per-event
instrumentation at all.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .registry import MetricsRegistry
from .writer import TelemetryWriter

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "ensure_telemetry",
]

#: per-sweep acceptance rates live in [0, 1]; fixed linear buckets
ACCEPTANCE_BOUNDS = tuple(i / 20.0 for i in range(21))


class Telemetry:
    """Live metrics registry + optional JSONL archive for one run.

    Parameters
    ----------
    writer:
        JSONL sink; ``None`` keeps metrics in memory only (ensemble
        chains run this way and are merged at the end).
    snapshot_every:
        Emit a full ``metrics`` snapshot event every this-many
        ``sweep_done`` events (0 disables periodic snapshots; a final
        one is still written by :meth:`close`).
    """

    enabled = True

    def __init__(
        self,
        writer: Optional[TelemetryWriter] = None,
        snapshot_every: int = 10,
    ):
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.registry = MetricsRegistry()
        self.writer = writer
        self.snapshot_every = snapshot_every
        self._snapshot_sources: List[Callable[[MetricsRegistry], None]] = []
        self._sweeps_seen = 0

    # -- registry passthrough ------------------------------------------------

    def counter(self, name: str, delta: float = 1.0) -> None:
        self.registry.inc(name, delta)

    def gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(name, value)

    def observe(self, name: str, value: float, bounds=None) -> None:
        self.registry.observe(name, value, bounds=bounds)

    # -- events --------------------------------------------------------------

    def event(self, kind: str, **fields) -> None:
        """Emit one structured event line (no-op without a writer)."""
        if self.writer is not None:
            self.writer.write(kind, **fields)

    def add_snapshot_source(
        self, source: Callable[[MetricsRegistry], None]
    ) -> None:
        """Register a callable polled into the registry before snapshots."""
        self._snapshot_sources.append(source)

    def snapshot(self) -> dict:
        """Poll every source, archive and return the registry snapshot."""
        for source in self._snapshot_sources:
            source(self.registry)
        snap = self.registry.snapshot()
        self.event("metrics", metrics=snap)
        return snap

    def sweep_done(self, index: int, stats, stage: str = "measure") -> None:
        """Per-sweep bookkeeping: counters, distributions, the
        ``sweep_done`` event, and the periodic snapshot cadence.

        ``stats`` is a :class:`~repro.dqmc.sweep.SweepStats` for *one*
        sweep (not an aggregate).
        """
        self._sweeps_seen += 1
        reg = self.registry
        reg.inc("sweep.count")
        reg.inc("sweep.proposed", stats.proposed)
        reg.inc("sweep.accepted", stats.accepted)
        reg.inc("sweep.negative_ratios", stats.negative_ratios)
        reg.inc("sweep.singular_rejects", stats.singular_rejects)
        reg.inc("sweep.refreshes", stats.refreshes)
        reg.set_gauge("sweep.sign", stats.sign)
        reg.set_gauge("sweep.wrap_drift", stats.wrap_drift)
        reg.set_gauge("sweep.grading_ratio", stats.grading_ratio)
        reg.observe(
            "sweep.acceptance_rate",
            stats.acceptance_rate,
            bounds=ACCEPTANCE_BOUNDS,
        )
        self.event(
            "sweep_done",
            sweep=index,
            stage=stage,
            proposed=stats.proposed,
            accepted=stats.accepted,
            negative_ratios=stats.negative_ratios,
            singular_rejects=stats.singular_rejects,
            refreshes=stats.refreshes,
            sign=stats.sign,
            wrap_drift=stats.wrap_drift,
            grading_ratio=stats.grading_ratio,
        )
        if self.snapshot_every and self._sweeps_seen % self.snapshot_every == 0:
            self.snapshot()

    def close(self) -> None:
        """Final snapshot + writer shutdown (idempotent)."""
        if self.writer is not None:
            self.snapshot()
            self.writer.close()
            self.writer = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullTelemetry(Telemetry):
    """Telemetry that does nothing, shared by all call sites.

    Mirrors ``_NullProfiler``: components hold a real object and never
    branch on ``None``; the ``enabled`` flag lets per-sweep call sites
    skip even the cheap no-op calls.
    """

    enabled = False

    def __init__(self) -> None:  # no registry, no writer, no state
        pass

    def counter(self, name: str, delta: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, bounds=None) -> None:
        pass

    def event(self, kind: str, **fields) -> None:
        pass

    def add_snapshot_source(self, source) -> None:
        pass

    def snapshot(self) -> dict:
        return {}

    def sweep_done(self, index: int, stats, stage: str = "measure") -> None:
        pass

    def close(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()


def ensure_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """The given telemetry, or the shared no-op instance."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
