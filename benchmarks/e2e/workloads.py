"""The workload ladder, the correctness limits, and the one Simulation
builder every pass of the harness shares.

All workloads: square lattice, t=1, mu=0 (half filling), U=4, dtau=0.1,
``method="prepivot"``, ``cluster_size=10``, ``max_delay=32``. Lattice shape
and beta are the knobs that decide which layer dominates a sweep:
stratification grows as (L/k)^2 per sweep, everything else as L.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

DTAU = 0.1
U = 4.0
CLUSTER_SIZE = 10
MAX_DELAY = 32


@dataclass(frozen=True)
class Workload:
    name: str
    lx: int
    beta: float
    why: str
    #: warm-up sweeps before anything is timed
    warm: int
    #: traced sweeps of the per-layer pass (fixed, so exact counts repeat)
    traced: int
    #: untraced sweeps interleaved with the traced ones; their median is
    #: the base of ``trace.overhead_pct``
    untraced: int
    precision: str = "full64"
    kinetic: str = "exact"
    #: production switches: streaming accumulators, dynamic measurements,
    #: four measurements per sweep, telemetry archive, watchdog, checkpoints
    observed: bool = False
    checkpoint_every: int = 50

    @property
    def n_slices(self) -> int:
        return int(round(self.beta / DTAU))

    @property
    def mixed(self) -> bool:
        return self.precision != "full64"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "metro_8x8_b4", 8, 4.0,
            "interpreted per-site Metropolis loop is ~70% of the sweep; "
            "site-loop work must show here, GEMM/QR work must not",
            warm=20, traced=100, untraced=50,
        ),
        Workload(
            "dense_16x16_b8", 16, 8.0,
            "Green's-function work is ~66% (paper Table I share); dense "
            "stratification, wrap and cluster GEMM changes show here",
            warm=2, traced=6, untraced=3,
        ),
        Workload(
            "fast_16x16_b8", 16, 8.0,
            "same model and seed as dense but checkerboard + mixed: wrap "
            "and cluster shrink to ~6%, so a dense-GEMM gain predicts no "
            "change here",
            warm=2, traced=6, untraced=3,
            precision="mixed", kinetic="checkerboard",
        ),
        Workload(
            "observed_8x8_b4", 8, 4.0,
            "metro plus what production switches on (streaming, dynamic "
            "measurements, telemetry, watchdog, checkpoints); prices the "
            "instrumentation and must leave the Markov chain unchanged",
            warm=20, traced=100, untraced=50, observed=True,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same option set on a 4x4, beta=2 lattice: seconds, not minutes."""
    return replace(
        w, lx=4, beta=2.0, warm=2, traced=4, untraced=2, checkpoint_every=2
    )


# -- correctness limits (judged by the driver, so one place holds them) -----

#: lattices below this are the 4x4 self-test shapes, not the workloads the
#: limits were set on
FULL_SIZE_MIN_LX = 8
#: hard ceiling on the pipeline-vs-direct relative Green's-function error
G_REL_ERR_CEILING = {"full64": 1e-8, "mixed": 2e-2}
#: on 4x4 the float32 error is 1e-2 to 4e-2 of a much smaller ||G||
SMOKE_G_SLACK = 5.0
#: share of proposals with a negative Metropolis ratio: none at half
#: filling in float64; float32 diagonals round a few per 10^5 below zero
NEGATIVE_SHARE = {"full64": 0.0, "mixed": 1e-3}
#: |density - 1| at half filling
DENSITY_TOL = {"full64": 1e-8, "mixed": 1e-3}
#: U=0 engine against the closed-form free Green's function
U0_TOL = {"full64": 1e-10, "mixed": 1e-4}
#: span totals against PhaseProfiler seconds over the same sweeps; not
#: judged on 4x4, where span bookkeeping itself is several percent
PROFILER_AGREEMENT = 0.05
#: Green's-function share of the sweep, spans vs PhaseProfiler, in points
GF_SHARE_POINTS = 5.0
#: tracing overhead gate, on the gap between the fastest traced and the
#: slowest untraced sweep; only lattices this large have sweeps long
#: enough for span bookkeeping to be negligible by design
TRACE_OVERHEAD_PCT = 5.0
TRACE_OVERHEAD_MIN_LX = 16


def build_simulation(
    w: Workload,
    seed: int,
    backend: str = "numpy",
    workdir: Optional[Path] = None,
    u: float = U,
):
    """The workload's Simulation. ``workdir`` receives the telemetry
    archive of an observed workload; without it the production switches
    stay off, which is how the reference chain of ``observed`` is built."""
    from repro import (
        HubbardModel,
        Simulation,
        SquareLattice,
        Telemetry,
        TelemetryWriter,
        WatchdogConfig,
    )

    model = HubbardModel(
        SquareLattice(w.lx, w.lx), u=u, t=1.0, mu=0.0,
        beta=w.beta, n_slices=w.n_slices,
    )
    options = dict(
        seed=seed,
        method="prepivot",
        cluster_size=CLUSTER_SIZE,
        max_delay=MAX_DELAY,
        backend=backend,
        precision=w.precision,
        kinetic=w.kinetic,
    )
    if w.observed and workdir is not None:
        # No watchdog on the mixed workload by design: it would promote to
        # full64 and silently turn `fast` into another workload.
        options.update(
            streaming=True,
            measure_dynamic=True,
            measurements_per_sweep=4,
            telemetry=Telemetry(
                TelemetryWriter(workdir / "run.jsonl"), snapshot_every=10
            ),
            # The default range_tol (1e14) alerts at every check here: the
            # graded range of a healthy beta=4, U=4 chain is ~7e23. A run
            # that force-refreshes at every check is not what production
            # pays, so the tolerance is lifted above the intrinsic range.
            # One sweep in ten is checked so that the tail percentile
            # (about p96) lies inside the population of checked sweeps;
            # at one in 25 it sat on that population's edge and flipped
            # between 78 and 85 ms from run to run.
            watchdog=WatchdogConfig(check_every=10, range_tol=1e30),
        )
    return Simulation(model, **options)
