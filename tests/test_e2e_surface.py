"""Tier-1 guard for everything the end-to-end benchmark calls and reads.

``benchmarks/e2e`` builds every workload through
``workloads.build_simulation`` (the production switches of ``observed``,
``kinetic="checkerboard"``, ``precision="mixed"``, the gpu-sim and
threaded backends of its counts leg), wraps engine, cache and backend
methods by name in ``tracer.install`` and reads public attributes
afterwards. Tier-1 collects ``tests/`` only, so a refactor that deletes
or renames any of them leaves every unit test green and the benchmark
dead. This file drives the harness's own ``tracer.py`` and
``workloads.py`` (loaded by path, never modified) over the 4x4 shape of
each workload on every backend the harness uses, and touches what
``child.py`` reads afterwards.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dqmc.checkpoint import save_checkpoint
from repro.linalg import flops
from repro.profiling import PHASES

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
#: the workloads ``BENCHMARK.json`` declares (each must exist in workloads.py)
WORKLOADS = [
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


def load(name):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module there
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")

#: engine attributes ``tracer.install`` shadows on the instance
ENGINE_WRAPPED = (
    "boundary_greens", "wrap_pair", "unwrap_pair", "wrap", "unwrap",
)

#: the span names child.py's per-layer metrics are computed from
SPANS = (
    "dqmc.sweep",
    "core.greens.boundary",
    "core.recycling.get",
    "core.greens.wrap",
    "backends.gemm.stratification",
    "backends.gemm.delayed_update",
    "backends.cluster_product",
    "backends.wrap",
    "backends.prepivot",
    "backends.scale",
    "measure.collector.measure",
)


@pytest.mark.parametrize("backend", ["numpy", "gpu-sim", "threaded"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_harness_builds_traces_and_sweeps(name, backend, tmp_path):
    """``build_simulation`` as the timed / traced passes call it (numpy,
    with a workdir: the production switches on) and as the counts leg
    does (gpu-sim and threaded, no workdir); ``Tracer.install`` wraps
    every method it names; a warm-up sweep and two measurement sweeps
    (both directions) run under it; ``uninstall`` leaves nothing behind."""
    w = workloads.smoke(workloads.WORKLOADS[name])
    workdir = tmp_path if backend == "numpy" else None
    sim = workloads.build_simulation(w, 11, backend=backend, workdir=workdir)
    engine = sim.engine
    trace = tracer.Tracer()
    trace.install(sim)
    try:
        sim.warmup(1)
        stats = sim.measure_sweeps(2)
    finally:
        trace.uninstall()
        sim.telemetry.close()
    assert not set(ENGINE_WRAPPED) & set(vars(engine))
    assert "get" not in vars(engine.cache)
    totals = trace.totals()
    assert totals["dqmc.sweep"]["calls"] == 3
    assert totals["core.greens.boundary"]["calls"] == 3 * 2 * engine.n_clusters
    assert stats.proposed == 2 * engine.n * w.n_slices
    if backend == "gpu-sim":
        device = engine.device
        assert device.elapsed > 0 and device.kernel_launches > 0
        assert device.h2d_bytes > 0
    if w.observed and workdir is not None:
        assert sim.measure_dynamic and sim.watchdog is not None
        assert sim.collector.accumulator.n_samples("g_loc_tau") == 2
        assert (tmp_path / "run.jsonl").stat().st_size > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_sweep_yields_every_span_and_counter(name, tmp_path):
    w = workloads.smoke(workloads.WORKLOADS[name])
    sim = workloads.build_simulation(w, 11, workdir=tmp_path)
    sim.warmup(1)
    engine, cache, backend = sim.engine, sim.engine.cache, sim.engine.backend
    before = (cache.hits, cache.misses, cache.batched_builds,
              sum(backend.op_counts.values()))

    trace = tracer.Tracer()
    trace.install(sim)
    try:
        with flops.tally() as tally:
            stats = sim.measure_sweeps(1)
    finally:
        trace.uninstall()
    assert not {"gemm", "wrap_batched"} & set(vars(backend))
    assert "get" not in vars(cache)

    totals = trace.totals()
    spans = SPANS
    if w.kinetic == "checkerboard":
        spans += ("backends.structured",)
    if w.observed:
        spans += ("telemetry.sweep_done", "telemetry.watchdog_check")
    for span in spans:
        assert totals[span]["calls"] > 0, span
    assert totals["backends.gemm.stratification"]["bytes"] > 0
    # PhaseProfiler deltas over the traced sweep() calls, and its totals
    assert set(PHASES) <= set(trace.profiler_seconds)
    assert set(PHASES) <= set(sim.profiler.seconds)

    # the counters of the traced pass
    assert cache.hits > before[0] and cache.misses > before[1]
    assert cache.batched_builds > before[2]
    assert sum(backend.op_counts.values()) > before[3]
    assert stats.proposed == engine.n * w.n_slices
    assert 0 < stats.accepted <= stats.proposed
    assert stats.singular_rejects == 0 and stats.sign in (1.0, -1.0)
    for category in ("stratification", "clustering", "wrapping", "delayed_update"):
        assert tally.flops[category] > 0, category
    merged = flops.FlopTally()
    merged.merge(tally)
    assert merged.flops == tally.flops

    # boundary_vs_profiler compares the boundary spans with these two
    # phases: one entry each per call, whatever the call has to rebuild
    phases = ("clustering", "stratification")
    calls = [sim.profiler.calls[p] for p in phases]
    for c in (engine.n_clusters - 1, 0):
        engine.boundary_greens(1, c)
        calls = [n + 1 for n in calls]
        assert [sim.profiler.calls[p] for p in phases] == calls

    assert sim.measure_sweeps(1).proposed == stats.proposed
    assert engine.policy.compute_dtype == (np.float32 if w.mixed else np.float64)
    l = workloads.CLUSTER_SIZE - 1
    direct = engine.greens_at_slice_direct(1, l)
    assert direct.shape == engine.greens_at_slice(1, l).shape == (engine.n,) * 2
    result = sim.result(n_warmup=1, n_measurement=2)
    assert abs(float(result.observables["density"].mean) - 1.0) < 1e-3
    docc = result.observables["double_occupancy"]
    assert np.isfinite([float(docc.mean), float(docc.error), sim._sign]).all()
    assert sim.total_stats.negative_ratios <= sim.total_stats.proposed
    if w.observed:
        save_checkpoint(tmp_path / "checkpoint.npz", sim)
        assert sim.watchdog.alerts == 0 and isinstance(sim.watchdog.reports, list)
        assert sim.telemetry.writer.seq > 0
    else:
        assert sim.watchdog is None and not sim.telemetry.enabled
    sim.telemetry.close()


def test_watchdog_check_span_has_no_linear_algebra_under_it(tmp_path):
    """A check judges what the sweeps recorded: on the observed shape the
    ``telemetry.watchdog_check`` span of a sweep that reports must have no
    Green's-function or backend span below it."""
    w = workloads.smoke(workloads.WORKLOADS["observed_8x8_b4"])
    sim = workloads.build_simulation(w, 11, workdir=tmp_path)
    every = sim.watchdog.config.check_every
    sim.warmup(every - 1)
    trace = tracer.Tracer()
    trace.install(sim)
    try:
        sim.measure_sweeps(1)
    finally:
        trace.uninstall()
    sim.telemetry.close()
    (report,) = sim.watchdog.reports
    assert report.healthy
    assert report.boundaries == every * (sim.engine.n_clusters - 1)

    spans = trace.spans
    checks = [i for i, s in enumerate(spans)
              if s[tracer.NAME] == "telemetry.watchdog_check"]
    assert len(checks) == 1
    below = [s[tracer.NAME] for s in spans if s[tracer.PARENT] in checks]
    assert below == []
    # and the sweep's own boundaries are the only fresh G's of the sweep
    boundary = [s for s in spans if s[tracer.NAME] == "core.greens.boundary"]
    assert len(boundary) == 2 * sim.engine.n_clusters
    parents = {spans[s[tracer.PARENT]][tracer.NAME] for s in boundary}
    assert parents == {"dqmc.sweep"}


def test_counts_leg_backends():
    w = workloads.smoke(workloads.WORKLOADS["metro_8x8_b4"])
    sim = workloads.build_simulation(w, 11, backend="gpu-sim")
    sim.warmup(1)
    device = sim.engine.device
    before = (device.elapsed, device.kernel_launches, device.h2d_bytes)
    sim.measure_sweeps(1)
    after = (device.elapsed, device.kernel_launches, device.h2d_bytes)
    assert all(a > b for a, b in zip(after, before))

    threaded = workloads.build_simulation(w, 11, backend="threaded")
    threaded.warmup(1)
    assert threaded.measure_sweeps(1).accepted > 0
    assert np.array_equal(threaded.field.h, sim.field.h)


def test_u0_engine_matches_the_closed_form():
    from repro import free_greens_function

    w = workloads.smoke(workloads.WORKLOADS["dense_16x16_b8"])
    sim = workloads.build_simulation(w, 11, u=0.0)
    exact = free_greens_function(sim.model.kinetic_matrix(), sim.model.beta)
    for sigma in (1, -1):
        err = np.max(np.abs(sim.engine.boundary_greens(sigma, 0) - exact))
        assert err <= workloads.U0_TOL["full64"]
