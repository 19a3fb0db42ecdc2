"""Tier-1 guard for everything the end-to-end benchmark calls.

``benchmarks/e2e`` builds every workload through
``workloads.build_simulation`` (the production switches of ``observed``,
``kinetic="checkerboard"``, ``precision="mixed"``, the gpu-sim and
threaded backends of its counts leg) and wraps engine, cache and backend
methods by name in ``tracer.install``. Tier-1 collects ``tests/`` only,
so a refactor that deletes or renames any of them passes every unit test
and kills the benchmark. This file imports the harness's own modules the
way its driver does, with ``benchmarks/e2e`` on ``sys.path`` (read only),
and drives each workload at its 4x4 smoke shape on every backend the
harness uses.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: engine attributes ``tracer.install`` shadows on the instance
ENGINE_WRAPPED = (
    "boundary_greens", "wrap_pair", "unwrap_pair", "wrap", "unwrap",
)


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(E2E))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(E2E))
    yield tracer, workloads
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("backend", ["numpy", "gpu-sim", "threaded"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_harness_builds_traces_and_sweeps(harness, name, backend, tmp_path):
    """``build_simulation`` as the timed / traced passes call it (numpy,
    with a workdir: the production switches on) and as the counts leg
    does (gpu-sim and threaded, no workdir); ``Tracer.install`` wraps
    every method it names; a warm-up sweep and two measurement sweeps
    (both directions) run under it; ``uninstall`` leaves nothing behind."""
    tracer, workloads = harness
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
