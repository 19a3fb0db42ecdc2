"""One workload run, inside the environment the driver pinned.

Closed loop, one client: sweeps are issued back to back through
``Simulation.warmup`` / ``Simulation.measure_sweeps(1)``. Three modes:

``--probe``   import + construct only; reports the split of ``setup_s``.
``--trace 0`` timed pass: tracing off, sweeps until ``--seconds`` elapse.
``--trace 1`` per-layer pass: a fixed number of traced sweeps interleaved
              with untraced ones (their ratio is the tracing overhead),
              then a counts leg on the gpu-sim and threaded backends.

The last line of stdout is one JSON object; the driver judges it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: share of a sweep's duration spent on the speed probe that follows it
PROBE_SHARE = 0.02
#: sweeps of the plain reference chain an observed run is compared against
REFERENCE_SWEEPS = 20
SPINS = (1, -1)


def blas_info() -> dict:
    """Thread count and build string of every OpenBLAS this process loaded
    (numpy and scipy each ship one); ``threads`` is None without OpenBLAS."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            m = re.search(r"(/\S*openblas\S*\.so\S*)", line)
            if m:
                libs.add(m.group(1))
    threads, configs = [], []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_threads is None:
                continue
            threads.append(int(get_threads()))
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            get_config.restype = ctypes.c_char_p
            configs.append(get_config().decode())
            break
    return {"threads": max(threads) if threads else None, "config": configs}


def summarize_sweeps(times: list) -> dict:
    """Median and tail of the sweep times. The tail is the highest
    percentile with at least ten samples beyond it, and the median when
    there are too few samples for that."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(n - 11, n // 2)
    return {
        "sweep_ms_p50": 1e3 * statistics.median(ordered),
        "sweep_ms_tail": 1e3 * ordered[idx],
        "tail_percentile": 50 if idx == n // 2 else (100 * (n - 10)) // n,
    }


class SpeedProbe:
    """A fixed kernel timed next to every sweep, to cancel machine drift.

    The speed of a shared two-core VM wanders by 10-20% over tens of
    seconds (memory-bound code most: fresh processes on one commit gave
    raw sweep medians of 58.4-67.7 ms). Eight 192x192 DGEMMs (~2 ms)
    follow that wander closely, so each sweep time is scaled by
    ``NOMINAL_S / probe time``: the reported milliseconds are those of a
    machine on which the probe takes exactly ``NOMINAL_S``. Medians of
    scaled sweeps agree to ~2% across processes where raw ones do not.
    """

    NOMINAL_S = 2.0e-3

    def __init__(self, seed: int) -> None:
        import numpy as np

        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        self._a = rng.standard_normal((192, 192))
        self()  # first call pays for BLAS thread-pool and page set-up

    def __call__(self, budget_s: float = 0.0) -> float:
        """Median probe time over as many timings as fit in ``budget_s``
        (at least one): a single 2 ms timing is itself +-5% noisy, and a
        long sweep can afford a steadier one."""
        a = self._a
        timings = []
        deadline = time.perf_counter() + budget_s
        while True:
            t0 = time.perf_counter()
            for _ in range(8):
                a @ a
            t1 = time.perf_counter()
            timings.append(t1 - t0)
            if t1 >= deadline:
                return statistics.median(timings)


def run_sweep(sim, w, workdir, done: int, tracer=None):
    """One measurement sweep plus, on an observed workload, the periodic
    checkpoint that follows it. Returns (seconds, SweepStats or None,
    checkpoint bytes)."""
    import numpy as np
    from repro.dqmc.checkpoint import save_checkpoint

    ckpt_bytes = 0
    t0 = time.perf_counter()
    try:
        stats = sim.measure_sweeps(1)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"sweep {done} raised {exc!r}", file=sys.stderr)
        return time.perf_counter() - t0, None, 0
    if w.observed and (done + 1) % w.checkpoint_every == 0:
        path = workdir / "checkpoint.npz"
        if tracer is None:
            save_checkpoint(path, sim)
        else:
            with tracer.span("dqmc.checkpoint.save"):
                save_checkpoint(path, sim)
        ckpt_bytes = path.stat().st_size
    return time.perf_counter() - t0, stats, ckpt_bytes


def greens_agreement(w, model, field_h):
    """Pipeline G against the slice-by-slice full64 reference on one field.

    ``engine.greens_at_slice`` under the workload's options versus
    ``greens_at_slice_direct`` of a full64 engine with the same kinetic
    mode, at the last slice of the first and of the middle cluster, both
    spins. Returns (worst relative error, mean agreement in digits).
    """
    import numpy as np
    from repro.core import GreensFunctionEngine
    from repro.hamiltonian import BMatrixFactory, HSField
    from workloads import CLUSTER_SIZE

    def engine(precision):
        return GreensFunctionEngine(
            BMatrixFactory(model, kinetic=w.kinetic),
            HSField(field_h.copy()),
            method="prepivot",
            cluster_size=CLUSTER_SIZE,
            backend="numpy",
            precision=precision,
        )

    reference = engine("full64")
    pipeline = engine(w.precision) if w.mixed else reference
    n_clusters = reference.n_clusters
    errors = []
    for cluster in sorted({0, n_clusters // 2}):
        l = (cluster + 1) * CLUSTER_SIZE - 1
        for sigma in SPINS:
            g = np.asarray(pipeline.greens_at_slice(sigma, l), dtype=np.float64)
            ref = reference.greens_at_slice_direct(sigma, l)
            errors.append(float(np.linalg.norm(g - ref) / np.linalg.norm(ref)))
    digits = -statistics.fmean(np.log10(errors))
    return max(errors), float(digits)


def free_greens_error(w, seed):
    """U=0 engine against the closed form (None under checkerboard, whose
    propagator carries a Trotter term the closed form does not)."""
    import numpy as np
    from repro import free_greens_function
    from workloads import build_simulation

    if w.kinetic != "exact":
        return None
    sim = build_simulation(w, seed, u=0.0)
    exact = free_greens_function(sim.model.kinetic_matrix(), sim.model.beta)
    return max(
        float(np.max(np.abs(sim.engine.boundary_greens(sigma, 0) - exact)))
        for sigma in SPINS
    )


def reference_chain(w, seed, n_sweeps: int):
    """The plain chain an observed run must reproduce: same model and
    seed, production switches off. Returns (warm-up accepted, per-sweep
    (accepted, sign), median sweep ms)."""
    from workloads import build_simulation

    sim = build_simulation(w, seed)
    warm = sim.warmup(w.warm)
    chain, times = [], []
    for _ in range(n_sweeps):
        t0 = time.perf_counter()
        st = sim.measure_sweeps(1)
        times.append(time.perf_counter() - t0)
        chain.append([st.accepted, st.sign])
    return warm.accepted, chain, 1e3 * statistics.median(times)


def gemm_peak_gflops(n: int, dtype, seed: int) -> float:
    """Best N x N GEMM rate of this process, measured for ~0.3 s."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    best = float("inf")
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def counts_leg(w, seed) -> dict:
    """Model counts under gpu-sim, wall under threaded, per sweep.

    gpu-sim seconds are the simulated device's virtual clock: exact
    counts of a performance model, not wall time.
    """
    from workloads import build_simulation

    # one cold sweep fills the cluster cache, the second one is counted
    sim = build_simulation(w, seed, backend="gpu-sim")
    sim.warmup(1)
    device = sim.engine.device
    before = (device.elapsed, device.kernel_launches, device.h2d_bytes)
    sim.measure_sweeps(1)
    after = (device.elapsed, device.kernel_launches, device.h2d_bytes)
    model_s, launches, h2d = (a - b for a, b in zip(after, before))

    sim = build_simulation(w, seed, backend="threaded")
    sim.warmup(1)
    t0 = time.perf_counter()
    sim.measure_sweeps(1)
    return {
        "backends.gpu_sim.model_s": model_s,
        "backends.gpu_sim.kernel_launches": float(launches),
        "backends.gpu_sim.h2d_bytes": float(h2d),
        "backends.threaded.sweep_ms": 1e3 * (time.perf_counter() - t0),
    }


def health_alerts(sim) -> int:
    return sim.watchdog.alerts if sim.watchdog is not None else 0


def finish(sim, w, seed, field_h, chain, warm_accepted) -> dict:
    """What both passes report after their stage: the raw values of the
    correctness checks (the driver judges them), the double-occupancy
    estimate, the Green's-function agreement, and on an observed workload
    the median sweep time of the plain reference chain."""
    import math

    n = len(chain)
    result = sim.result(n_warmup=w.warm, n_measurement=n)
    density = float(result.observables["density"].mean)
    docc = result.observables["double_occupancy"]
    g_rel_err, g_digits = greens_agreement(w, sim.model, field_h)
    checks = {
        "density": density,
        "negative_share": sim.total_stats.negative_ratios
        / sim.total_stats.proposed,
        "observables_finite": all(
            math.isfinite(v) for v in (density, float(docc.mean), sim._sign)
        ),
        "g_rel_err": g_rel_err,
        "u0_err": free_greens_error(w, seed),
        "blas": blas_info(),
    }
    plain_ms = None
    if w.observed:
        k = min(n, REFERENCE_SWEEPS)
        ref_warm, ref_chain, plain_ms = reference_chain(w, seed, k)
        checks["chain_matches_plain"] = (
            ref_warm == warm_accepted and ref_chain == chain[:k]
        )
    return {
        "checks": checks,
        "g_rel_err": g_rel_err,
        "g_agree_digits": g_digits,
        "docc_mean": float(docc.mean),
        "docc_stderr": float(docc.error),
        "plain_sweep_ms_p50": plain_ms,
    }


def timed_pass(sim, w, seed, seconds: float, workdir) -> dict:
    warm = sim.warmup(w.warm)
    field_h = sim.field.h.copy()
    alerts0 = health_alerts(sim)
    probe = SpeedProbe(seed)
    times, raw_times, probes, chain = [], [], [probe()], []
    raised = singular = 0
    stage0 = time.perf_counter()
    while True:
        dt, stats, _ = run_sweep(sim, w, workdir, len(times))
        if stats is None:
            raised += 1
            break
        probes.append(probe(PROBE_SHARE * dt))
        # the probe before and the probe after bracket the sweep
        speed = SpeedProbe.NOMINAL_S / (0.5 * (probes[-2] + probes[-1]))
        times.append(dt * speed)
        raw_times.append(dt)
        chain.append([stats.accepted, stats.sign])
        singular += stats.singular_rejects
        if time.perf_counter() - stage0 >= seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    alerts = health_alerts(sim) - alerts0

    summary = summarize_sweeps(times)
    end = finish(sim, w, seed, field_h, chain, warm.accepted)
    return {
        "metrics": {
            "sweep_ms_p50": summary["sweep_ms_p50"],
            "sweep_ms_tail": summary["sweep_ms_tail"],
            "sweeps_per_s": len(times) / sum(times),
            "peak_rss_mb": rss_mb,
            "g_agree_digits": end["g_agree_digits"],
        },
        "exact": {"g_rel_err": end["g_rel_err"]},
        "samples": len(times),
        "tail_percentile": summary["tail_percentile"],
        "failed_ops": raised + singular + alerts,
        "raw": {
            "sweep_ms_p50": 1e3 * statistics.median(raw_times),
            "sweeps_per_s": len(raw_times) / sum(raw_times),
            "probe_ms_p50": 1e3 * statistics.median(probes),
        },
        "checks": end["checks"],
    }


def traced_pass(sim, w, seed, workdir, trace_path: Path) -> dict:
    from repro.linalg import flops
    from tracer import Tracer

    warm = sim.warmup(w.warm)
    field_h = sim.field.h.copy()
    engine, cache, backend = sim.engine, sim.engine.cache, sim.engine.backend
    alerts0 = health_alerts(sim)
    if w.observed:
        archive = workdir / "run.jsonl"
        writer = sim.telemetry.writer  # close() drops the reference
        events0, archive0 = writer.seq, archive.stat().st_size
        reports0 = len(sim.watchdog.reports)

    tracer = Tracer()
    tally = flops.FlopTally()
    traced_times, plain_times, chain = [], [], []
    proposals = accepted = singular = 0
    hits = misses = builds = dispatch = 0
    ckpt_bytes = ckpt_saves = 0
    total = w.traced + w.untraced
    for i in range(total):
        # untraced sweeps spread evenly among the traced ones
        plain = (i * w.untraced) // total != ((i + 1) * w.untraced) // total
        if plain:
            dt, stats, nbytes = run_sweep(sim, w, workdir, i)
            plain_times.append(dt)
        else:
            before = (cache.hits, cache.misses, cache.batched_builds,
                      sum(backend.op_counts.values()))
            tracer.sweep_id = len(traced_times)
            tracer.install(sim)
            try:
                with flops.tally() as sweep_tally:
                    with tracer.span("dqmc.measure_sweep"):
                        dt, stats, nbytes = run_sweep(sim, w, workdir, i, tracer)
            finally:
                tracer.uninstall()
            tally.merge(sweep_tally)
            traced_times.append(dt)
            hits += cache.hits - before[0]
            misses += cache.misses - before[1]
            builds += cache.batched_builds - before[2]
            dispatch += sum(backend.op_counts.values()) - before[3]
        if stats is None:
            raise RuntimeError("a sweep raised during the per-layer pass")
        if not plain:
            proposals += stats.proposed
            accepted += stats.accepted
        singular += stats.singular_rejects
        chain.append([stats.accepted, stats.sign])
        if nbytes:
            ckpt_bytes += nbytes
            ckpt_saves += 1

    n = w.traced
    totals = tracer.totals()

    def per_sweep(name, key="s"):
        return totals[name][key] / n

    backend_rows = {k: v for k, v in totals.items() if k.startswith("backends.")}
    traced_ms = 1e3 * statistics.median(traced_times)
    plain_ms = 1e3 * statistics.median(plain_times)
    sweep_wall = sum(traced_times) / n
    gflop = {k: v / n / 1e9 for k, v in tally.flops.items()}
    total_gflop = sum(gflop.values())
    peak = gemm_peak_gflops(engine.n, engine.policy.compute_dtype, seed)
    ckpt = totals["dqmc.checkpoint.save"]

    metrics = {
        "dqmc.sweep.self_s": per_sweep("dqmc.sweep", "self_s"),
        "dqmc.sweep.proposals": proposals / n,
        "dqmc.sweep.accept_ratio": accepted / proposals,
        "dqmc.sweep.singular_rejects": singular / total,
        "core.delayed_update.flush_gemm_s": per_sweep("backends.gemm.delayed_update"),
        "core.delayed_update.flush_calls": per_sweep("backends.gemm.delayed_update", "calls"),
        "core.greens.boundary_s": per_sweep("core.greens.boundary"),
        "core.greens.boundary_calls": per_sweep("core.greens.boundary", "calls"),
        "core.stratification.self_s": per_sweep("core.greens.boundary", "self_s"),
        "core.recycling.get_s": per_sweep("core.recycling.get"),
        "core.recycling.hit_ratio": hits / (hits + misses),
        "core.recycling.builds": builds / n,
        "core.greens.wrap_s": per_sweep("core.greens.wrap"),
        "core.greens.wrap_calls": per_sweep("core.greens.wrap", "calls"),
        "backends.gemm.stratification_s": per_sweep("backends.gemm.stratification"),
        "backends.gemm.calls": sum(
            row["calls"] for k, row in backend_rows.items()
            if k.startswith("backends.gemm.")
        ) / n,
        "backends.cluster_product_s": per_sweep("backends.cluster_product"),
        "backends.wrap_s": per_sweep("backends.wrap"),
        "backends.scale_s": per_sweep("backends.scale"),
        "backends.prepivot_s": per_sweep("backends.prepivot"),
        "backends.structured_s": per_sweep("backends.structured"),
        "backends.dispatch_calls": dispatch / n,
        "backends.bytes.computed_gb": sum(
            row["bytes"] for row in backend_rows.values()
        ) / n / 1e9,
        "linalg.flops.total_gflop": total_gflop,
        # the QR chain, its norm pass and the final stable solve are
        # stratification work booked under their own ledger categories
        "linalg.flops.stratification_gflop": sum(
            gflop.get(k, 0.0)
            for k in ("stratification", "qr", "qrp", "norms", "stable_inverse")
        ),
        "linalg.flops.clustering_gflop": gflop.get("clustering", 0.0),
        "linalg.flops.wrapping_gflop": gflop.get("wrapping", 0.0),
        "linalg.flops.delayed_update_gflop": gflop.get("delayed_update", 0.0),
        "linalg.achieved_gflops": total_gflop / sweep_wall,
        "linalg.gemm_peak_gflops": peak,
        "linalg.fraction_of_peak": total_gflop / sweep_wall / peak,
        "measure.collector.measure_s": per_sweep("measure.collector.measure"),
        "measure.collector.calls": per_sweep("measure.collector.measure", "calls"),
        # what is left of measure_sweeps(1) outside the sweep, telemetry,
        # watchdog and checkpoint: the dynamic measurement
        "measure.dynamic_s": per_sweep("dqmc.measure_sweep", "self_s"),
        "telemetry.sweep_done_s": per_sweep("telemetry.sweep_done"),
        "telemetry.watchdog_check_s": per_sweep("telemetry.watchdog_check"),
        "telemetry.events": 0.0,
        "telemetry.bytes_written": 0.0,
        "telemetry.watchdog_checks": 0.0,
        "dqmc.checkpoint.save_s": ckpt["s"] / ckpt["calls"] if ckpt["calls"] else 0.0,
        "dqmc.checkpoint.bytes": ckpt_bytes / ckpt_saves if ckpt_saves else 0.0,
        "trace.overhead_pct": 100.0 * (traced_ms / plain_ms - 1.0),
    }
    if w.observed:
        sim.telemetry.close()  # final snapshot + flush, so the size is final
        metrics["telemetry.events"] = (writer.seq - events0) / total
        metrics["telemetry.bytes_written"] = (
            archive.stat().st_size - archive0
        ) / total
        metrics["telemetry.watchdog_checks"] = (
            len(sim.watchdog.reports) - reports0
        ) / total
    metrics.update(counts_leg(w, seed))

    # Self-consistency against the package's own PhaseProfiler over the
    # same traced sweep() calls (warm-up and untraced sweeps on neither
    # side): boundary spans = stratification + clustering, and sweep self
    # time + flush GEMMs = the delayed_update phase.
    prof = tracer.profiler_seconds
    root_s = totals["dqmc.measure_sweep"]["s"]
    sweep_s = totals["dqmc.sweep"]["s"]
    boundary = totals["core.greens.boundary"]["under_sweep_s"]
    wrap = totals["core.greens.wrap"]["under_sweep_s"]
    site_loop = (
        totals["dqmc.sweep"]["self_s"]
        + totals["backends.gemm.delayed_update"]["under_sweep_s"]
    )
    prof_greens = prof["stratification"] + prof["clustering"] + prof["wrapping"]
    table = {
        "site_loop_pct": 100.0 * site_loop / sweep_s,
        "greens_pct": 100.0 * (boundary + wrap) / sweep_s,
        "measure_pct": 100.0
        * totals["measure.collector.measure"]["under_sweep_s"] / sweep_s,
        "profiler_greens_pct": 100.0 * prof_greens / sum(prof.values()),
    }
    exact_names = ("dqmc.sweep.proposals", "dqmc.sweep.accept_ratio",
                   "backends.dispatch_calls", "backends.bytes.computed_gb",
                   "stats.docc_stderr")
    end = finish(sim, w, seed, field_h, chain, warm.accepted)
    rel = end["docc_stderr"] / (0.01 * end["docc_mean"])
    metrics["stats.docc_stderr"] = end["docc_stderr"]
    metrics["stats.s_to_1pct_docc"] = (
        (sum(traced_times) + sum(plain_times)) * rel * rel
    )
    metrics["observed.overhead_pct"] = (
        100.0 * (plain_ms / end["plain_sweep_ms_p50"] - 1.0) if w.observed else 0.0
    )

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.as_json(), fh)
    return {
        "metrics": metrics,
        "exact": {
            k: v for k, v in metrics.items()
            if k in exact_names
            or k.startswith(("linalg.flops.", "backends.gpu_sim."))
        },
        "samples": n,
        "failed_ops": singular + health_alerts(sim) - alerts0,
        "checks": end["checks"],
        "table1": table,
        "trace_checks": {
            "self_sum_residual": abs(
                sum(row["self_s"] for row in totals.values()) - root_s
            ) / root_s,
            "boundary_vs_profiler": boundary
            / (prof["stratification"] + prof["clustering"]) - 1.0,
            "site_loop_vs_profiler": site_loop / prof["delayed_update"] - 1.0,
            "greens_share_diff_points": table["greens_pct"]
            - table["profiler_greens_pct"],
            # Few sweeps fit at 16x16, so the median ratio above carries a
            # few percent of noise; the gate asks for separation instead:
            # the fastest traced sweep against the slowest untraced one.
            "overhead_floor_pct": 100.0
            * (min(traced_times) / max(plain_times) - 1.0),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the driver just before launch")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    import repro  # timed: the import is part of set-up

    import_s = time.perf_counter() - t_import
    import numpy
    import scipy

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"imported repro from {repro.__file__}, not this checkout")
    from workloads import WORKLOADS, build_simulation, smoke

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    t_construct = time.perf_counter()
    sim = build_simulation(w, args.seed, workdir=args.workdir)
    construct_s = time.perf_counter() - t_construct
    setup = {
        "setup_s": time.monotonic() - args.t0,
        "import_s": import_s,
        "construct_s": construct_s,
    }
    if args.probe:
        print(json.dumps(setup))
        return 0

    if args.trace:
        suffix = "-smoke" if args.smoke else ""
        trace_path = HERE / "results" / f"trace-{w.name}{suffix}.json"
        out = traced_pass(sim, w, args.seed, args.workdir, trace_path)
    else:
        out = timed_pass(sim, w, args.seed, args.seconds, args.workdir)
    sim.telemetry.close()
    out["setup"] = setup
    out["lx"] = w.lx
    out["precision"] = w.precision
    out["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": out["checks"]["blas"]["config"],
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
