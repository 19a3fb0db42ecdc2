"""End-to-end DQMC sweep benchmark: the driver.

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (the BENCHMARK.json contract). ``--trace 0``
    reports the end-to-end metrics with tracing off, ``--trace 1`` the
    per-layer metrics from the traced pass. The last line of stdout is one
    JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``run.py [--seed N] [--seconds S] [--repeats R] [--out FILE] [--smoke]``
    Every workload: R timed runs plus one per-layer run each, every metric
    printed by name with its unit and sample count, the correctness checks,
    ``results/latest.json`` and one line appended to
    ``results/trajectory.jsonl``.

The driver, not the caller's shell, fixes each child's environment: one
BLAS thread (with two, 16x16 sweeps run ~3x *slower* on a two-core box and
the numbers measure the scheduler), no ambient ``REPRO_*`` overrides.
Exit status is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
CLEARED_ENV = (
    "REPRO_BACKEND", "REPRO_PRECISION", "REPRO_KINETIC", "REPRO_TUNE_CACHE",
    "REPRO_CONTRACTS",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_NUM_THREADS=str(min(2, os.cpu_count() or 1)),
    )
    return env


def pins(env: dict) -> dict:
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "REPRO_NUM_THREADS")
    return {**{k: env[k] for k in names}, "cleared": list(CLEARED_ENV)}


def launch(env: dict, workdir: Path, *child_args: str) -> dict:
    """Run one child to completion and parse the last line it printed."""
    cmd = [
        sys.executable, str(HERE / "child.py"), *child_args,
        "--workdir", str(workdir), "--t0", repr(time.monotonic()),
    ]
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(out: dict) -> list:
    """Apply the limits of workloads.py to the raw values a child reported."""
    precision = out["precision"]
    raw = out["checks"]
    checks = []

    def check(name, ok, value, limit):
        checks.append({"name": name, "ok": bool(ok), "value": value, "limit": limit})

    tol = wl.DENSITY_TOL[precision]
    check("density", abs(raw["density"] - 1.0) <= tol, raw["density"], tol)
    limit = wl.NEGATIVE_SHARE[precision]
    check("negative_ratios", raw["negative_share"] <= limit,
          raw["negative_share"], limit)
    check("observables_finite", raw["observables_finite"],
          raw["observables_finite"], True)
    ceiling = wl.G_REL_ERR_CEILING[precision]
    if out["lx"] < wl.FULL_SIZE_MIN_LX:
        ceiling *= wl.SMOKE_G_SLACK
    check("g_rel_err", raw["g_rel_err"] <= ceiling, raw["g_rel_err"], ceiling)
    if raw["u0_err"] is not None:
        tol = wl.U0_TOL[precision]
        check("u0_greens", raw["u0_err"] <= tol, raw["u0_err"], tol)
    threads = raw["blas"]["threads"]
    check("blas_threads", threads is None or threads <= 1, threads, 1)
    if "chain_matches_plain" in raw:
        check("chain_matches_plain", raw["chain_matches_plain"],
              raw["chain_matches_plain"], True)
    trace = out.get("trace_checks")
    if trace is not None:
        check("trace_self_sum", trace["self_sum_residual"] <= 1e-9,
              trace["self_sum_residual"], 1e-9)
        check("greens_share_vs_profiler",
              abs(trace["greens_share_diff_points"]) <= wl.GF_SHARE_POINTS,
              trace["greens_share_diff_points"], wl.GF_SHARE_POINTS)
        if out["lx"] >= wl.FULL_SIZE_MIN_LX:
            for name in ("boundary_vs_profiler", "site_loop_vs_profiler"):
                check(name, abs(trace[name]) <= wl.PROFILER_AGREEMENT,
                      trace[name], wl.PROFILER_AGREEMENT)
        if out["lx"] >= wl.TRACE_OVERHEAD_MIN_LX:
            floor = trace["overhead_floor_pct"]
            check("trace_overhead", floor <= wl.TRACE_OVERHEAD_PCT,
                  floor, wl.TRACE_OVERHEAD_PCT)
    return checks


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run of one workload: set-up probes (timed pass only), the
    measuring child, and the verdict on its checks."""
    probes = 0 if trace else (1 if smoke else SETUP_PROBES)
    env = pinned_env()
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base))
    common = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        common.append("--smoke")
    try:
        setups = [
            launch(env, workdir, *common, "--probe")
            for _ in range(probes)
        ]
        out = launch(env, workdir, *common, "--seconds", repr(seconds),
                     "--trace", str(trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = out["metrics"]
    if trace:
        # one fresh launch, its own split; the timed pass holds the median
        metrics["dqmc.setup.import_s"] = out["setup"]["import_s"]
        metrics["dqmc.setup.construct_s"] = out["setup"]["construct_s"]
    else:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    out["checks"] = judge(out)
    out["pins"] = pins(env)
    bad = [c for c in out["checks"] if not c["ok"]]
    out["attempted"] = out["samples"] + len(out["checks"])
    out["failed"] = out["failed_ops"] + len(bad)
    out["correct"] = not bad
    return out


def declared(spec: dict, trace: int) -> list:
    return spec["per_layer" if trace else "end_to_end"]


def contract_result(spec: dict, out: dict, trace: int) -> dict:
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared(spec, trace)
        },
    }


def print_run(spec: dict, workload: str, out: dict, trace: int) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end (tracing off)"
    tail = "" if trace else f", tail = p{out['tail_percentile']}"
    print(f"== {workload}: {kind}, {out['samples']} sweeps{tail}")
    for m in declared(spec, trace):
        print(f"  {m['name']:<38} {out['metrics'][m['name']]:>16.6g} {m['unit']}")
    print(f"  {'failed_ops_ratio':<38} "
          f"{out['failed'] / out['attempted']:>16.6g} 1"
          f"   ({out['failed']} of {out['attempted']})")
    if not trace:
        raw = out["raw"]
        print(f"  unscaled wall: sweep_ms_p50 {raw['sweep_ms_p50']:.6g} ms, "
              f"sweeps_per_s {raw['sweeps_per_s']:.6g} 1/s, "
              f"speed probe {raw['probe_ms_p50']:.4g} ms (nominal 2 ms)")
    if trace:
        t = out["table1"]
        print(f"  Table-I from spans: site loop {t['site_loop_pct']:.1f}%, "
              f"Green's function {t['greens_pct']:.1f}% "
              f"(PhaseProfiler {t['profiler_greens_pct']:.1f}%), "
              f"measurements {t['measure_pct']:.1f}%")
    for c in out["checks"]:
        verdict = "ok  " if c["ok"] else "FAIL"
        print(f"  check {verdict} {c['name']:<26} {c['value']!r} (limit {c['limit']!r})")


def git_revision() -> str:
    """HEAD, with ``+dirty`` when the tree differs from it; ``unknown``
    outside a git checkout."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        )

    try:
        rev, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if rev.returncode != 0:
        return "unknown"
    return rev.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def run_all(spec: dict, args) -> int:
    names = [w["name"] for w in spec["workloads"]]
    report = {
        "provenance": {
            "git": git_revision(),
            "time_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "host": platform.node(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "repeats": args.repeats,
            "smoke": args.smoke,
        },
        "workloads": {},
    }
    ok = True
    for name in names:
        timed = [
            run_one(name, args.seed, args.seconds, 0, args.smoke)
            for _ in range(args.repeats)
        ]
        traced = run_one(name, args.seed, args.seconds, 1, args.smoke)
        for out in timed:
            print_run(spec, name, out, 0)
        print_run(spec, name, traced, 1)
        ok = ok and traced["correct"] and all(o["correct"] for o in timed)
        w = wl.smoke(wl.WORKLOADS[name]) if args.smoke else wl.WORKLOADS[name]
        report["workloads"][name] = {
            "sweeps": {
                "warm": w.warm, "timed": [o["samples"] for o in timed],
                "traced": w.traced, "untraced": w.untraced,
            },
            "tail_percentile": [o["tail_percentile"] for o in timed],
            "end_to_end": {
                m["name"]: {
                    "unit": m["unit"],
                    "runs": [o["metrics"][m["name"]] for o in timed],
                }
                for m in spec["end_to_end"]
            },
            "failed_ops_ratio": [o["failed"] / o["attempted"] for o in timed],
            "raw": [o["raw"] for o in timed],
            "per_layer": {
                m["name"]: {"unit": m["unit"], "value": traced["metrics"][m["name"]]}
                for m in spec["per_layer"]
            },
            "exact": {**traced["exact"], "g_rel_err": timed[0]["exact"]["g_rel_err"]},
            "table1": traced["table1"],
            "checks": {"timed": [o["checks"] for o in timed],
                       "traced": traced["checks"]},
            "env": {**traced["env"], "pins": traced["pins"]},
        }
    out_path = args.out or RESULTS / ("smoke.json" if args.smoke else "latest.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}")
    if not args.smoke:
        row = {
            **report["provenance"],
            "medians": {
                name: {
                    metric: statistics.median(cell["runs"])
                    for metric, cell in entry["end_to_end"].items()
                }
                for name, entry in report["workloads"].items()
            },
        }
        with open(RESULTS / "trajectory.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no src/repro under {ROOT}: nothing to benchmark")
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed runs per workload when running all of them")
    parser.add_argument("--out", type=Path,
                        help="result file (default results/latest.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="4x4 beta=2 shapes and one-second runs: the self-test")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
        args.repeats = 1

    if args.workload is None:
        return run_all(spec, args)
    out = run_one(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print_run(spec, args.workload, out, args.trace)
    print(json.dumps(contract_result(spec, out, args.trace)))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
