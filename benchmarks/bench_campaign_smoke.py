"""Smoke campaign for CI: 4 tiny jobs, one injected kill, kill + resume.

Exercises the campaign orchestrator's whole failure surface end to end
and publishes ``benchmarks/results/campaign_report.json`` as a CI
artifact:

1. **Faulted run** — a 2x2 (U x mu) grid under
   ``FaultPlan(kill_job=1, on_attempt=1)``: the killed worker must be
   retried (exactly one retry) and every job must end ``done``.
2. **Kill + resume** — the same spec launched via the real CLI in a
   subprocess, SIGKILL'd mid-campaign, then finished with
   ``repro campaign resume``: completed jobs must not re-run (run
   counters stay 1) and the catalog must match run 1's **bit-for-bit**.

Any violated invariant exits nonzero, failing the CI leg.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
SPEC = {
    "name": "ci-smoke",
    "base": {
        "nx": 2, "ny": 2, "dtau": 0.125, "l": 8, "north": 4,
        "nwarm": 2, "npass": 6,
    },
    "grid": {"u": [2.0, 4.0], "mu": [0.0, -0.25]},
    "replicas": 1,
    "base_seed": 11,
    "checkpoint_every": 2,
}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_catalog_arrays(campaign_dir: Path) -> dict:
    """Every observable array of every done job, keyed for comparison."""
    from repro.campaign import ResultsCatalog

    out = {}
    for record in ResultsCatalog.load(campaign_dir).records:
        if record.status != "done":
            fail(f"job {record.job_id} is {record.status}, expected done")
        for name, est in record.observables().items():
            out[f"{record.job_id}/{name}/mean"] = np.asarray(est.mean)
            out[f"{record.job_id}/{name}/error"] = np.asarray(est.error)
    return out


def run_faulted(campaign_dir: Path) -> dict:
    from repro.campaign import (
        CampaignSpec,
        FaultPlan,
        SchedulerConfig,
        run_campaign,
    )

    summary = run_campaign(
        CampaignSpec.from_dict(SPEC),
        campaign_dir,
        config=SchedulerConfig(
            max_workers=2,
            max_attempts=3,
            backoff_base=0.05,
            fault_plan=FaultPlan(kill_job=1, on_attempt=1, after_sweeps=2),
        ),
    )
    if not summary.all_done:
        fail(f"faulted run did not complete: {summary.counts}")
    if summary.retries != 1:
        fail(f"expected exactly one retry, saw {summary.retries}")
    print(f"faulted run ok: {summary.counts}, retries={summary.retries}")
    return load_catalog_arrays(campaign_dir)


def run_kill_resume(campaign_dir: Path, spec_path: Path) -> dict:
    """Launch the CLI, SIGKILL it once a job completes, then resume."""
    from repro.campaign import Manifest

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else "src"
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "run", str(spec_path),
            "--dir", str(campaign_dir), "--max-workers", "1", "--quiet",
        ],
        env=env,
        cwd=Path(__file__).parent.parent,
        start_new_session=True,  # so the kill takes the workers too
    )
    deadline = time.monotonic() + 120
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before we could kill it; resume is a no-op
            manifest_path = campaign_dir / "manifest.jsonl"
            if manifest_path.exists():
                done = sum(
                    1
                    for s in Manifest.load(campaign_dir).states.values()
                    if s.status == "done"
                )
                if done >= 1:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    print(f"killed campaign with {done} job(s) done")
                    break
            time.sleep(0.1)
        else:
            fail("campaign subprocess neither progressed nor finished")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    runs_before = {
        job_id: state.runs
        for job_id, state in Manifest.load(campaign_dir).states.items()
        if state.status == "done"
    }
    resume = subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign", "resume",
            str(campaign_dir), "--max-workers", "2",
        ],
        env=env,
        cwd=Path(__file__).parent.parent,
    )
    if resume.returncode != 0:
        fail(f"campaign resume exited {resume.returncode}")
    manifest = Manifest.load(campaign_dir)
    for job_id, runs in runs_before.items():
        after = manifest.states[job_id].runs
        if after != runs:
            fail(
                f"resume re-ran completed job {job_id}: "
                f"runs {runs} -> {after}"
            )
    print(f"kill+resume ok: {manifest.counts()}")
    return load_catalog_arrays(campaign_dir)


def main() -> int:
    workdir = RESULTS_DIR / "campaign_smoke"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(SPEC, indent=1))

    catalog_a = run_faulted(workdir / "faulted")
    catalog_b = run_kill_resume(workdir / "interrupted", spec_path)

    if sorted(catalog_a) != sorted(catalog_b):
        fail(
            "catalogs hold different keys: "
            f"{sorted(set(catalog_a) ^ set(catalog_b))[:6]}"
        )
    for key, value in catalog_a.items():
        if not np.array_equal(value, catalog_b[key]):
            fail(f"catalog mismatch at {key}")
    print(f"catalogs bit-identical across {len(catalog_a)} arrays")

    from repro.campaign import write_report_json

    report_path = RESULTS_DIR / "campaign_report.json"
    report = write_report_json(workdir / "interrupted", report_path)
    print(
        f"report -> {report_path} "
        f"({report['counts']}, {report['total_retries']} retries)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
