"""Fault-tolerant job scheduling: process workers, retries, timeouts.

Two layers live here:

**The worker layer** — :func:`run_subprocess_task` / :func:`run_tasks`
— runs one picklable ``fn(payload)`` either inline on a thread
(``executor="thread"``) or in a fresh child process executing
:mod:`repro.campaign.child` (``executor="process"``). The process path
is deliberately one process per task rather than a shared
``ProcessPoolExecutor``: a SIGKILL'd or segfaulting worker breaks a
shared pool (``BrokenProcessPool`` fails every queued future), whereas
here it is an isolated, retryable event on exactly one task. Plain
subprocesses also dodge ``multiprocessing`` spawn's re-execution of the
parent's ``__main__`` (which breaks REPL / unguarded-script callers).
Payload and result cross the boundary as pickle files; a wall-time
``timeout`` escalates to ``SIGKILL``. :func:`repro.dqmc.run_ensemble`
rides this same layer for its ``executor="process"`` mode.

**The campaign layer** — :class:`CampaignScheduler` — drives a
:class:`~repro.campaign.manifest.Manifest` to completion: up to
``max_workers`` jobs in flight, each attempt recorded in the journal
before it starts, crashes/timeouts retried with exponential backoff up
to ``max_attempts``, exhausted jobs marked ``failed`` without stopping
the rest of the campaign. ``campaign.*`` gauges and events stream
through the shared :class:`~repro.telemetry.Telemetry` facade, and an
injectable :class:`~repro.campaign.worker.FaultPlan` makes every
recovery path deterministically testable.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..telemetry import Telemetry, ensure_telemetry
from .manifest import Manifest
from .worker import FaultPlan, WorkerCrash, run_campaign_job

__all__ = [
    "CampaignScheduler",
    "SchedulerConfig",
    "WorkerTimeout",
    "run_subprocess_task",
    "run_tasks",
]


class WorkerTimeout(WorkerCrash):
    """A worker exceeded the wall-time budget and was killed."""


# ---------------------------------------------------------------------------
# worker layer
# ---------------------------------------------------------------------------


def _worker_env() -> dict:
    """Child environment with the parent's import paths preserved (the
    parent may run from ``PYTHONPATH=src`` or a pytest-augmented path)."""
    env = dict(os.environ)
    paths = [p for p in sys.path if p]
    if paths:
        env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_subprocess_task(
    fn: Callable[[dict], object],
    payload: dict,
    timeout: Optional[float] = None,
):
    """Run ``fn(payload)`` in an isolated child process; return its result.

    The child executes :mod:`repro.campaign.child`; payload and result
    travel as pickle files in a private temp directory. Raises
    :class:`WorkerTimeout` (child killed) past ``timeout`` seconds,
    :class:`WorkerCrash` if the child died without reporting (segfault,
    OOM kill, injected SIGKILL), and ``RuntimeError`` if the child
    raised. ``fn`` must be an importable module-level function and
    ``payload`` picklable — both cross the process boundary.
    """
    target = f"{fn.__module__}:{fn.__qualname__}"
    workdir = Path(tempfile.mkdtemp(prefix="repro-worker-"))
    payload_path = workdir / "payload.pkl"
    result_path = workdir / "result.pkl"
    try:
        with open(payload_path, "wb") as fh:  # qmclint: disable=QL103 -- transient IPC scratch in a private tempdir, not a durability promise
            pickle.dump(payload, fh)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaign.child",
                target, str(payload_path), str(result_path),
            ],
            env=_worker_env(),
        )
        try:
            exitcode = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerTimeout(
                f"worker exceeded {timeout:g}s wall-time budget"
            )
        if exitcode == 0:
            if not result_path.exists():
                raise WorkerCrash("worker exited 0 without writing a result")
            with open(result_path, "rb") as fh:
                status, value = pickle.load(fh)
            return value
        if exitcode == 1 and result_path.exists():
            with open(result_path, "rb") as fh:
                status, value = pickle.load(fh)
            if status == "error":
                raise RuntimeError(f"worker failed: {value}")
        raise WorkerCrash(
            f"worker died with exit code {exitcode} before reporting"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_tasks(
    fn: Callable[[dict], object],
    payloads: Sequence[dict],
    *,
    executor: str = "process",
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
) -> List[object]:
    """Run ``fn`` over ``payloads`` concurrently; results in order.

    ``executor="thread"`` runs each task inline on a thread (cheap, no
    isolation — correct when the work is GIL-releasing BLAS);
    ``"process"`` gives every task its own spawned process (true
    isolation; a dying task raises :class:`WorkerCrash` for that entry
    only). The first failure propagates after all tasks finish
    submitting — callers wanting per-task outcomes should catch inside
    ``fn`` or use :class:`CampaignScheduler`, which adds retries.
    """
    if executor not in ("thread", "process"):
        raise ValueError(
            f"unknown executor {executor!r} (expected 'thread' or 'process')"
        )
    workers = max_workers if max_workers is not None else len(payloads)
    workers = max(1, min(workers, len(payloads) or 1))

    def one(payload: dict):
        if executor == "thread":
            return fn(payload)
        return run_subprocess_task(fn, payload, timeout=timeout)

    if workers == 1 and executor == "thread":
        return [one(p) for p in payloads]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, payloads))


# ---------------------------------------------------------------------------
# campaign layer
# ---------------------------------------------------------------------------


@dataclass
class SchedulerConfig:
    """Execution policy for one scheduling session."""

    executor: str = "process"
    max_workers: Optional[int] = None
    #: attempts per job per session (1 = no retries)
    max_attempts: int = 3
    #: first retry delay; attempt ``n`` waits ``base * factor**(n-1)``
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    #: per-attempt wall-time budget in seconds (None = unbounded;
    #: process executor only — threads cannot be killed)
    timeout: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    #: retry jobs already marked failed in the manifest (resume --retry-failed)
    retry_failed: bool = False
    #: extra budget rounds for error-targeted jobs that exhaust their
    #: sweep budget before reaching target_error: round r resumes the
    #: job checkpoint with budget npass * (1 + r). 0 = never extend.
    max_extensions: int = 0

    def __post_init__(self):
        if self.executor not in ("thread", "process"):
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_extensions < 0:
            raise ValueError("max_extensions must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.timeout is not None and self.executor == "thread":
            raise ValueError(
                "timeout requires executor='process' (threads cannot be "
                "killed when the budget expires)"
            )


@dataclass
class CampaignRunSummary:
    """What one ``CampaignScheduler.run()`` session accomplished."""

    counts: dict
    retries: int
    ran_jobs: int
    elapsed_s: float
    complete: bool = field(default=False)
    all_done: bool = field(default=False)


class CampaignScheduler:
    """Drives a manifest's runnable jobs to terminal states."""

    def __init__(
        self,
        manifest: Manifest,
        config: Optional[SchedulerConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.manifest = manifest
        self.config = config or SchedulerConfig()
        self.telemetry = ensure_telemetry(telemetry)
        self._tel_lock = threading.Lock()

    # -- telemetry helpers (writer is not thread-safe; scheduler is) --------

    def _event(self, kind: str, **fields) -> None:
        if self.telemetry.enabled:
            with self._tel_lock:
                self.telemetry.event(kind, **fields)

    def _publish_gauges(self) -> None:
        if not self.telemetry.enabled:
            return
        counts = self.manifest.counts()
        with self._tel_lock:
            for status, n in counts.items():
                self.telemetry.gauge(f"campaign.jobs_{status}", n)
            self.telemetry.gauge(
                "campaign.jobs_total", len(self.manifest.jobs)
            )
            self.telemetry.gauge(
                "campaign.retries", self.manifest.total_retries()
            )

    # -- job execution -------------------------------------------------------

    def _attempt_payload(self, job, attempt: int, extend_round: int = 0) -> dict:
        cfg = self.config
        fault = cfg.fault_plan
        return {
            "job": job.to_dict(),
            "job_dir": str(self.manifest.job_dir(job.job_id)),
            "attempt": attempt,
            "checkpoint_every": self.manifest.spec.checkpoint_every,
            "fault": fault.to_dict() if fault else None,
            "isolated": cfg.executor == "process",
            "extend_round": extend_round,
        }

    def _run_attempt(self, job, attempt: int, extend_round: int = 0) -> dict:
        payload = self._attempt_payload(job, attempt, extend_round=extend_round)
        if self.config.executor == "process":
            return run_subprocess_task(
                run_campaign_job, payload, timeout=self.config.timeout
            )
        return run_campaign_job(payload)

    def _run_job(self, job) -> None:
        cfg = self.config
        state = self.manifest.states[job.job_id]
        for local_attempt in range(1, cfg.max_attempts + 1):
            attempt = state.runs + 1  # counts across sessions/resumes
            self.manifest.mark_running(
                job.job_id, attempt=attempt, retry=local_attempt > 1
            )
            self._event(
                "job_started",
                job=job.job_id,
                index=job.index,
                attempt=attempt,
                retry=local_attempt > 1,
            )
            self._publish_gauges()
            try:
                summary = self._run_attempt(job, attempt)
            except (WorkerCrash, RuntimeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                if local_attempt >= cfg.max_attempts:
                    self.manifest.mark_failed(job.job_id, error=error)
                    self._event(
                        "job_failed",
                        job=job.job_id,
                        index=job.index,
                        attempt=attempt,
                        error=error,
                    )
                    self._publish_gauges()
                    return
                delay = cfg.backoff_base * cfg.backoff_factor ** (
                    local_attempt - 1
                )
                self._event(
                    "job_retry",
                    job=job.job_id,
                    index=job.index,
                    attempt=attempt,
                    error=error,
                    backoff_s=round(delay, 3),
                )
                if delay:
                    time.sleep(delay)
                continue
            summary = self._extend_job(job, state, summary)
            self.manifest.mark_done(job.job_id, summary=summary)
            self._event(
                "job_done", job=job.job_id, index=job.index, attempt=attempt
            )
            self._publish_gauges()
            return

    def _extend_job(self, job, state, summary: dict) -> dict:
        """Grant extension rounds to an error-targeted job that exhausted
        its budget without reaching the target; returns the final summary.

        Each round resumes the job's checkpoint with an extra ``npass``
        of budget (the worker honours ``extend_round``). Extensions are
        best-effort: a crash during a round keeps the last good summary
        — the job's base attempt already produced a valid archive.
        """
        cfg = self.config
        for round_ in range(1, cfg.max_extensions + 1):
            control = summary.get("control")
            if not control or control.get("target_met"):
                return summary
            attempt = state.runs + 1
            self.manifest.mark_running(job.job_id, attempt=attempt, retry=False)
            self._event(
                "job_extended",
                job=job.job_id,
                index=job.index,
                attempt=attempt,
                extend_round=round_,
                relative_error=control.get("relative_error"),
                target_error=control.get("target_error"),
            )
            self._publish_gauges()
            try:
                summary = self._run_attempt(job, attempt, extend_round=round_)
            except (WorkerCrash, RuntimeError) as exc:
                self._event(
                    "job_extension_failed",
                    job=job.job_id,
                    index=job.index,
                    attempt=attempt,
                    extend_round=round_,
                    error=f"{type(exc).__name__}: {exc}",
                )
                return summary
        return summary

    # -- session -------------------------------------------------------------

    def run(self) -> CampaignRunSummary:
        """Run every runnable job to a terminal state; returns a summary.

        Interrupted jobs (status ``running`` with no live scheduler —
        i.e. a previous session crashed) are re-queued first, so a
        plain ``run()`` on a loaded manifest *is* a resume.
        """
        t0 = time.monotonic()
        requeued = self.manifest.requeue_interrupted()
        jobs = self.manifest.runnable_jobs(
            retry_failed=self.config.retry_failed
        )
        retries_before = self.manifest.total_retries()
        self._event(
            "campaign_started",
            name=self.manifest.spec.name,
            spec_hash=self.manifest.spec.spec_hash(),
            jobs=len(jobs),
            requeued=requeued,
            executor=self.config.executor,
        )
        self._publish_gauges()
        if jobs:
            workers = self.config.max_workers or len(jobs)
            workers = max(1, min(workers, len(jobs)))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(self._run_job, jobs))

        from .store import write_catalog_index

        write_catalog_index(self.manifest)
        counts = self.manifest.counts()
        summary = CampaignRunSummary(
            counts=counts,
            retries=self.manifest.total_retries() - retries_before,
            ran_jobs=len(jobs),
            elapsed_s=round(time.monotonic() - t0, 3),
            complete=self.manifest.complete,
            all_done=self.manifest.all_done,
        )
        self._event(
            "campaign_done",
            counts=counts,
            retries=summary.retries,
            elapsed_s=summary.elapsed_s,
        )
        if self.telemetry.enabled:
            with self._tel_lock:
                self.telemetry.snapshot()
        return summary
