"""One campaign job, executed inside an isolated worker process.

The scheduler never runs physics in its own process: each job attempt
is a child process whose only contract with the parent is the job
directory on disk (checkpoint, results archive, summary) plus an exit
code. That makes the failure model honest — a segfault, an OOM kill, or
an injected ``SIGKILL`` all look the same to the scheduler (nonzero
exit / missing summary), and nothing a worker does can corrupt the
manifest, which only the parent writes.

Restartability is delegated to :mod:`repro.dqmc.checkpoint`: a worker
checkpoints every ``checkpoint_every`` measurement sweeps into its job
directory, and any later attempt (retry after a crash, or a
``campaign resume`` after the whole scheduler died) resumes from that
checkpoint bit-exactly. An interrupted-and-resumed job therefore
produces the *same* results archive as an uninterrupted one — the
property the fault-injection tests pin.

:class:`FaultPlan` is the deterministic chaos hook: the scheduler
forwards it into the worker payload, and a matching worker kills
itself (``SIGKILL``), hangs, or raises at a well-defined point
(right after a checkpoint). Production campaigns simply leave it
``None``; tests and the CI smoke leg use it to prove the recovery
paths instead of hoping for real crashes.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = ["FaultPlan", "run_campaign_job", "WorkerCrash"]

RESULTS_NAME = "results.npz"
CHECKPOINT_NAME = "checkpoint.npz"
SUMMARY_NAME = "summary.json"


class WorkerCrash(RuntimeError):
    """A worker process died (crash, kill, or injected fault)."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for scheduler tests.

    Parameters
    ----------
    kill_job:
        Expansion index of the job to fault (``None`` disables the
        plan entirely).
    on_attempt:
        Only this attempt number faults; later attempts run clean —
        so ``on_attempt=1`` exercises exactly one retry. ``0`` faults
        *every* attempt (exhausts the retry budget).
    mode:
        ``"kill"``: the worker SIGKILLs itself (process executor only;
        under the thread executor it degrades to an exception, since a
        thread cannot be killed without taking the scheduler with it).
        ``"exception"``: raise ``RuntimeError`` (works in both
        executors). ``"hang"``: sleep ``hang_seconds`` to trip the
        scheduler's wall-time timeout.
    after_sweeps:
        Fault only once this many measurement sweeps are checkpointed,
        so the retry genuinely resumes mid-job (0 = fault before any
        measurement).
    """

    kill_job: Optional[int] = None
    on_attempt: int = 1
    mode: str = "kill"
    after_sweeps: int = 0
    hang_seconds: float = 3600.0

    def __post_init__(self):
        if self.mode not in ("kill", "exception", "hang"):
            raise ValueError(f"unknown fault mode {self.mode!r}")

    def matches(self, job_index: int, attempt: int) -> bool:
        return self.kill_job == job_index and self.on_attempt in (0, attempt)

    def to_dict(self) -> dict:
        return {
            "kill_job": self.kill_job,
            "on_attempt": self.on_attempt,
            "mode": self.mode,
            "after_sweeps": self.after_sweeps,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> Optional["FaultPlan"]:
        return cls(**d) if d else None


def _trigger_fault(fault: FaultPlan, isolated: bool) -> None:
    if fault.mode == "hang":
        time.sleep(fault.hang_seconds)
        return
    if fault.mode == "kill" and isolated:
        os.kill(os.getpid(), signal.SIGKILL)
    raise RuntimeError(
        f"injected fault (mode={fault.mode}, isolated={isolated})"
    )


def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run_campaign_job(payload: dict) -> dict:
    """Execute one job attempt; returns the summary dict it also writes.

    ``payload`` is a plain picklable dict (it crosses a spawn boundary):

    * ``job``: a :class:`~repro.campaign.spec.JobSpec` dict,
    * ``job_dir``: directory for checkpoint/results/summary,
    * ``attempt``: 1-based attempt number (for fault matching),
    * ``checkpoint_every``: measurement sweeps between checkpoints
      (0 = checkpoint only implicitly via the final results),
    * ``fault``: optional :class:`FaultPlan` dict,
    * ``isolated``: whether this runs in its own process (enables the
      ``kill`` fault mode),
    * ``extend_round``: 0 for a normal run; round ``r`` multiplies the
      sweep budget to ``npass * (1 + r)`` — the scheduler's follow-up
      attempt for an error-targeted job that exhausted its budget
      before reaching the target (resumes from the job checkpoint).

    When the job's config sets ``target_error``, the attempt runs under
    a :class:`repro.stats.RunController` (equilibration detection +
    error-targeted stopping) and may finish well before ``npass``
    sweeps. The results archive then holds *sign-corrected* estimates
    under the primary observable names (metadata ``sign_corrected``
    records this) — the raw sign estimate stays under ``"sign"``.
    """
    # Imports live here, not at module top: the spawn entry pickles this
    # function by reference and the child pays the import cost once.
    from ..dqmc import Simulation, load_checkpoint, save_checkpoint
    from ..io import save_observables
    from .spec import JobSpec

    job = JobSpec.from_dict(payload["job"])
    job_dir = Path(payload["job_dir"])
    attempt = int(payload.get("attempt", 1))
    checkpoint_every = int(payload.get("checkpoint_every", 0))
    isolated = bool(payload.get("isolated", True))
    fault = FaultPlan.from_dict(payload.get("fault"))
    faulting = fault is not None and fault.matches(job.index, attempt)

    job_dir.mkdir(parents=True, exist_ok=True)
    cfg = job.config()
    sim = cfg.simulation(seed=job.seed_sequence())
    controller = cfg.controller()
    if controller is not None:
        # Before the checkpoint load: a resumed attempt must restore
        # the saved decision state into this controller instance.
        sim.attach_controller(controller)

    checkpoint = job_dir / CHECKPOINT_NAME
    measured = 0
    if checkpoint.exists():
        load_checkpoint(checkpoint, sim)
        measured = sim.measured_sweeps
    else:
        sim.warmup(cfg.nwarm)

    if faulting and fault.after_sweeps <= measured:
        _trigger_fault(fault, isolated)

    # Error-targeted jobs may be granted extension rounds by the
    # scheduler: each round adds another npass to the sweep budget.
    extend_round = int(payload.get("extend_round", 0))
    budget = cfg.npass * (1 + extend_round)

    t0 = time.monotonic()
    step = checkpoint_every if checkpoint_every > 0 else budget
    while measured < budget:
        chunk = min(step, budget - measured)
        if sim.controller is not None:
            _, done, _ = sim.measure_until(chunk)
            measured += done
            stopped = done < chunk or sim.controller.stopped
            if measured < budget or checkpoint_every > 0 or stopped:
                save_checkpoint(checkpoint, sim)
            if faulting and fault.after_sweeps <= measured:
                _trigger_fault(fault, isolated)
            if stopped:
                break
        else:
            sim.measure_sweeps(chunk)
            measured += chunk
            if measured < budget or checkpoint_every > 0:
                save_checkpoint(checkpoint, sim)
            if faulting and fault.after_sweeps <= measured:
                _trigger_fault(fault, isolated)

    result = sim.result(n_warmup=cfg.nwarm, n_measurement=measured)
    # Sign-corrected estimates are the archive's primary values — the
    # catalog and reports surface physical < O > = < O s > / < s > with
    # propagated errors, not raw sign-weighted numerators. At half
    # filling (sign identically +1) they coincide with the raw binning
    # analysis. The raw sign estimate stays under "sign"; a hard sign
    # problem falls back to raw numerators with sign_corrected False.
    observables = result.corrected if result.corrected else result.observables
    control = result.control
    save_observables(
        job_dir / RESULTS_NAME,
        observables,
        metadata={
            "job_id": job.job_id,
            "index": job.index,
            "params": job.params,
            "seed_entropy": job.seed_entropy,
            "spawn_key": list(job.spawn_key),
            "sign_corrected": bool(result.corrected),
            "control": control,
            "equilibration_cut": (
                control.get("discarded", 0) if control else 0
            ),
        },
    )
    summary = {
        "job_id": job.job_id,
        "index": job.index,
        "attempt": attempt,
        "measured_sweeps": measured,
        "budget_sweeps": budget,
        "extend_round": extend_round,
        "acceptance": result.sweep_stats.acceptance_rate,
        "mean_sign": result.mean_sign,
        **sim.options.names(),
        "elapsed_s": round(time.monotonic() - t0, 3),
        "control": control,
    }
    _write_json_atomic(job_dir / SUMMARY_NAME, summary)
    return summary
