"""Command-line interface: ``python -m repro <command> ...``.

Mirrors how QUEST is driven in production — an input file in, a results
archive out — with checkpoint/resume for long runs:

``run``
    Execute the simulation an input file describes; write observables to
    ``<input>.npz``; optionally checkpoint every N sweeps and resume;
    optionally archive a JSONL telemetry stream (``--telemetry``) with a
    numerical-health watchdog (``--watchdog-every``).

``info``
    Parse an input file and report the derived quantities a user wants
    before committing hours: beta, nu, matrix sizes, memory estimate,
    and the conditioning-based safe cluster size.

``telemetry-report``
    Summarize a JSONL telemetry archive from a previous (or still
    running) ``run --telemetry`` into a Table-I-style digest.

``campaign``
    Fleet-of-runs orchestration (see ``docs/campaigns.md``):
    ``campaign run spec.json --dir DIR`` expands a declarative sweep
    spec into process-isolated jobs with retries and a crash-safe
    manifest; ``campaign resume DIR`` finishes an interrupted campaign
    without re-running completed jobs; ``campaign status DIR`` /
    ``campaign report DIR [--json PATH]`` summarize the manifest and
    results catalog.

``analyze``
    Full statistical report (means, errors, tau_int, equilibration
    cut, sign correction, cross-replica R-hat) from a checkpoint, a
    results archive, or a campaign directory (``docs/analysis.md``).

``version``
    Print the package version.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .dqmc import load_checkpoint, load_config, save_checkpoint
from .io import save_observables
from .linalg import chain_conditioning_report, flops
from .options import OptionError
from .telemetry import (
    Telemetry,
    TelemetryWriter,
    WatchdogConfig,
    render_report,
    summarize_jsonl,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DQMC for the Hubbard model (IPDPS 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the simulation in an input file")
    p_run.set_defaults(func=cmd_run)
    p_run.add_argument("input", type=Path, help="QUEST-style input file")
    p_run.add_argument(
        "--output", type=Path, default=None,
        help="results archive (default: <input>.npz)",
    )
    p_run.add_argument(
        "--checkpoint", type=Path, default=None,
        help="checkpoint file to write during the run (and resume from "
        "if it already exists)",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, default=100, metavar="SWEEPS",
        help="measurement sweeps between checkpoints (default 100)",
    )
    p_run.add_argument(
        "--quiet", action="store_true", help="suppress the progress lines"
    )
    p_run.add_argument(
        "--backend", type=str, default=None, metavar="NAME",
        help="execution backend: numpy, threaded or gpu-sim "
        "(default: the input file's 'backend' key, else $REPRO_BACKEND, "
        "else numpy); physics is backend-independent",
    )
    p_run.add_argument(
        "--precision", type=str, default=None, metavar="POLICY",
        help="precision policy: full64 or mixed (default: the input "
        "file's 'precision' key, else $REPRO_PRECISION, else full64); "
        "mixed trades float32 compute speed for watchdog-guarded "
        "accuracy (see docs/performance.md)",
    )
    p_run.add_argument(
        "--kinetic", type=str, default=None, metavar="MODE",
        help="kinetic propagator: exact or checkerboard (default: the "
        "input file's 'kinetic' key, else $REPRO_KINETIC, else exact); "
        "on a plain square lattice both apply small lx x lx / ly x ly "
        "blocks at the same cost, and checkerboard's Trotter-split blocks "
        "add one O(dtau^2) term (see docs/performance.md)",
    )
    p_run.add_argument(
        "--telemetry", type=Path, default=None, metavar="JSONL",
        help="archive metrics snapshots and structured events to this "
        "JSONL file (inspectable mid-run; see docs/observability.md)",
    )
    p_run.add_argument(
        "--telemetry-snapshot-every", type=int, default=10, metavar="SWEEPS",
        help="sweeps between full metric snapshots in the telemetry "
        "stream (default 10; 0 = only a final snapshot)",
    )
    p_run.add_argument(
        "--watchdog-every", type=int, default=0, metavar="SWEEPS",
        help="judge the wrap drift + graded range the sweeps record every "
        "N sweeps and force a refresh past tolerance (default 0 = "
        "watchdog off; a check costs no linear algebra)",
    )
    p_run.add_argument(
        "--watchdog-drift-tol", type=float, default=1e-6, metavar="TOL",
        help="wrap-drift relative-error alert threshold (default 1e-6)",
    )
    p_run.add_argument(
        "--watchdog-range-tol", type=float, default=1e12, metavar="FACTOR",
        help="alert when the graded dynamic range exceeds FACTOR times the "
        "run's first reading of it (default 1e12)",
    )
    p_run.add_argument(
        "--target-error", type=float, default=None, metavar="EPS",
        help="error-targeted stopping: measure until the sign-corrected "
        "relative error of the target observable is <= EPS, with npass "
        "as the sweep budget (equivalent to 'target_error = EPS'; "
        "includes automatic equilibration detection)",
    )
    p_run.add_argument(
        "--target-observable", type=str, default=None, metavar="NAME",
        help="observable --target-error aims at (default: the input "
        "file's 'target_obs' key, else density)",
    )

    p_info = sub.add_parser("info", help="analyze an input file without running")
    p_info.set_defaults(func=cmd_info)
    p_info.add_argument("input", type=Path)

    p_report = sub.add_parser(
        "telemetry-report",
        help="summarize a JSONL telemetry archive (Table-I-style view)",
    )
    p_report.set_defaults(func=cmd_telemetry_report)
    p_report.add_argument("jsonl", type=Path, help="telemetry file from run --telemetry")

    p_campaign = sub.add_parser(
        "campaign",
        help="orchestrate a parameter-sweep campaign (docs/campaigns.md)",
    )
    p_campaign.set_defaults(func=cmd_campaign)
    csub = p_campaign.add_subparsers(dest="campaign_command", required=True)

    def add_exec_flags(p):
        p.add_argument(
            "--executor", choices=("process", "thread"), default="process",
            help="worker isolation: one spawned process per job attempt "
            "(default; crashes stay contained) or in-process threads",
        )
        p.add_argument(
            "--max-workers", type=int, default=None, metavar="N",
            help="jobs in flight at once (default: all runnable jobs)",
        )
        p.add_argument(
            "--max-attempts", type=int, default=3, metavar="N",
            help="attempts per job this session, incl. the first (default 3)",
        )
        p.add_argument(
            "--backoff", type=float, default=0.25, metavar="SECONDS",
            help="first retry delay; doubles per retry (default 0.25)",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-attempt wall-time budget; a worker past it is "
            "killed and retried (process executor only)",
        )
        p.add_argument(
            "--max-extensions", type=int, default=0, metavar="N",
            help="extra budget rounds for error-targeted jobs that "
            "exhaust npass before reaching target_error (default 0)",
        )
        p.add_argument(
            "--telemetry", type=Path, default=None, metavar="JSONL",
            help="archive campaign.* gauges and job events to this file",
        )
        p.add_argument(
            "--fault", type=str, default=None, metavar="JSON",
            help="inject a deterministic FaultPlan, e.g. "
            '\'{"kill_job": 2, "on_attempt": 1}\' (testing/CI only)',
        )
        p.add_argument("--quiet", action="store_true")

    pc_run = csub.add_parser("run", help="expand a spec and run every job")
    pc_run.add_argument("spec", type=Path, help="campaign spec (JSON)")
    pc_run.add_argument(
        "--dir", type=Path, required=True, dest="campaign_dir",
        help="campaign directory (manifest, per-job archives, catalog)",
    )
    add_exec_flags(pc_run)

    pc_resume = csub.add_parser(
        "resume", help="finish an interrupted campaign (skips done jobs)"
    )
    pc_resume.add_argument("campaign_dir", type=Path)
    pc_resume.add_argument(
        "--retry-failed", action="store_true",
        help="also retry jobs whose attempts were exhausted",
    )
    add_exec_flags(pc_resume)

    pc_status = csub.add_parser("status", help="print the manifest's state")
    pc_status.add_argument("campaign_dir", type=Path)

    pc_report = csub.add_parser(
        "report", help="render the campaign report (optionally as JSON)"
    )
    pc_report.add_argument("campaign_dir", type=Path)
    pc_report.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the report dict to this JSON file",
    )

    p_analyze = sub.add_parser(
        "analyze",
        help="statistical report from a checkpoint, results archive, or "
        "campaign directory (means, errors, tau_int, equilibration, "
        "sign correction, R-hat; see docs/analysis.md)",
    )
    p_analyze.set_defaults(func=cmd_analyze)
    p_analyze.add_argument(
        "path", type=Path,
        help="checkpoint .npz, results .npz, or campaign directory",
    )
    p_analyze.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the report dict to this JSON file",
    )

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=cmd_version)
    return parser


def _emit(quiet: bool, text: str) -> None:
    if not quiet:
        print(text)


def _build_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    if not args.telemetry:
        return None
    return Telemetry(
        TelemetryWriter(args.telemetry),
        snapshot_every=getattr(args, "telemetry_snapshot_every", 10),
    )


def _build_watchdog(args: argparse.Namespace) -> Optional[WatchdogConfig]:
    if not args.watchdog_every:
        return None
    return WatchdogConfig(
        check_every=args.watchdog_every,
        drift_tol=args.watchdog_drift_tol,
        range_tol=args.watchdog_range_tol,
    )


def _load_config(args: argparse.Namespace, **flags):
    """The input file with the flags that were given laid over its keys,
    validated once - or None after a one-line report (exit status 2)."""
    flags = {k: v for k, v in flags.items() if v is not None}
    try:
        return load_config(args.input, **flags)
    except OptionError as exc:
        # Only this layer knows a caller's value was typed as a flag.
        flagged = exc.option in flags and not exc.from_env
        message = (
            f"--{exc.option} {exc.value}: {exc.detail}" if flagged else str(exc)
        )
    except ValueError as exc:
        message = str(exc)
    print(f"{args.command}: {message}", file=sys.stderr)
    return None


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(
        args,
        backend=args.backend,
        precision=args.precision,
        kinetic=args.kinetic,
        target_error=args.target_error,
        target_obs=args.target_observable,
    )
    if cfg is None:
        return 2
    telemetry = _build_telemetry(args)
    sim = cfg.simulation(telemetry=telemetry, watchdog=_build_watchdog(args))
    resolved = sim.options.names()
    controller = cfg.controller()
    if controller is not None:
        # Attach before any checkpoint load so a resumed run restores
        # the saved decision state into this controller instance.
        sim.attach_controller(controller)
    output = args.output if args.output else args.input.with_suffix(".npz")
    _emit(args.quiet, "  ".join(f"{k}: {v}" for k, v in resolved.items()))
    try:
        with flops.tally() as flop_tally:
            if telemetry is not None:
                telemetry.add_snapshot_source(
                    lambda reg: reg.set_gauge(
                        "flops.total", flop_tally.total_flops
                    )
                )
                telemetry.event(
                    "run_started",
                    input=str(args.input),
                    config=cfg.dumps(),
                    options=resolved,
                )
            result = _run_stages(args, cfg, sim, telemetry)
    finally:
        if telemetry is not None:
            telemetry.event("run_done")
            telemetry.close()

    observables = dict(result.observables)
    if result.corrected:
        # Raw sign-weighted averages keep their established names
        # (resume comparisons and older tooling read them); the
        # sign-corrected <O s>/<s> estimates ride alongside.
        for name, est in result.corrected.items():
            if name != "sign":
                observables[f"{name}.corrected"] = est
    save_observables(
        output,
        observables,
        metadata={
            "input": cfg.dumps(),
            "options": resolved,
            "acceptance": result.sweep_stats.acceptance_rate,
            "mean_sign": result.mean_sign,
            "control": result.control,
        },
    )
    _emit(args.quiet, "")
    _emit(args.quiet, result.summary())
    _emit(args.quiet, f"\nobservables -> {output}")
    if args.telemetry:
        _emit(args.quiet, f"telemetry   -> {args.telemetry}")
    return 0


def _run_stages(args, cfg, sim, telemetry):
    """Warmup (or resume), checkpointed measurement loop, reduction."""
    measured = 0
    if args.checkpoint and args.checkpoint.exists():
        load_checkpoint(args.checkpoint, sim)
        # The header's sweep counter, not n_measurements // nmeas: an
        # equilibration discard shrinks the sample count but not the
        # number of sweeps already spent.
        measured = sim.measured_sweeps
        _emit(
            args.quiet,
            f"resumed from {args.checkpoint}: "
            f"{measured}/{cfg.npass} measurement sweeps done",
        )
        if telemetry is not None:
            telemetry.event(
                "checkpoint_resumed",
                path=str(args.checkpoint),
                measured_sweeps=measured,
            )
    else:
        _emit(
            args.quiet,
            f"warmup: {cfg.nwarm} sweeps on {sim.model.lattice} "
            f"(U = {cfg.u}, beta = {cfg.beta:g}, L = {cfg.l})",
        )
        sim.warmup(cfg.nwarm)

    step = max(1, args.checkpoint_every)
    while measured < cfg.npass:
        chunk = min(step, cfg.npass - measured)
        if sim.controller is not None:
            _, done, _ = sim.measure_until(chunk)
            measured += done
            if done < chunk or sim.controller.stopped:
                # Error target met (or a resumed, already-stopped run):
                # the remaining budget is not owed.
                if args.checkpoint:
                    save_checkpoint(args.checkpoint, sim)
                _emit(
                    args.quiet,
                    f"measured {measured}/{cfg.npass} sweeps -- "
                    + (
                        sim.controller.last.describe()
                        if sim.controller.last is not None
                        else "stopped"
                    ),
                )
                break
        else:
            sim.measure_sweeps(chunk)
            measured += chunk
        if args.checkpoint:
            save_checkpoint(args.checkpoint, sim)
            if telemetry is not None:
                telemetry.event(
                    "checkpoint_saved",
                    path=str(args.checkpoint),
                    measured_sweeps=measured,
                )
        _emit(args.quiet, f"measured {measured}/{cfg.npass} sweeps")

    return sim.result(n_warmup=cfg.nwarm, n_measurement=measured)


def cmd_telemetry_report(args: argparse.Namespace) -> int:
    if not args.jsonl.exists():
        print(f"no such telemetry file: {args.jsonl}", file=sys.stderr)
        return 1
    print(render_report(summarize_jsonl(args.jsonl)))
    return 0


def _scheduler_config(args: argparse.Namespace):
    from .campaign import FaultPlan, SchedulerConfig

    fault = None
    if args.fault:
        import json as _json

        fault = FaultPlan(**_json.loads(args.fault))
    return SchedulerConfig(
        executor=args.executor,
        max_workers=args.max_workers,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff,
        timeout=args.timeout,
        fault_plan=fault,
        retry_failed=getattr(args, "retry_failed", False),
        max_extensions=getattr(args, "max_extensions", 0),
    )


def _campaign_session(args: argparse.Namespace, resume: bool) -> int:
    from .campaign import CampaignSpec, run_campaign

    spec = None
    if not resume:
        spec = CampaignSpec.load(args.spec)
    telemetry = _build_telemetry(args)
    try:
        summary = run_campaign(
            spec,
            args.campaign_dir,
            config=_scheduler_config(args),
            telemetry=telemetry,
            resume=resume,
        )
    finally:
        if telemetry is not None:
            telemetry.close()
    counts = summary.counts
    _emit(
        args.quiet,
        f"campaign {'resumed' if resume else 'run'}: "
        + ", ".join(f"{n} {s}" for s, n in sorted(counts.items()) if n)
        + f" ({summary.retries} retries, {summary.elapsed_s:.1f}s)",
    )
    _emit(args.quiet, f"catalog     -> {args.campaign_dir}/catalog.json")
    if args.telemetry:
        _emit(args.quiet, f"telemetry   -> {args.telemetry}")
    return 0 if summary.all_done else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import ManifestError, SpecError

    try:
        if args.campaign_command == "run":
            return _campaign_session(args, resume=False)
        if args.campaign_command == "resume":
            return _campaign_session(args, resume=True)
        if args.campaign_command == "status":
            from .campaign import build_report, render_report

            print(render_report(build_report(args.campaign_dir)))
            return 0
        if args.campaign_command == "report":
            from .campaign import build_report, render_report, write_report_json

            if args.json is not None:
                report = write_report_json(args.campaign_dir, args.json)
            else:
                report = build_report(args.campaign_dir)
            print(render_report(report))
            if args.json is not None:
                print(f"\nreport JSON -> {args.json}")
            return 0
    except (ManifestError, SpecError, FileNotFoundError, ValueError) as exc:
        print(f"campaign {args.campaign_command}: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def cmd_analyze(args: argparse.Namespace) -> int:
    from .stats import analyze_path, render_analysis

    try:
        report = analyze_path(args.path)
    except (FileNotFoundError, ValueError, OSError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    print(render_analysis(report))
    if args.json is not None:
        import json as _json

        args.json.write_text(_json.dumps(report, indent=1, sort_keys=True))
        print(f"\nreport JSON -> {args.json}")
    return 0


def _qmclint_summary() -> Optional[str]:
    """``"2.0.0 (14 rules)"`` — pins the analyzer that blessed a build.

    qmclint lives in ``tools/`` (not installed with the package), so bug
    reports from a source checkout get the version while installed-only
    environments simply omit the line.
    """
    try:
        try:
            import qmclint
        except ImportError:
            tools = Path(__file__).resolve().parents[2] / "tools"
            if not (tools / "qmclint" / "__init__.py").exists():
                return None
            sys.path.insert(0, str(tools))
            try:
                import qmclint
            finally:
                sys.path.remove(str(tools))
        return f"{qmclint.__version__} ({len(qmclint.ALL_RULES)} rules)"
    except Exception:
        return None


def cmd_version(args: argparse.Namespace) -> int:
    print(__version__)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if cfg is None:
        return 2
    options = cfg.options()
    model = cfg.model()
    report = chain_conditioning_report(model)
    n = model.n_sites
    matrices_cached = 2 * (cfg.l // cfg.north)  # cluster cache, both spins
    mem_mb = matrices_cached * n * n * 8 / 1e6
    print(f"input            {args.input}")
    print(f"lattice          {model.lattice} (N = {n})")
    print(f"U = {cfg.u:g}, t = {cfg.t:g}, mu = {cfg.mu:g}")
    print(f"beta = {cfg.beta:g}  (L = {cfg.l}, dtau = {cfg.dtau:g})")
    print(f"HS coupling nu   {model.nu:.6f}")
    print(f"method           {cfg.method}, k = {cfg.north}, delay = {cfg.ndelay}")
    print(f"backend          {options.backend}")
    print(f"precision        {options.policy.name} ({options.policy.description})")
    kin_desc = {
        "exact": "exact exp(-dtau K): Kronecker blocks on a square "
        "lattice, dense GEMMs otherwise",
        "checkerboard": "Trotter-split bond-group blocks, extra O(dtau^2) term",
    }[options.kinetic]
    print(f"kinetic          {options.kinetic} ({kin_desc})")
    print(f"conditioning     {report.describe()}")
    if cfg.north > report.max_safe_cluster_size:
        print(
            f"WARNING: configured k = {cfg.north} exceeds the safe bound "
            f"{report.max_safe_cluster_size}; expect accuracy loss"
        )
    print(f"cluster cache    ~{mem_mb:.1f} MB ({matrices_cached} matrices)")
    print(f"sweeps           {cfg.nwarm} warmup + {cfg.npass} measurement")
    lint = _qmclint_summary()
    if lint is not None:
        print(f"qmclint          {lint}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
