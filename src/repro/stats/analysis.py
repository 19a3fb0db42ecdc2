"""Statistical reports from checkpoints, archives, and campaigns.

Backend of the ``repro analyze <path>`` CLI: point it at any artifact
the pipeline produces and get the full inference story — means, errors,
relative errors, integrated autocorrelation times, equilibration cuts,
sign correction, and cross-replica R-hat — without re-running anything.

Three artifact kinds are recognized (:func:`analyze_path` dispatches):

* a **checkpoint** ``.npz`` (has a ``header`` entry): the richest case —
  the log-binned state is reconstructed (a file of retained sample
  series is replayed into it) and reported with sign-corrected ratios
  plus tau_int and a fresh equilibration detection on the tracked
  series.
* a **results archive** (has ``__meta__``): binned estimates only — the
  report surfaces them with relative errors and whatever provenance the
  producer recorded (controller summary, equilibration cut).
* a **campaign directory** (has ``manifest.jsonl``): per-job estimates
  plus replica-group merges with :func:`~repro.stats.rhat_from_estimates`
  convergence checks.

Reports are plain JSON-able dicts; :func:`render_analysis` turns one
into the human-readable text the CLI prints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..measure.estimators import (
    BinnedEstimate,
    integrated_autocorrelation_time,
)
from .equilibration import detect_equilibration
from .ratio import rhat_from_estimates, sign_corrected_results
from .stream import StreamingError, checkpoint_accumulator

__all__ = [
    "analyze_archive",
    "analyze_campaign",
    "analyze_checkpoint",
    "analyze_path",
    "render_analysis",
]

#: preferred control observable for diagnostics, in order
_CONTROL_PREFERENCE = ("density", "kinetic_energy", "double_occupancy")


def _estimate_entry(
    name: str, est: BinnedEstimate, corrected: bool
) -> Dict[str, object]:
    """JSON-able digest of one observable's estimate."""
    mean = np.asarray(est.mean, dtype=np.float64)
    error = np.asarray(est.error, dtype=np.float64)
    entry: Dict[str, object] = {
        "n_bins": est.n_bins,
        "n_samples": est.n_samples,
        "corrected": bool(corrected),
    }
    if mean.ndim == 0:
        entry["mean"] = float(mean)
        entry["error"] = float(error)
        entry["relative_error"] = float(np.asarray(est.relative_error))
    else:
        # Array-valued (structure factors, momentum distributions):
        # summarize rather than dump the full grid into the report.
        entry["shape"] = list(mean.shape)
        entry["mean"] = float(mean.mean())
        entry["error"] = float(error.max()) if error.size else float("nan")
    return entry


def _control_name(names) -> Optional[str]:
    for name in _CONTROL_PREFERENCE:
        if name in names:
            return name
    for name in names:
        if name != "sign":
            return name
    return None


def _series_diagnostics(acc, report: Dict[str, object]) -> None:
    """Attach tau_int + equilibration for whichever control series the
    accumulator can produce (tracked names only)."""
    control = _control_name(list(acc.names()))
    if control is None:
        return
    try:
        series = np.asarray(acc.series(control))
    except (StreamingError, KeyError):
        return
    if series.ndim != 1 or series.size < 8:
        return
    eq = detect_equilibration(series)
    report["equilibration"] = {
        "observable": control,
        "n_cut": eq.n_cut,
        "z_score": eq.z_score if np.isfinite(eq.z_score) else None,
        "converged": eq.converged,
        "n_samples": eq.n_samples,
    }
    obs = report["observables"]
    if control in obs:
        obs[control]["tau_int"] = integrated_autocorrelation_time(series)


def _analyze_accumulator(acc, n_bins: int = 16) -> Dict[str, object]:
    corrected = sign_corrected_results(acc, n_bins=n_bins)
    has_sign = "sign" in acc.names() and acc.n_samples("sign") > 0
    observables = {
        name: _estimate_entry(name, est, has_sign and name != "sign")
        for name, est in sorted(corrected.items())
    }
    report: Dict[str, object] = {
        "observables": observables,
        "sign_corrected": has_sign,
    }
    if has_sign:
        sgn = corrected.get("sign")
        if sgn is not None:
            report["mean_sign"] = float(np.asarray(sgn.mean))
    _series_diagnostics(acc, report)
    return report


def analyze_checkpoint(path: Union[str, Path]) -> Dict[str, object]:
    """Full statistical report from a simulation checkpoint."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as npz:
        header = json.loads(str(npz["header"]))
        # a file of retained series keeps them for the diagnostics
        acc = checkpoint_accumulator(
            npz, header, track=header.get("observable_names", ())
        )
    report = _analyze_accumulator(acc)
    ctl = header.get("controller")
    if isinstance(ctl, dict) and "target_met" not in ctl:
        # The header carries RunController.state_dict(), whose stop flag
        # is spelled "stopped"; renderers speak the summary() schema.
        ctl = dict(ctl, target_met=bool(ctl.get("stopped")))
    report.update(
        kind="checkpoint",
        path=str(path),
        # how the file held its measurements ("replayed": retained
        # sample series, folded into the log-binned state here)
        mode="streaming" if "streaming" in header else "replayed",
        model=header.get("model"),
        precision=header.get("precision"),
        controller=ctl,
    )
    return report


def analyze_archive(path: Union[str, Path]) -> Dict[str, object]:
    """Report from a finished results archive (estimates, no series)."""
    from ..io import load_observables

    path = Path(path)
    observables, meta = load_observables(path)
    already_corrected = bool(meta.get("sign_corrected"))
    entries = {
        name: _estimate_entry(
            name, est, already_corrected and name != "sign"
        )
        for name, est in sorted(observables.items())
    }
    report: Dict[str, object] = {
        "kind": "archive",
        "path": str(path),
        "observables": entries,
        "sign_corrected": already_corrected,
        "metadata": meta,
    }
    control = meta.get("control")
    if isinstance(control, dict):
        report["controller"] = control
    cut = meta.get("equilibration_cut")
    if cut is not None:
        report["equilibration"] = {"n_cut": int(cut)}
    return report


def _replica_key(params: Dict[str, object]) -> str:
    physical = {
        k: v for k, v in params.items() if k not in ("replica", "seed")
    }
    return json.dumps(physical, sort_keys=True, default=str)


def analyze_campaign(path: Union[str, Path]) -> Dict[str, object]:
    """Per-job estimates plus replica-merged values with R-hat checks."""
    from ..campaign.store import ResultsCatalog, merge_estimates

    path = Path(path)
    catalog = ResultsCatalog.load(path)
    jobs: List[Dict[str, object]] = []
    groups: Dict[str, Dict[str, List[BinnedEstimate]]] = {}
    group_params: Dict[str, Dict[str, object]] = {}
    for record in catalog.records:
        job: Dict[str, object] = {
            "job_id": record.job_id,
            "params": record.params,
            "status": record.status,
            "runs": record.runs,
        }
        if record.has_results:
            obs = record.observables()
            job["observables"] = {
                name: _estimate_entry(name, est, name != "sign")
                for name, est in sorted(obs.items())
            }
            key = _replica_key(record.params)
            group_params.setdefault(key, record.params)
            bucket = groups.setdefault(key, {})
            for name, est in obs.items():
                if np.asarray(est.mean).ndim == 0:
                    bucket.setdefault(name, []).append(est)
        jobs.append(job)
    merged: List[Dict[str, object]] = []
    for key, bucket in groups.items():
        params = {
            k: v
            for k, v in group_params[key].items()
            if k not in ("replica", "seed")
        }
        entry: Dict[str, object] = {"params": params, "observables": {}}
        for name, estimates in sorted(bucket.items()):
            combo = _estimate_entry(name, merge_estimates(estimates), True)
            combo["n_replicas"] = len(estimates)
            if len(estimates) >= 2:
                combo["rhat"] = rhat_from_estimates(estimates)
            entry["observables"][name] = combo
        merged.append(entry)
    return {
        "kind": "campaign",
        "path": str(path),
        "n_jobs": len(catalog),
        "jobs": jobs,
        "merged": merged,
    }


def analyze_path(path: Union[str, Path]) -> Dict[str, object]:
    """Dispatch on artifact kind (see module docstring)."""
    path = Path(path)
    if path.is_dir():
        if not (path / "manifest.jsonl").exists():
            raise ValueError(
                f"{path} is a directory but not a campaign "
                "(no manifest.jsonl)"
            )
        return analyze_campaign(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    with np.load(path, allow_pickle=False) as npz:
        files = set(npz.files)
    if "header" in files:
        return analyze_checkpoint(path)
    if "__meta__" in files:
        return analyze_archive(path)
    raise ValueError(
        f"{path} is neither a checkpoint nor a results archive"
    )


# -- rendering ---------------------------------------------------------------


def _fmt_value(entry: Dict[str, object]) -> str:
    mean = entry.get("mean")
    error = entry.get("error")
    if "shape" in entry:
        shape = "x".join(str(s) for s in entry["shape"])
        return f"array[{shape}] mean {mean:+.6f} (max err {error:.2g})"
    rel = entry.get("relative_error")
    rel_txt = (
        f"  rel {rel:.3g}" if isinstance(rel, float) and np.isfinite(rel)
        else ""
    )
    return f"{mean:+.6f} +- {error:.2g}{rel_txt}"


def _render_observables(lines: List[str], observables: Dict[str, dict]) -> None:
    width = max((len(n) for n in observables), default=0)
    for name, entry in observables.items():
        tags = []
        if entry.get("corrected"):
            tags.append("sign-corrected")
        tau = entry.get("tau_int")
        if isinstance(tau, float):
            tags.append(f"tau_int {tau:.2f}")
        rhat = entry.get("rhat")
        if isinstance(rhat, float) and np.isfinite(rhat):
            tags.append(f"R-hat {rhat:.3f}")
        if entry.get("n_replicas"):
            tags.append(f"{entry['n_replicas']} replicas")
        suffix = f"   [{', '.join(tags)}]" if tags else ""
        lines.append(
            f"  {name:<{width}}  {_fmt_value(entry)}"
            f"  (n={entry['n_samples']}, bins={entry['n_bins']}){suffix}"
        )


def render_analysis(report: Dict[str, object]) -> str:
    """Human-readable text for one analysis report."""
    lines: List[str] = []
    kind = report["kind"]
    lines.append(f"analyze: {report['path']}  [{kind}]")
    if kind == "campaign":
        done = sum(1 for j in report["jobs"] if "observables" in j)
        lines.append(
            f"jobs: {report['n_jobs']} total, {done} with results"
        )
        for group in report["merged"]:
            params = ", ".join(
                f"{k}={v}" for k, v in sorted(group["params"].items())
            )
            lines.append(f"merged [{params}]:")
            _render_observables(lines, group["observables"])
        return "\n".join(lines)
    if kind == "checkpoint":
        lines.append(f"mode: {report['mode']}")
        model = report.get("model")
        if model:
            lines.append(
                "model: U={u} beta={beta} L={n_slices} N={n_sites}".format(
                    **model
                )
            )
    if report.get("sign_corrected"):
        sgn = report.get("mean_sign")
        lines.append(
            "sign correction: on"
            + (f" (mean sign {sgn:+.4f})" if isinstance(sgn, float) else "")
        )
    eq = report.get("equilibration")
    if eq:
        z = eq.get("z_score")
        detail = f"cut {eq['n_cut']}"
        if eq.get("n_samples"):
            detail += f"/{eq['n_samples']}"
        if isinstance(z, float):
            detail += f", Geweke z {z:+.2f}"
        if "converged" in eq:
            detail += ", converged" if eq["converged"] else ", NOT converged"
        lines.append(f"equilibration: {detail}")
    ctl = report.get("controller")
    if isinstance(ctl, dict) and ctl.get("target_error") is not None:
        met = "met" if ctl.get("target_met") else "not met"
        lines.append(
            f"run control: target {ctl.get('target_observable')} rel err "
            f"<= {ctl.get('target_error')} ({met}, "
            f"{ctl.get('discarded', 0)} samples discarded)"
        )
    lines.append("observables:")
    _render_observables(lines, report["observables"])
    return "\n".join(lines)
