"""Ensemble parallelism: independent Markov chains across workers.

Orthogonal to the kernel-level parallelism of Sec. IV, DQMC offers an
embarrassingly parallel axis QUEST exploits in production: run several
independent simulations (different seeds), merge their measurement
streams. Monte Carlo error then falls like 1/sqrt(chains) with *zero*
communication during sampling — exactly the regime where the paper notes
distributed memory never paid off for single-chain DQMC.

Two executors, sharing the campaign scheduler's worker layer:

* ``executor="thread"`` (default): the time is spent inside BLAS, which
  releases the GIL, so the Python-level sweep bookkeeping of the chains
  interleaves across a thread pool. Zero startup cost.
* ``executor="process"``: every chain in its own spawned process — true
  isolation (a crashing chain cannot take down its siblings) and no GIL
  contention on the interpreted Metropolis loop, at interpreter-startup
  cost per chain. Chains ship back their accumulators, stats and
  telemetry registries; the physics is bit-identical to thread mode.

Chain seeds are ``np.random.SeedSequence(base_seed).spawn(n_chains)`` —
the documented way to derive mutually independent PCG64 streams (naive
``base_seed + i`` seeding gives streams with no independence guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..hamiltonian import HubbardModel
from ..measure import BinnedEstimate
from ..telemetry import Telemetry, ensure_telemetry
from .simulation import Simulation
from .sweep import SweepStats

__all__ = ["EnsembleResult", "run_ensemble"]


@dataclass
class EnsembleResult:
    """Merged output of an ensemble of independent chains."""

    model: HubbardModel
    observables: Dict[str, BinnedEstimate]
    per_chain: List[Dict[str, BinnedEstimate]]
    sweep_stats: SweepStats
    n_chains: int
    #: sign-corrected < O s > / < s > over the merged streams (None when
    #: the sign problem makes the ratio unquotable)
    corrected: Optional[Dict[str, BinnedEstimate]] = None
    #: cross-chain convergence per scalar observable: the moment-based
    #: R-hat from per-chain estimates; ~1 means the chains agree
    rhat: Optional[Dict[str, float]] = None
    #: per-chain RunController digests when error-targeted stopping ran
    controls: Optional[List[dict]] = None

    def chain_spread(self, name: str) -> float:
        """Std-dev of a scalar observable's mean across chains.

        An independent error estimate: should be ~ sqrt(chains) times
        the merged error bar if the binning analysis is honest.
        """
        vals = [float(r[name].mean) for r in self.per_chain]
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else np.inf


def _chain_task(payload: dict) -> dict:
    """Run one chain; returns a picklable payload (crosses the process
    boundary under ``executor="process"``, so no ``Simulation`` inside).
    """
    sim = Simulation(
        payload["model"],
        seed=np.random.SeedSequence(
            entropy=payload["base_seed"], spawn_key=(payload["chain"],)
        ),
        telemetry=payload["telemetry"],
        **payload["kwargs"],
    )
    controller_kwargs = payload.get("controller")
    if controller_kwargs is not None:
        from ..stats import RunController

        sim.attach_controller(RunController(**controller_kwargs))
    sim.warmup(payload["warmup"])
    if sim.controller is not None:
        _, sweeps_done, _ = sim.measure_until(payload["sweeps"])
    else:
        sim.measure_sweeps(payload["sweeps"])
        sweeps_done = payload["sweeps"]
    tel = payload["telemetry"]
    if tel is not None:
        tel.snapshot()  # poll profiler/cache sources
    return {
        "accumulator": sim.collector.accumulator,
        "stats": sim.total_stats,
        "sign": sim._sign,
        "registry": tel.registry if tel is not None else None,
        "sweeps": sweeps_done,
        "control": (
            sim.controller.summary() if sim.controller is not None else None
        ),
    }


def run_ensemble(
    model: HubbardModel,
    n_chains: int = 4,
    warmup_sweeps: int = 50,
    measurement_sweeps: int = 200,
    base_seed: int = 0,
    max_workers: Optional[int] = None,
    n_bins: int = 16,
    telemetry: Optional[Telemetry] = None,
    executor: str = "thread",
    target_error: Optional[float] = None,
    target_observable: str = "density",
    **simulation_kwargs,
) -> EnsembleResult:
    """Run ``n_chains`` independent simulations concurrently and merge.

    Chain ``c`` is seeded with ``SeedSequence(base_seed).spawn(...)[c]``
    (independent PCG64 streams by construction). Extra keyword arguments
    are forwarded to :class:`Simulation` (method, cluster_size,
    ``backend="threaded"``, ...), so every chain runs the same
    execution backend. ``executor`` picks the worker layer: ``"thread"``
    (default, backward compatible) or ``"process"`` for spawned-process
    isolation via :func:`repro.campaign.run_tasks`.

    When ``telemetry`` is given, each chain records into a private
    in-memory registry (workers never share a JSONL writer); on
    completion the chain registries are merged into ``telemetry``'s and
    one ``chain_done`` event per chain plus a final ``ensemble_done``
    event are archived.

    The merged estimate folds the chains' log-binned states together
    level by level (:meth:`repro.stats.StreamingAccumulator.extend`);
    bins never straddle two chains, so the chains stay independent in
    the error analysis.

    ``target_error`` switches every chain to error-targeted stopping: a
    per-chain :class:`repro.stats.RunController` aims the sign-corrected
    relative error of ``target_observable`` at the target and each chain
    stops as soon as it gets there (``measurement_sweeps`` becomes the
    per-chain *budget*). The result then carries per-chain control
    digests plus cross-chain ``rhat`` convergence diagnostics.
    """
    if n_chains < 1:
        raise ValueError("need at least one chain")
    tel = ensure_telemetry(telemetry)
    controller_kwargs = (
        {
            "target_observable": target_observable,
            "target_error": float(target_error),
        }
        if target_error is not None
        else None
    )
    payloads = [
        {
            "model": model,
            "chain": c,
            "base_seed": base_seed,
            "warmup": warmup_sweeps,
            "sweeps": measurement_sweeps,
            "kwargs": simulation_kwargs,
            "controller": controller_kwargs,
            "telemetry": (
                Telemetry(writer=None, snapshot_every=0)
                if tel.enabled
                else None
            ),
        }
        for c in range(n_chains)
    ]
    # The campaign scheduler's worker layer (lazy import: campaign's
    # worker module imports dqmc, so a top-level import would cycle).
    from ..campaign.scheduler import run_tasks

    chains = run_tasks(
        _chain_task,
        payloads,
        executor=executor,
        max_workers=max_workers if max_workers is not None else n_chains,
    )

    from ..stats import (
        StreamingAccumulator,
        rhat_from_estimates,
        sign_corrected_results,
    )

    merged = StreamingAccumulator()
    stats = SweepStats()
    per_chain = []
    for c, chain in enumerate(chains):
        merged.extend(chain["accumulator"])
        stats.merge(chain["stats"])
        per_chain.append(chain["accumulator"].reduce(n_bins=n_bins))
        if tel.enabled:
            if chain["registry"] is not None:
                tel.registry.merge(chain["registry"])
            tel.event(
                "chain_done",
                chain=c,
                base_seed=base_seed,
                spawn_key=[c],
                proposed=chain["stats"].proposed,
                accepted=chain["stats"].accepted,
                sign=chain["sign"],
            )
    if tel.enabled:
        tel.event("ensemble_done", chains=n_chains, executor=executor)
        tel.snapshot()

    try:
        corrected = sign_corrected_results(
            merged, n_bins=n_bins * min(n_chains, 4)
        )
    except ValueError:
        corrected = None  # hard sign problem: no quotable ratio

    rhat: Dict[str, float] = {}
    scalar_names = [
        name
        for name, est in per_chain[0].items()
        if np.asarray(est.mean).ndim == 0
    ]
    for name in scalar_names:
        if not all(name in r for r in per_chain):
            continue
        rhat[name] = rhat_from_estimates([r[name] for r in per_chain])

    controls = [chain.get("control") for chain in chains]
    return EnsembleResult(
        model=model,
        observables=merged.reduce(n_bins=n_bins * min(n_chains, 4)),
        per_chain=per_chain,
        sweep_stats=stats,
        n_chains=n_chains,
        corrected=corrected,
        rhat=rhat if n_chains > 1 else None,
        controls=controls if any(c is not None for c in controls) else None,
    )
