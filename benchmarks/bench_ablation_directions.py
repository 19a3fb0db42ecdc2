"""Ablation: sweep-direction alternation vs Monte Carlo autocorrelation.

QUEST alternates forward and backward sweeps through imaginary time.
This bench measures the integrated autocorrelation time of the
antiferromagnetic structure factor under forward-only vs alternating
sweeps on identical models, plus the cost side (a backward sweep does
the same work as a forward one — asserted within noise).
"""

import numpy as np
import pytest

from bench_common import format_table, time_call
from repro import HubbardModel, Simulation, SquareLattice
from repro.measure import integrated_autocorrelation_time

MODEL_ARGS = dict(u=4.0, beta=3.0, n_slices=24)
SWEEPS = 220


def _tau_for(alternate: bool, seed: int) -> float:
    model = HubbardModel(SquareLattice(4, 4), **MODEL_ARGS)
    sim = Simulation(
        model, seed=seed, cluster_size=8,
        alternate_directions=alternate,
    )
    sim.collector.accumulator.track("af_structure_factor")
    sim.warmup(20)
    sim.measure_sweeps(SWEEPS)
    series = sim.collector.accumulator.series("af_structure_factor")
    return integrated_autocorrelation_time(series)


def test_ablation_directions(benchmark, report):
    taus = {"forward-only": [], "alternating": []}
    for seed in (1, 2, 3):
        taus["forward-only"].append(_tau_for(False, seed))
        taus["alternating"].append(_tau_for(True, seed))
    rows = [
        [mode, *(f"{t:.2f}" for t in vals),
         f"{np.mean(vals):.2f}"]
        for mode, vals in taus.items()
    ]
    report(
        "ablation_directions",
        format_table(
            ["mode", "tau (seed 1)", "tau (seed 2)", "tau (seed 3)", "mean"],
            rows,
        ),
    )

    # alternation must not make autocorrelation meaningfully worse; the
    # measured means typically favor it (stochastic at bench lengths, so
    # a generous one-sided bound)
    assert np.mean(taus["alternating"]) < 2.0 * np.mean(taus["forward-only"])

    # equal cost per sweep within noise
    model = HubbardModel(SquareLattice(4, 4), **MODEL_ARGS)
    sim_f = Simulation(model, seed=9, cluster_size=8)
    sim_a = Simulation(model, seed=9, cluster_size=8, alternate_directions=True)
    sim_f.warmup(2)
    sim_a.warmup(2)
    t_f = time_call(lambda: sim_f.warmup(4), repeats=1)
    t_a = time_call(lambda: sim_a.warmup(4), repeats=1)
    assert t_a < 1.5 * t_f

    benchmark(_tau_for, True, 4)
