"""Ablation: sweep-direction alternation vs Monte Carlo autocorrelation.

The simulation driver alternates forward and backward sweeps through
imaginary time (QUEST's order), so each sweep reads the chain side the
one before it built. This bench compares that chain against the
forward-only order it replaced, driven sweep by sweep through
:func:`repro.dqmc.sweep.sweep` with ``direction="forward"`` (the chain the
driver ran before it alternated, bit for bit), on the ``metro_8x8_b4``
model: 8x8, beta = 4, U = 4, dtau = 0.1, k = 10, delay 32.

Per arm and seed it records the integrated autocorrelation time of the
tracked double occupancy and AF structure factor and their mean
estimates. The two arms sample the same distribution, so the estimates
must agree within their errors; alternation must not lengthen the
autocorrelation beyond the seed-to-seed spread. At full length
(``results/ablation_directions.txt``, 4 seeds x 1000 sweeps) it does:
the AF structure factor's tau_int reads 4.80 +- 1.7 alternating against
2.27 +- 0.71 forward-only, every alternating seed (3.67-7.24) above
every forward one (1.63-3.17), and double occupancy's 0.667 against
0.551, while the means agree within their errors.

It compares chains, not costs: the forward-only arm runs on an engine
whose kept state is laid out for alternation (a forward sweep after a
forward sweep rebuilds its whole suffix side), so its sweep time is not
what a forward-only engine pays. The cost of the order is measured by
the end-to-end benchmark (``benchmarks/e2e``).

Run it alone for the table (``python benchmarks/bench_ablation_directions.py``
with ``PYTHONPATH=src:benchmarks``, a few minutes with one BLAS thread)
or through pytest at a shorter length.
"""

from pathlib import Path

import numpy as np

from bench_common import format_table
from repro import HubbardModel, Simulation, SquareLattice
from repro.dqmc.sweep import sweep
from repro.measure import integrated_autocorrelation_time

MODEL_ARGS = dict(u=4.0, beta=4.0, n_slices=40)
SEEDS = (1, 2, 3, 4)
WARMUP = 50
SWEEPS = 1000
TRACKED = ("double_occupancy", "af_structure_factor")


def _simulation(seed: int) -> Simulation:
    model = HubbardModel(SquareLattice(8, 8), **MODEL_ARGS)
    sim = Simulation(model, seed=seed, cluster_size=10, max_delay=32)
    for name in TRACKED:
        sim.collector.accumulator.track(name)
    return sim


def _forward_only(sim: Simulation, n_sweeps: int, measure: bool) -> None:
    """``n_sweeps`` forward sweeps of ``sim``'s chain, measuring at
    boundary 0 as the driver does."""

    def on_boundary(c, g, sign):
        if measure and c == 0:
            # as the driver does: at half filling the collector forms
            # the down sector as the particle-hole image of the up one
            sim.collector.measure(g[1], g.get(-1), sign)

    for _ in range(n_sweeps):
        st = sweep(
            sim.engine, sim.rng, max_delay=sim.max_delay,
            on_boundary=on_boundary, start_sign=sim._sign,
            direction="forward",
        )
        sim._sign = st.sign


def _alternating(sim: Simulation, n_sweeps: int, measure: bool) -> None:
    (sim.measure_sweeps if measure else sim.warmup)(n_sweeps)


ARMS = {"forward-only": _forward_only, "alternating": _alternating}


def run_arm(arm: str, seed: int, warmup: int = WARMUP, sweeps: int = SWEEPS) -> dict:
    """One chain: ``{name: (mean, error, tau_int)}``."""
    sim = _simulation(seed)
    drive = ARMS[arm]
    drive(sim, warmup, measure=False)
    drive(sim, sweeps, measure=True)
    acc = sim.collector.accumulator
    out = {}
    for name in TRACKED:
        est = acc.estimate(name)
        tau = integrated_autocorrelation_time(np.asarray(acc.series(name)))
        out[name] = (float(est.mean), float(est.error), tau)
    return out


def ablation_table(seeds=SEEDS, warmup: int = WARMUP, sweeps: int = SWEEPS):
    """Rows per (arm, seed), then per arm the mean and the seed-to-seed
    standard deviation of each column; returns (text, results)."""
    results = {
        arm: [run_arm(arm, seed, warmup, sweeps) for seed in seeds]
        for arm in ARMS
    }
    header = ["arm", "seed"]
    for name in TRACKED:
        header += [f"{name} mean", "error", "tau_int"]
    rows = []
    for arm, runs in results.items():
        columns = []
        for seed, r in zip(seeds, runs):
            row = [v for name in TRACKED for v in r[name]]
            columns.append(row)
            rows.append([arm, seed, *(f"{v:.4g}" for v in row)])
        arr = np.array(columns)
        rows.append([arm, "mean", *(f"{v:.4g}" for v in arr.mean(axis=0))])
        rows.append(
            [arm, "spread", *(f"{v:.2g}" for v in arr.std(axis=0, ddof=1))]
        )
    return format_table(header, rows), results


def test_ablation_directions(benchmark, report):
    text, results = ablation_table(seeds=(1, 2), warmup=20, sweeps=200)
    report("ablation_directions_short", text)

    def column(arm, name, i):
        return np.array([r[name][i] for r in results[arm]])

    for name in TRACKED:
        # the same distribution: the seed-averaged estimates agree
        fwd, alt = column("forward-only", name, 0), column("alternating", name, 0)
        err = np.hypot(
            column("forward-only", name, 1), column("alternating", name, 1)
        )
        assert abs(fwd.mean() - alt.mean()) < 3 * err.mean() + 1e-12, name
        # alternation does not lengthen the autocorrelation grossly (a
        # one-sided bound: tau at bench lengths scatters by ~2x)
        fwd_tau = column("forward-only", name, 2)
        alt_tau = column("alternating", name, 2)
        assert alt_tau.mean() < 2.0 * fwd_tau.mean(), name

    benchmark(run_arm, "alternating", 4, 2, 10)


if __name__ == "__main__":
    text, _ = ablation_table()
    out = Path(__file__).parent / "results" / "ablation_directions.txt"
    out.write_text(text + "\n")
    print(text)
