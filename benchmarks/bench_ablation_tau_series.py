"""Ablation: incremental vs per-tau time-displaced Green's evaluation.

The dynamic measurements need ``G(tau, 0)`` on a tau grid. Evaluating
each point independently stratifies both partial chains from scratch —
O((L/k)^2) QR steps across the grid — while the incremental
prefix/suffix scheme (:func:`tests.oracles.displaced.displaced_series_fast`,
the scheme a run's sweep joins follow) does O(L/k) total. This bench
measures both reference evaluations on identical workloads and checks
they produce the same functions. Run from the repository root
(``PYTHONPATH=src python -m pytest benchmarks/...``) so ``tests`` imports.

Expected: speedup grows linearly with the number of grid points (the
paper-scale L = 160, k = 10 grid has 16 points -> ~8x).
"""

import numpy as np
import pytest

from bench_common import format_table, make_field_engine, time_call
from tests.oracles.displaced import displaced_greens, displaced_series_fast

CASES = [(20, 5), (40, 10), (80, 10)]  # (L, k)


def _naive_series(factory, field, k):
    out = []
    for c in range(field.n_slices // k):
        out.append(
            displaced_greens(factory, field, 1, (c + 1) * k - 1)
        )
    return out


def test_ablation_tau_series(benchmark, report):
    rows = []
    speedups = []
    for L, k in CASES:
        factory, field, _ = make_field_engine(
            6, 6, u=4.0, n_slices=L, cluster=k, seed=L
        )
        t_naive = time_call(_naive_series, factory, field, k, repeats=1)
        t_fast = time_call(
            lambda: displaced_series_fast(factory, field, 1, k), repeats=1
        )
        # identical results
        naive = _naive_series(factory, field, k)
        _, fast = displaced_series_fast(factory, field, 1, k)
        err = max(
            float(np.linalg.norm(a - b) / np.linalg.norm(a))
            for a, b in zip(naive, fast)
        )
        assert err < 1e-9, (L, k, err)
        speedups.append(t_naive / t_fast)
        rows.append(
            [f"L={L}, k={k}", L // k, f"{t_naive*1e3:.1f}",
             f"{t_fast*1e3:.1f}", f"{t_naive/t_fast:.1f}x"]
        )
    report(
        "ablation_tau_series",
        format_table(
            ["case", "grid points", "per-tau (ms)", "incremental (ms)",
             "speedup"],
            rows,
        ),
    )
    assert speedups[-1] > 2.0, "incremental series must win on long grids"
    assert speedups[-1] > speedups[0], "and win more as the grid grows"

    factory, field, _ = make_field_engine(6, 6, u=4.0, n_slices=40, cluster=10)
    benchmark(displaced_series_fast, factory, field, 1, 10)
