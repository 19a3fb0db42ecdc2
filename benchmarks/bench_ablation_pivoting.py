"""Ablation: pivoting policy vs chain difficulty.

Full QRP (Algorithm 2) and pre-pivoting (Algorithm 3) against the
reference stratifiers of :mod:`tests.oracles.stratifier` - no pivoting
at all, LAPACK SVD and one-sided Jacobi SVD - on the adversarial chain
for grading: the *ordered*
(ferromagnetic) HS field, where every slice compounds the same
direction-dependent scales and the product's dynamic range grows
exponentially in beta. Shows both halves of the paper's claim:

1. pre-pivoting tracks full pivoting to ~1e-13 at every difficulty,
2. some grading control is genuinely required — with no pivoting the
   evaluation loses *all* accuracy (O(1) relative error) once beta*U is
   large, because nothing keeps the graded scales quarantined in D.

Plus the performance half on a paper-scale chain (L = 160, k = 10):
sequential pivot synchronization points (the communication-cost proxy,
n per QRP call vs 1 per pre-pivot) and wall-clock per evaluation.


Run from the repository root (``PYTHONPATH=src python -m pytest
benchmarks/...``) so ``tests`` imports."""

import warnings

import numpy as np
import pytest

from bench_common import format_table, make_field_engine, time_call
from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
from repro.core import (
    METHODS,
    GreensFunctionEngine,
    StratificationStats,
    stratified_inverse,
)
from tests.oracles.stratifier import oracle_inverse

BETAS = [5.0, 10.0, 20.0]


def _ordered_chain(u, beta):
    n_slices = int(round(beta / 0.125))
    model = HubbardModel(
        SquareLattice(4, 4), u=u, beta=beta, n_slices=n_slices
    )
    factory = BMatrixFactory(model)
    field = HSField.ordered(n_slices, model.n_sites)
    engine = GreensFunctionEngine(factory, field, cluster_size=8)
    return engine.cache.chain(1, 0)


def _inverse(chain, method, stats=None):
    """Algorithms 2 and 3 from the production switch, the rest from the
    oracle."""
    if method in METHODS:
        return stratified_inverse(chain, method=method, stats=stats)
    return oracle_inverse(chain, method, stats)


def test_ablation_pivoting_accuracy(benchmark, report):
    rows = []
    errs = {m: {} for m in ("prepivot", "nopivot", "svd", "jacobi")}
    for beta in BETAS:
        chain = _ordered_chain(u=8.0, beta=beta)
        ref = stratified_inverse(chain, method="qrp")
        scale = np.linalg.norm(ref)
        for m in errs:
            with warnings.catch_warnings():
                # the unpivoted / absolute-accuracy chains are *expected*
                # to go ill-conditioned here; that failure is the point
                warnings.simplefilter("ignore")
                g = _inverse(chain, m)
            errs[m][beta] = float(np.linalg.norm(g - ref) / scale)
        rows.append(
            [f"{beta:g}"] + [f"{errs[m][beta]:.2e}" for m in errs]
        )
    report(
        "ablation_pivoting_accuracy",
        format_table(
            ["beta (U=8, ordered field)"]
            + [f"{m} vs QRP" for m in errs],
            rows,
        ),
    )

    for beta in BETAS:
        assert errs["prepivot"][beta] < 1e-9, beta
        # relative-accuracy Jacobi-SVD stratification also survives
        assert errs["jacobi"][beta] < 1e-9, beta
    assert errs["nopivot"][BETAS[-1]] > 0.1, (
        "without any pivoting the hardest chain must lose all accuracy"
    )
    # the historical LAPACK-SVD route degrades too (absolute accuracy)
    assert errs["svd"][BETAS[-1]] > 1e-3

    chain = _ordered_chain(u=8.0, beta=BETAS[0])
    benchmark(stratified_inverse, chain, method="prepivot")


def test_ablation_pivoting_cost(benchmark, report):
    # paper-scale chain length: L = 160, k = 10 -> 16 chain steps, at a
    # matrix size where the QRP/QR kernel gap is clearly resolved
    factory, field, engine = make_field_engine(
        14, 14, u=6.0, beta=20.0, n_slices=160, cluster=10
    )
    chain = engine.cache.chain(1, 0)
    rows = []
    sync = {}
    times = {}
    for method in ("qrp", "prepivot", "nopivot"):
        stats = StratificationStats()
        _inverse(chain, method, stats)
        t = time_call(_inverse, chain, method)
        sync[method] = stats.sync_points
        times[method] = t
        rows.append([method, stats.sync_points, f"{t*1e3:.2f}"])
    report(
        "ablation_pivoting_cost",
        format_table(["method", "sync points", "eval time (ms)"], rows),
    )

    # 16 QRP calls x n sync points vs one full QRP + 15 single sorts
    assert sync["qrp"] > 10 * sync["prepivot"], "communication savings"
    assert times["prepivot"] < times["qrp"], "and it must be faster"

    benchmark(stratified_inverse, chain, method="prepivot")
