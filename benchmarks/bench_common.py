"""Shared non-fixture helpers for the benchmark suite."""

from __future__ import annotations

import time

import numpy as np


def time_call(fn, *args, repeats: int = 3, **kwargs) -> float:
    """Best-of-N wall-clock seconds for one call (series plotting only;
    headline numbers go through pytest-benchmark)."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def dense_gemm_lattice(lx, ly):
    """The lx x ly torus as a ``GeneralLattice`` bond list.

    Same K, but no separable structure for the factory to exploit, so
    ``exp(-dtau K)`` stays the dense N x N GEMM of the paper's Algorithms
    4-7 — what the benches whose premise *is* that GEMM must keep timing
    (on a plain ``SquareLattice`` the kinetic factor is applied as its
    ``lx x lx`` / ``ly x ly`` Kronecker blocks instead).
    """
    from repro import SquareLattice
    from repro.lattice import GeneralLattice

    adj = SquareLattice(lx, ly).adjacency
    pairs = zip(*np.nonzero(np.triu(adj, 1)))
    return GeneralLattice(
        lx * ly, tuple((int(i), int(j), float(adj[i, j])) for i, j in pairs)
    )


def make_field_engine(
    lx, ly, *, u=2.0, beta=None, n_slices=40, cluster=10, seed=0,
    method="prepivot", profiler=None,
):
    """A ready-to-run (factory, field, engine) triple at bench scale."""
    from repro import BMatrixFactory, HSField, HubbardModel, SquareLattice
    from repro.core import GreensFunctionEngine

    beta = beta if beta is not None else n_slices * 0.125
    model = HubbardModel(
        SquareLattice(lx, ly), u=u, beta=beta, n_slices=n_slices
    )
    rng = np.random.default_rng(seed)
    field = HSField.random(n_slices, model.n_sites, rng)
    factory = BMatrixFactory(model)
    engine = GreensFunctionEngine(
        factory, field, method=method, cluster_size=cluster, profiler=profiler
    )
    return factory, field, engine


def format_table(header, rows) -> str:
    """Fixed-width text table."""
    widths = [
        max(len(str(header[c])), *(len(str(r[c])) for r in rows))
        for c in range(len(header))
    ]

    def fmt(row):
        return "  ".join(str(v).rjust(w) for v, w in zip(row, widths))

    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
