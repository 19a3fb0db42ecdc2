"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import json

import numpy as np

from repro.lattice import GeneralLattice
from repro.stats import StreamingAccumulator


def dense_chain(factory, field, sigma):
    """All slice B matrices, rightmost-first."""
    return [factory.b_matrix(field, l, sigma) for l in range(field.n_slices)]


def brute_product(factory, field, sigma):
    """Unstabilized B_L ... B_1 for benign chains."""
    out = np.eye(factory.n)
    for b in dense_chain(factory, field, sigma):
        out = b @ out
    return out


def brute_greens(factory, field, sigma):
    """Unstabilized (I + B_L ... B_1)^{-1}; benign chains only."""
    return np.linalg.inv(np.eye(factory.n) + brute_product(factory, field, sigma))


def dense_twin(lattice):
    """``lattice``'s bonds as a ``GeneralLattice``: the same K bit for bit
    with none of the rectangle's structure, so the factory keeps the dense
    ``exp(-dtau K)`` GEMM path."""
    adj = lattice.adjacency
    pairs = zip(*np.nonzero(np.triu(adj, 1)))
    return GeneralLattice(
        adj.shape[0], tuple((int(i), int(j), float(adj[i, j])) for i, j in pairs)
    )


def relerr(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def noisy_wraps(engine, monkeypatch, rel=1e-4, seed=5):
    """Make every ``wrap_pair`` of ``engine`` return its result with
    ``rel`` relative noise on top: a wrap that drifts."""
    noise = np.random.default_rng(seed)
    clean = engine.wrap_pair

    def wrap_pair(gs, l):
        out = clean(gs, l)
        factor = 1.0 + rel * noise.standard_normal(out.shape)
        return out * factor.astype(out.dtype)

    monkeypatch.setattr(engine, "wrap_pair", wrap_pair)


class RecordingAccumulator(StreamingAccumulator):
    """The measurement accumulator plus a copy of every sample: what a
    run that retained its sample series would have checkpointed."""

    def __init__(self):
        super().__init__()
        self.samples = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(
            np.asarray(value, dtype=np.float64)
        )
        super().add(name, value)


def rewrite_as_series(path, samples):
    """Re-express a checkpoint the way a series-retaining run wrote it:
    one ``obs<i>`` member per observable (``i`` its position in
    ``observable_names``), no log-binned state."""
    with np.load(path, allow_pickle=False) as npz:
        header = json.loads(str(npz["header"]))
        payload = {"field": npz["field"]}
    del header["streaming"], header["stream_layout"]
    for i, name in enumerate(header["observable_names"]):
        if samples.get(name):
            payload[f"obs{i}"] = np.stack(samples[name])
    np.savez_compressed(path, header=np.array(json.dumps(header)), **payload)


def recording_displaced(monkeypatch):
    """Every ``G(tau_c, 0)`` pair a simulation's sweeps hand its dynamic
    sample, as ``(c, field copy at that boundary, (2, N, N) copy of the
    pair, sign)``
    (the driver looks ``sweep`` up on its module at call time)."""
    import repro.dqmc.simulation as driver

    seen = []
    inner = driver.sweep

    def recorded(engine, *args, on_displaced=None, **kwargs):
        def record(c, g_tau, sign):
            seen.append((c, engine.field.h.copy(), np.stack(g_tau), sign))
            on_displaced(c, g_tau, sign)

        hook = None if on_displaced is None else record
        return inner(engine, *args, on_displaced=hook, **kwargs)

    monkeypatch.setattr(driver, "sweep", recorded)
    return seen
