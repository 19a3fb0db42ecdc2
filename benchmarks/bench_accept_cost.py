"""Layer evidence: microseconds per ``DelayedUpdater.accept``.

The per-site Metropolis loop spends most of its time in the delayed
update's accept (paper Sec. II-B): one batched line product and a handful
of ufuncs on ``(S, N)`` operands, each costing about a microsecond at the
sizes DQMC runs. This bench times one accept of the spin-stacked updater
(S = 2, the sweep's ``max_delay`` of 32) at pending m in {0, 16, 31}, and
one flush of 32 pending updates, for N in {64, 256} x {float64, float32}.
Every round visits every cell once, in alternating order, so a drift of
the machine's load reaches all cells alike; each cell reports the median
and quartiles over the rounds.

It asserts only that the stacked updater reproduces two single-sector
updaters bit for bit, so it cannot time a wrong kernel. It asserts no
speed: the numbers are evidence for the per-chain floor of the site loop
(ROADMAP item 5), not a headline.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_accept_cost.py -s``
"""

import importlib.util
import subprocess
import time
from pathlib import Path

import numpy as np

from bench_common import format_table
from repro.core import DelayedUpdater

SIZES = (64, 256)
DTYPES = (np.float64, np.float32)
PENDING = (0, 16, 31)
#: the harness's delay; updaters are built one larger so the accept at
#: m = 31 is timed without the flush it would trigger
DELAY = 32
ROUNDS = 300
ROOT = Path(__file__).resolve().parents[1]


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _blas_threads():
    """OpenBLAS thread count, read the way the e2e harness reads it."""
    spec = importlib.util.spec_from_file_location(
        "e2e_child", ROOT / "benchmarks" / "e2e" / "child.py"
    )
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.blas_info()["threads"]


def _stack(n, dtype, seed=0):
    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    return np.stack(
        [0.5 * eye + 0.05 * rng.normal(size=eye.shape) for _ in range(2)]
    ).astype(dtype)


def _moves(n, count, seed):
    """``count`` accepted flips: a site and both sectors' flip factors."""
    rng = np.random.default_rng(seed)
    return [
        (int(i), (float(a), float(b)))
        for i, a, b in zip(
            rng.integers(n, size=count),
            0.3 * rng.normal(size=count),
            0.3 * rng.normal(size=count),
        )
    ]


def _denominators(upd, i, alphas):
    return tuple(
        1.0 + a * (1.0 - upd.diag_element(i, s)) for s, a in enumerate(alphas)
    )


def _accept(upd, i, alphas):
    ds = _denominators(upd, i, alphas)
    upd.accept(i, alphas, ds)
    return ds


def check_stack_matches_sectors(n, dtype):
    """The stacked kernel against one updater per sector, bit for bit:
    diagonals and pending slots after every accept, G after the flushes."""
    g = _stack(n, dtype, seed=1)
    both = DelayedUpdater(g.copy(), max_delay=DELAY)
    singles = [DelayedUpdater(gs.copy(), max_delay=DELAY) for gs in g]
    for i, alphas in _moves(n, 2 * DELAY + 5, seed=2):
        ds = _accept(both, i, alphas)
        for upd, a, d in zip(singles, alphas, ds):
            upd.accept(i, a, d)
        m = both.pending
        for s, upd in enumerate(singles):
            assert np.array_equal(both.diag[s], upd.diag[0])
            assert np.array_equal(both._pending[:m, :, s], upd._pending[:m, :, 0])
    both.flush()
    for s, upd in enumerate(singles):
        upd.flush()
        assert np.array_equal(both.g[s], upd.g)


class _Cell:
    """One (N, dtype) updater restarted from the same G for every sample."""

    def __init__(self, n, dtype):
        self.g0 = _stack(n, dtype)
        self.g = self.g0.copy()
        self.upd = DelayedUpdater(self.g, max_delay=DELAY + 1)
        self.moves = _moves(n, DELAY + 1, seed=n)

    def _restart(self, m):
        upd = self.upd
        upd.flush()
        np.copyto(self.g, self.g0)
        upd.anchor(self.g)
        for i, alphas in self.moves[:m]:
            _accept(upd, i, alphas)

    def time_accept(self, m):
        self._restart(m)
        i, alphas = self.moves[m]
        ds = _denominators(self.upd, i, alphas)
        t0 = time.perf_counter()
        self.upd.accept(i, alphas, ds)
        return time.perf_counter() - t0

    def time_flush(self):
        self._restart(DELAY)
        t0 = time.perf_counter()
        self.upd.flush()
        return time.perf_counter() - t0


def measure(rounds=ROUNDS):
    """Microseconds per call, keyed ``((n, dtype), m)`` with m a pending
    count or ``"flush"``."""
    cells = {(n, dt): _Cell(n, dt) for n in SIZES for dt in DTYPES}
    ops = [(key, m) for key in cells for m in (*PENDING, "flush")]
    samples = {op: [] for op in ops}
    for r in range(rounds):
        for key, m in ops if r % 2 == 0 else ops[::-1]:
            cell = cells[key]
            t = cell.time_flush() if m == "flush" else cell.time_accept(m)
            samples[key, m].append(t * 1e6)
    return samples


def test_accept_cost(report):
    for n in SIZES:
        for dt in DTYPES:
            check_stack_matches_sectors(n, dt)
    samples = measure()
    rows = []
    for (n, dt), m in samples:
        q1, med, q3 = np.percentile(samples[(n, dt), m], [25, 50, 75])
        op = "flush of 32" if m == "flush" else f"accept at m={m}"
        rows.append([n, np.dtype(dt).name, op, f"{med:.2f}", f"{q1:.2f}", f"{q3:.2f}"])
    header = (
        f"git {_git_revision()}  BLAS threads {_blas_threads()}  "
        f"S = 2 sectors, {ROUNDS} interleaved rounds, microseconds per call\n"
    )
    report(
        "accept_cost",
        header + format_table(["N", "dtype", "operation", "median", "q1", "q3"], rows),
    )
