"""Tuning parameters and candidate-grid generation.

The paper hand-picks three engineering knobs per machine (Sec. III /
Table I): the cluster size k (slice propagators pre-multiplied per QR
step), the wrap interval l (slices between fresh re-stratifications) and
the delayed-update block size. In this package — as in QUEST and the
paper's own runs — l is k: a fresh stratification happens at every
cluster boundary, so a :class:`TuningParameters` is the pair
(cluster size, delay block).

The candidate grid is bounded by the same conditioning analysis that
backs ``repro info`` (:mod:`repro.linalg.condition`): cluster sizes are
divisors of ``n_slices`` near the largest *safe* k, and delay blocks
come from the :class:`~repro.core.DelayedUpdater` ladder capped at the
site count (a block wider than N flushes at rank N anyway).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import List, Optional, Sequence

__all__ = [
    "TuningParameters",
    "divisors",
    "divisor_near",
    "cluster_size_candidates",
    "candidate_grid",
]


@dataclass(frozen=True)
class TuningParameters:
    """One point in the (cluster size, delay) space; the wrap interval
    is the cluster size (the engine re-stratifies at cluster
    boundaries, as the paper's k = l = 10 runs do)."""

    cluster_size: int
    max_delay: int

    def __post_init__(self) -> None:
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TuningParameters":
        extra = sorted(set(d) - {f.name for f in fields(cls)})
        if extra:
            raise ValueError(
                f"unknown tuning key(s) {', '.join(map(repr, extra))}: "
                "a profile holds only cluster_size and max_delay"
            )
        return cls(int(d["cluster_size"]), int(d["max_delay"]))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"k={self.cluster_size}, delay={self.max_delay}"


def divisors(n: int) -> List[int]:
    """All positive divisors of ``n``, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_near(n: int, target: int, cap: Optional[int] = None) -> int:
    """The divisor of ``n`` nearest ``target`` (ties prefer the smaller,
    better-conditioned choice).

    Divisors are preferred from the window ``2 <= d <= cap`` (``cap``
    is the conditioning-safe bound); only when that window contains no
    divisor at all — prime ``n_slices``, say, where the choices are 1
    and n — does the search fall back to every divisor, so a prime L
    yields L (one big, slightly over-budget cluster) instead of the
    pathological k = 1 the old walk-down produced.
    """
    divs = divisors(n)
    preferred = [d for d in divs if d >= 2 and (cap is None or d <= cap)]
    pool = preferred or divs
    return min(pool, key=lambda d: (abs(d - target), d))


def cluster_size_candidates(
    n_slices: int,
    target: int = 10,
    cap: Optional[int] = None,
    max_candidates: int = 4,
) -> List[int]:
    """Candidate cluster sizes: divisors of ``n_slices`` near ``target``.

    Ranked by distance to the target (ties toward the smaller, safer
    size) and truncated to ``max_candidates``; returned ascending. The
    same preference window as :func:`divisor_near` applies, so k = 1
    only ever appears when nothing else divides ``n_slices``.
    """
    if max_candidates < 1:
        raise ValueError("max_candidates must be >= 1")
    divs = divisors(n_slices)
    preferred = [d for d in divs if d >= 2 and (cap is None or d <= cap)]
    pool = preferred or divs
    ranked = sorted(pool, key=lambda d: (abs(d - target), d))
    return sorted(ranked[:max_candidates])


def candidate_grid(
    n_slices: int,
    n_sites: int,
    baseline: TuningParameters,
    target_cluster: int = 10,
    cluster_cap: Optional[int] = None,
    delays: Optional[Sequence[int]] = None,
    max_candidates: int = 12,
) -> List[TuningParameters]:
    """The deterministic candidate list a warmup tune searches.

    The baseline (the run's configured parameters) is always first, so
    the tuner can never choose something slower than the defaults *as
    measured* — the defaults are themselves a candidate. The rest is the
    product of cluster sizes near the target and the delay ladder, in
    sorted order, truncated to ``max_candidates`` total.
    """
    from ..core.delayed_update import delay_ladder

    clusters = cluster_size_candidates(
        n_slices, target=target_cluster, cap=cluster_cap
    )
    if baseline.cluster_size not in clusters and (
        n_slices % baseline.cluster_size == 0
    ):
        clusters = sorted(set(clusters) | {baseline.cluster_size})
    delay_list = sorted(set(delays)) if delays else delay_ladder(n_sites)
    if baseline.max_delay not in delay_list:
        delay_list = sorted(set(delay_list) | {baseline.max_delay})
    grid = [baseline]
    for k in clusters:
        for m in delay_list:
            cand = TuningParameters(k, m)
            if cand != baseline:
                grid.append(cand)
            if len(grid) >= max_candidates:
                return grid
    return grid
