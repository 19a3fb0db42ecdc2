"""Tuning parameters and candidate-grid generation.

The paper hand-picks three engineering knobs per machine (Sec. III /
Table I): the cluster size k (slice propagators pre-multiplied per QR
step), the wrap interval l (slices between fresh re-stratifications) and
the delayed-update block size. In this package — as in QUEST and the
paper's own runs — k and l are tied: a fresh stratification happens
every ``cluster_size`` wraps, so one :class:`TuningParameters` carries
all three with ``wrap_interval == cluster_size`` enforced.

The candidate grid is bounded by the same conditioning analysis that
backs ``repro info`` (:mod:`repro.linalg.condition`): cluster sizes are
divisors of ``n_slices`` near the largest *safe* k, and delay blocks
come from the :class:`~repro.core.DelayedUpdater` ladder capped at the
site count (a block wider than N flushes at rank N anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..options import resolve_option

__all__ = [
    "TuningParameters",
    "divisors",
    "divisor_near",
    "cluster_size_candidates",
    "candidate_grid",
]


@dataclass(frozen=True)
class TuningParameters:
    """One point in the (cluster size, wrap interval, delay) space.

    ``wrap_interval`` must equal ``cluster_size``: the engine
    re-stratifies exactly at cluster boundaries (the paper runs
    k = l = 10 for the same reason), so the two knobs move together.
    The field is kept explicit so cached profiles stay honest about what
    was tuned if a future engine decouples them.
    """

    cluster_size: int
    wrap_interval: int
    max_delay: int
    #: precision-policy name to run under, or None to keep whatever the
    #: simulation already uses (the historical three-knob profile).
    precision: Optional[str] = None
    #: kinetic propagator mode (exact / checkerboard), or None to keep
    #: whatever the simulation already uses.
    kinetic: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if self.wrap_interval != self.cluster_size:
            raise ValueError(
                "wrap_interval must equal cluster_size (the engine "
                "re-stratifies at cluster boundaries; k and l are tied)"
            )
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        for option in ("precision", "kinetic"):
            if getattr(self, option) is not None:
                resolve_option(option, getattr(self, option))  # unknown names raise

    @classmethod
    def make(
        cls,
        cluster_size: int,
        max_delay: int,
        precision: Optional[str] = None,
        kinetic: Optional[str] = None,
    ) -> "TuningParameters":
        """The canonical constructor with the wrap interval tied to k."""
        return cls(
            cluster_size=int(cluster_size),
            wrap_interval=int(cluster_size),
            max_delay=int(max_delay),
            precision=precision,
            kinetic=kinetic,
        )

    def to_dict(self) -> dict:
        d = {
            "cluster_size": self.cluster_size,
            "wrap_interval": self.wrap_interval,
            "max_delay": self.max_delay,
        }
        # Only when set — keeps cached three-knob profiles byte-stable
        # and lets old caches round-trip without precision/kinetic keys.
        if self.precision is not None:
            d["precision"] = self.precision
        if self.kinetic is not None:
            d["kinetic"] = self.kinetic
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TuningParameters":
        return cls(
            cluster_size=int(d["cluster_size"]),
            wrap_interval=int(d.get("wrap_interval", d["cluster_size"])),
            max_delay=int(d["max_delay"]),
            precision=d.get("precision"),
            kinetic=d.get("kinetic"),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        text = (
            f"k={self.cluster_size}, l={self.wrap_interval}, "
            f"delay={self.max_delay}"
        )
        if self.precision is not None:
            text += f", precision={self.precision}"
        if self.kinetic is not None:
            text += f", kinetic={self.kinetic}"
        return text


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
    precisions: Optional[Sequence[Optional[str]]] = None,
    kinetics: Optional[Sequence[Optional[str]]] = None,
) -> List[TuningParameters]:
    """The deterministic candidate list a warmup tune searches.

    The baseline (the run's configured parameters) is always first, so
    the tuner can never choose something slower than the defaults *as
    measured* — the defaults are themselves a candidate. The rest is the
    cartesian product of cluster sizes near the target, the delay
    ladder and (when given) the ``precisions`` / ``kinetics`` axes, in
    sorted order, truncated to ``max_candidates`` total. Both optional
    axes default to "keep the run's configured value" only — tuning
    never silently narrows precision or swaps the kinetic propagator
    unless explicitly asked to (both change the floating-point
    trajectory, which is the user's call).
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
    precision_list: List[Optional[str]] = (
        list(precisions) if precisions else [baseline.precision]
    )
    if baseline.precision not in precision_list:
        precision_list.insert(0, baseline.precision)
    kinetic_list: List[Optional[str]] = (
        list(kinetics) if kinetics else [baseline.kinetic]
    )
    if baseline.kinetic not in kinetic_list:
        kinetic_list.insert(0, baseline.kinetic)

    # The kinetic axis varies fastest: a requested mode swap is the
    # most expensive hypothesis to leave untested, so every (k, delay)
    # point tries all modes before the grid moves on — truncation can
    # shrink the cluster/delay coverage but never starve an explicitly
    # requested kinetics axis.
    grid = [baseline]
    for p in precision_list:
        for k in clusters:
            for m in delay_list:
                for kin in kinetic_list:
                    cand = TuningParameters.make(
                        k, m, precision=p, kinetic=kin
                    )
                    if cand != baseline:
                        grid.append(cand)
                    if len(grid) >= max_candidates:
                        return grid
    return grid
