"""Warmup-time autotuning of the Green's-function pipeline knobs.

The three engineering parameters the paper hand-tunes per machine —
cluster size k, wrap interval l (= k here) and the delayed-update block
size — are measured here instead: candidate settings run for a few
warmup sweeps each on the live engine, timed through the phase profiler
and gated on the numerical-health watchdog's wrap-drift/dynamic-range
signals, and the fastest healthy candidate is locked for the
measurement sweeps.
Winners persist in an atomic per-workload profile cache so campaign
grids tune once and reuse the profile across every job.
"""

from .cache import TuningCache, default_cache_path, profile_key
from .params import (
    TuningParameters,
    candidate_grid,
    cluster_size_candidates,
    divisor_near,
    divisors,
)
from .tuner import (
    AutotuneResult,
    TuningTrial,
    WarmupAutotuner,
    tune_simulation,
)

__all__ = [
    "AutotuneResult",
    "TuningCache",
    "TuningParameters",
    "TuningTrial",
    "WarmupAutotuner",
    "candidate_grid",
    "cluster_size_candidates",
    "default_cache_path",
    "divisor_near",
    "divisors",
    "profile_key",
    "tune_simulation",
]
