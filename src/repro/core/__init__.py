"""The paper's core contribution: stable, fast Green's function evaluation.

* :mod:`repro.core.stratification` — Algorithms 2 (QRP) and 3
  (pre-pivoted QR, the paper's kernel).
* :mod:`repro.core.clustering` / :mod:`repro.core.recycling` — k-slice
  matrix clustering and the cross-sweep cluster cache.
* :mod:`repro.core.wrapping` — slice-to-slice similarity transforms.
* :mod:`repro.core.delayed_update` — block rank-1 Metropolis updates.
* :mod:`repro.core.greens` — the engine tying all of the above together.
"""

from .clustering import build_clusters, cluster_product, cluster_slices
from .delayed_update import DelayedUpdater, delay_ladder
from .greens import GreensFunctionEngine
from .recycling import ClusterCache
from .stratification import (
    METHODS,
    IncrementalStratifier,
    StratificationMethod,
    StratificationStats,
    stratified_decomposition,
    stratified_inverse,
)
from .wrapping import wrap_backward, wrap_forward

__all__ = [
    "METHODS",
    "ClusterCache",
    "IncrementalStratifier",
    "DelayedUpdater",
    "GreensFunctionEngine",
    "StratificationMethod",
    "StratificationStats",
    "build_clusters",
    "cluster_product",
    "cluster_slices",
    "delay_ladder",
    "stratified_decomposition",
    "stratified_inverse",
    "wrap_backward",
    "wrap_forward",
]
