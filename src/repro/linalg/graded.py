"""Graded (UDT) decompositions of long matrix products.

The stratification algorithms represent the running product
``B_i B_{i-1} ... B_1`` as ``Q @ diag(D) @ T`` where

* ``Q`` is orthogonal,
* ``D`` carries the (possibly enormous) dynamic range — the "grading",
* ``T`` is well-conditioned with unit-magnitude-ish rows (``D^{-1} R`` has
  unit diagonal).

Keeping the dynamic range quarantined inside the diagonal is what lets a
product whose condition number overflows double precision be manipulated
stably (Loh et al.; Bai, Lee, Li, Xu 2010).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GradedDecomposition", "split_scales"]


@dataclass
class GradedDecomposition:
    """A product represented as ``Q @ diag(d) @ T``.

    ``d`` is stored as a vector. Instances are value objects: operations
    that advance the chain build new instances.
    """

    q: np.ndarray
    d: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        n = self.q.shape[0]
        if self.q.shape != (n, n):
            raise ValueError("Q must be square")
        if self.d.shape != (n,):
            raise ValueError("d must be a length-n vector")
        if self.t.shape != (n, n):
            raise ValueError("T must be n x n")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def dense(self) -> np.ndarray:  # qmclint: disable=QL004
        """Materialize the product. Only safe when the grading is mild —
        benchmark/verification use, never in the stable pipeline (and
        deliberately off the FLOP ledger for the same reason)."""
        return self.q @ (self.d[:, None] * self.t)

    def grading_ratio(self) -> float:
        """max|d| / min|d| — the dynamic range the decomposition absorbs."""
        ad = np.abs(self.d)
        dmin = ad.min()
        if dmin == 0.0:
            return np.inf
        return float(ad.max() / dmin)

    def is_descending(self, rtol: float = 1e-12) -> bool:
        """Whether |d| is (weakly) descending — the *progressive graded
        structure* the pre-pivoting variant exploits."""
        ad = np.abs(self.d)
        return bool(np.all(ad[1:] <= ad[:-1] * (1.0 + rtol)))


def split_scales(d: np.ndarray) -> tuple:
    """The paper's D_b / D_s splitting of the graded diagonal.

    Returns vectors ``(db, ds)`` with ``d = ds / db`` elementwise:

    * where ``|d| > 1``:  ``db = 1/|d|`` and ``ds = sign(d)``;
    * elsewhere:          ``db = 1`` and ``ds = d``.

    ``db`` tames the large scales, ``ds`` keeps the small ones, and both
    stay bounded by 1 in magnitude so the final solve mixes only
    comparable numbers.
    """
    # Width follows the caller's scales (float64, the spine dtype, under
    # every policy); non-float inputs take the spine default.
    d = np.asarray(d)
    if d.dtype not in (np.dtype("float32"), np.dtype("float64")):
        d = np.asarray(d, dtype=np.float64)  # qmclint: disable=QL008 -- spine default for non-float inputs
    big = np.abs(d) > 1.0
    db = np.ones_like(d)
    ds = d.copy()
    db[big] = 1.0 / np.abs(d[big])
    ds[big] = np.sign(d[big])
    return db, ds
