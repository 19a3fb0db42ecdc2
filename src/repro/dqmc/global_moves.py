"""Global Monte Carlo moves: whole-worldline spin flips.

The local Metropolis sweep (Algorithm 1) changes one (slice, site) entry
at a time; at strong coupling and low temperature the field develops
stiff imaginary-time "worldlines" (h_{l,i} nearly constant in l) that
single-entry flips cross only exponentially slowly. The standard remedy
is an occasional *global* move: propose flipping an entire site's column
``h[:, i] -> -h[:, i]`` and accept with the exact determinant ratio

    R = det M_+(h') det M_-(h') / det M_+(h) det M_-(h)

evaluated through the stratified log-determinant (no overflow, no
approximation — this move has no rank-1 shortcut, which is why it costs
a full O(L N^3 / k) evaluation and is proposed sparingly, typically once
per site per few sweeps).

Detailed balance: the proposal is symmetric (the flip is an involution),
so the bare ratio is the acceptance probability. The move composes with
the local sweep into a valid, more ergodic chain; the exact-enumeration
integration test covers the composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import GreensFunctionEngine

__all__ = ["GlobalMoveStats", "global_site_flips"]


@dataclass
class GlobalMoveStats:
    proposed: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    def merge(self, other: "GlobalMoveStats") -> None:
        self.proposed += other.proposed
        self.accepted += other.accepted


def global_site_flips(
    engine: GreensFunctionEngine,
    rng: np.random.Generator,
    n_proposals: int = 1,
    sites: np.ndarray | None = None,
    start_sign: float = 1.0,
) -> tuple:
    """Propose ``n_proposals`` whole-column flips; returns (stats, sign).

    Parameters
    ----------
    engine:
        The Green's function engine whose field is updated in place.
    rng:
        Metropolis randomness (site choice + acceptance).
    n_proposals:
        Number of flip proposals this call (sites drawn uniformly unless
        given explicitly).
    sites:
        Optional explicit site sequence (overrides ``n_proposals``).
    start_sign:
        Configuration sign entering the call; the updated sign is
        returned (it can flip when the determinant ratio is negative).
    """
    field = engine.field
    stats = GlobalMoveStats()
    sign = start_sign
    if sites is None:
        sites = rng.integers(0, field.n_sites, size=n_proposals)

    sign_cur, logw_cur = engine.log_weight()
    for i in sites:
        i = int(i)
        stats.proposed += 1
        # propose: flip the whole worldline of site i
        field.h[:, i] *= -1.0
        engine.invalidate_all()
        sign_new, logw_new = engine.log_weight()
        log_ratio = logw_new - logw_cur
        # accept with min(1, |R|); track the sign of R separately
        if np.log(rng.random()) < min(0.0, log_ratio):
            stats.accepted += 1
            if sign_new * sign_cur < 0:
                sign = -sign
            sign_cur, logw_cur = sign_new, logw_new
        else:
            field.h[:, i] *= -1.0
            engine.invalidate_all()
    return stats, sign
