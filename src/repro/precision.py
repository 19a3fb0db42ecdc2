"""Precision policies: every dtype decision in the pipeline, in one place.

The paper's GPU target (Tesla C2050, Sec. V) has a 2:1 single-to-double
peak-FLOP ratio, and the dominant DQMC cost — clustered B-matrix GEMMs
and Green's-function wrapping — is exactly the work that tolerates
reduced precision *provided the graded QR stabilization stays in
double*. A :class:`PrecisionPolicy` makes that split explicit:

``compute_dtype``
    The dtype of the propagator pipeline's hot path: cluster products,
    wrap/unwrap, the equal-time Green's function between
    re-stratifications, and the delayed-update rank-1 buffers.

``SPINE_DTYPE``
    Not a policy field but one module constant, float64: the dtype of
    the stabilization spine (graded QR factorizations, the diagonal
    scales ``D``, and the stratified inverse that refreshes ``G``). No
    policy narrows it — the spine is what keeps ``exp(beta * bandwidth)``
    dynamic range representable at all.

``drift_scale``
    Multiplier applied to the watchdog's wrap-drift tolerance. Reduced
    precision legitimately drifts more between refreshes (float32 eps is
    ~1e-7 against float64's ~2e-16); the scale keeps the default
    tolerance meaningful per policy instead of tripping on healthy runs.

Two policies ship:

========  =============  ===========
name      compute        drift scale
========  =============  ===========
full64    float64        1
mixed     float32        100
========  =============  ===========

``full64`` is the default and is bit-identical to the historical
pipeline (its coercions are no-ops). ``mixed`` is the paper-motivated
fast path; the spine stays double under both, as the paper requires. A
``health_alert`` under ``mixed`` promotes the running engine to
:attr:`PrecisionPolicy.safer` (``full64``) in place rather than failing
the run.

Everything below deliberately lives *outside* ``core/``, ``linalg/``,
``hamiltonian/`` and ``backends/`` — qmclint rule QL008 flags literal
dtype pins inside those packages so that this module stays the single
choke point for narrowing decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

__all__ = [
    "PrecisionPolicy",
    "PrecisionError",
    "POLICIES",
    "PROMOTION_LADDER",
    "resolve_policy",
    "SPINE_DTYPE",
]

# The two dtypes the pipeline is allowed to narrow between. Spelled via
# np.dtype(<name>) so the policy module itself stays the only place a
# narrow float is ever named.
_F32 = np.dtype("float32")
_F64 = np.dtype("float64")

#: the stabilization spine's dtype under every policy
SPINE_DTYPE = _F64


class PrecisionError(ValueError):
    """Unknown policy name or malformed precision spec."""


@dataclass(frozen=True)
class PrecisionPolicy:
    """An immutable (compute dtype, tolerance scale) pair."""

    name: str
    compute_dtype: np.dtype
    drift_scale: float
    description: str = field(default="", compare=False)

    # -- dtype application ---------------------------------------------------

    def compute(self, a) -> np.ndarray:
        """``a`` as an ndarray in the compute dtype (no-op if it already
        is — under ``full64`` this preserves object identity)."""
        return np.asarray(a, dtype=self.compute_dtype)

    # -- the promotion ladder ------------------------------------------------

    @property
    def safer(self) -> Optional["PrecisionPolicy"]:
        """The next-safer policy, or None if already at ``full64``.

        This is the watchdog's promotion target: ``mixed`` -> ``full64``.
        """
        i = PROMOTION_LADDER.index(self.name)
        if i + 1 >= len(PROMOTION_LADDER):
            return None
        return POLICIES[PROMOTION_LADDER[i + 1]]

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.name


#: least-safe first; promotion walks right.
PROMOTION_LADDER = ("mixed", "full64")

POLICIES: Dict[str, PrecisionPolicy] = {
    "full64": PrecisionPolicy(
        name="full64",
        compute_dtype=_F64,
        drift_scale=1.0,
        description="float64 everywhere (historical pipeline, bit-exact)",
    ),
    "mixed": PrecisionPolicy(
        name="mixed",
        compute_dtype=_F32,
        drift_scale=100.0,
        description=(
            "float32 cluster products / wrapping / delayed updates, "
            "float64 graded-QR stabilization spine and accumulators"
        ),
    ),
}


def resolve_policy(spec: Union[str, PrecisionPolicy]) -> PrecisionPolicy:
    """Look up a policy by name; a :class:`PrecisionPolicy` passes through.

    Unknown names raise :class:`PrecisionError` listing the valid
    choices. What an *unset* precision means (``$REPRO_PRECISION``, then
    ``full64``) is :func:`repro.options.resolve_options`' business.
    """
    if isinstance(spec, PrecisionPolicy):
        return spec
    if not isinstance(spec, str):
        raise PrecisionError(
            f"precision spec must be a name or PrecisionPolicy, got "
            f"{type(spec).__name__}"
        )
    try:
        return POLICIES[spec]
    except KeyError:
        raise PrecisionError(
            f"unknown precision policy {spec!r} "
            f"(choose from: {', '.join(PROMOTION_LADDER[::-1])})"
        ) from None
