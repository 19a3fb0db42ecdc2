"""How a run executes, decided once: backend, precision policy, kinetic mode.

Each of the three can be set by constructor keyword, input-file key,
``repro run`` flag or environment variable, with one precedence chain::

    CLI flag  >  input-file key  >  $REPRO_*  >  default

This module is that chain. It is the only code in the package that reads
``$REPRO_BACKEND`` / ``$REPRO_PRECISION`` / ``$REPRO_KINETIC``, names the
fallbacks ``numpy`` / ``full64`` / ``exact`` or understands the ``"auto"``
input files write for "unset"; ``Simulation``, ``GreensFunctionEngine``,
``BMatrixFactory``, the backends, ``SimulationConfig`` and the CLI all ask
here, so a value fails the same way wherever it was written.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict

from .precision import POLICIES, PrecisionPolicy, resolve_policy

__all__ = ["OptionError", "RunOptions", "resolve_option", "resolve_options"]

#: option -> (environment variable, value of a run that sets it nowhere,
#: what an error message calls it).
_CHAIN = {
    "backend": ("REPRO_BACKEND", "numpy", "backend"),
    "precision": ("REPRO_PRECISION", "full64", "precision policy"),
    "kinetic": ("REPRO_KINETIC", "exact", "kinetic mode"),
}


def _unset(value) -> bool:
    """Whether ``value`` says "not set here, look further down the
    chain": ``None``, blank, or the ``"auto"`` input files write."""
    return value is None or (
        isinstance(value, str) and value.strip() in ("", "auto")
    )


class OptionError(ValueError):
    """The ``value`` an option resolved to, from ``given``, cannot run.

    ``str()`` leads with where the value was written - ``option = value``
    for a caller's, ``$REPRO_<OPTION>=value`` when ``from_env`` - then
    ``detail``, so one line is a complete report.
    """

    def __init__(self, option: str, given, value, detail: str):
        self.option, self.value, self.detail = option, value, detail
        #: the defaults can run, so a bad value the caller left unset
        #: was the environment's
        self.from_env = _unset(given)
        where = f"${_CHAIN[option][0]}=" if self.from_env else f"{option} = "
        super().__init__(f"{where}{value!r}: {detail}")


@dataclass(frozen=True)
class RunOptions:
    """The resolved triple. ``backend`` / ``precision`` are names unless
    the caller handed in a live backend / :class:`PrecisionPolicy`."""

    backend: object
    precision: object
    kinetic: str

    @property
    def policy(self) -> PrecisionPolicy:
        return resolve_policy(self.precision)

    def names(self) -> Dict[str, str]:
        """The triple as plain names - what provenance records store."""
        return {
            "backend": getattr(self.backend, "name", self.backend),
            "precision": self.policy.name,
            "kinetic": self.kinetic,
        }


def resolve_option(option: str, value=None):
    """Resolve and validate one option; the other two are not looked at.

    An unset ``value`` (``None``, blank, ``"auto"``) becomes
    ``$REPRO_<OPTION>``, else - that being unset too - the default. A live backend or
    :class:`PrecisionPolicy` passes through; anything else must be a name
    the backend registry, :data:`~repro.precision.POLICIES` or
    ``KINETIC_MODES`` knows, whichever link of the chain supplied it.
    """
    # Imported here: both packages construct through this module.
    from .backends.registry import BaseBackend, known_backends
    from .hamiltonian.bmatrix import KINETIC_MODES

    if option == "backend":
        live, choices = BaseBackend, known_backends()
    elif option == "precision":
        live, choices = PrecisionPolicy, tuple(POLICIES)
    else:
        live, choices = (), KINETIC_MODES
    if isinstance(value, live):
        return value
    env, default, noun = _CHAIN[option]
    given = value
    if _unset(value):
        value = os.environ.get(env, "")
        if _unset(value):
            value = default
    if isinstance(value, str):
        value = value.strip()
    if value not in choices:
        raise OptionError(
            option, given, value,
            f"unknown {noun} (choose from: {', '.join(choices)})",
        )
    return value


def resolve_options(backend=None, precision=None, kinetic=None) -> RunOptions:
    """:func:`resolve_option` for all three - what a driver asks, once.

    An unset precision next to a live backend is that backend's own
    policy (it arrives policy-complete).
    """
    if _unset(precision):
        precision = getattr(backend, "policy", precision)
    return RunOptions(
        resolve_option("backend", backend),
        resolve_option("precision", precision),
        resolve_option("kinetic", kinetic),
    )
