"""String registry of execution backends: ``get_backend("threaded")``.

One knob selects the execution layer everywhere — `Simulation`,
`SimulationConfig` input files, `repro run --backend`, the
``$REPRO_BACKEND`` — :mod:`repro.options` turns the knob into a name
and this module turns the name into a backend instance, with every
failure mode loud: unknown names list the registry,
and unknown options raise from the backend constructor.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Union

from .base import BackendError, BaseBackend

__all__ = [
    "register_backend",
    "get_backend",
    "known_backends",
    "resolve_backend",
]

#: name -> backend class (imported lazily where construction is heavy).
_REGISTRY: Dict[str, Callable[..., BaseBackend]] = {}

#: guards _REGISTRY: registration is lazy, and the first get_backend()
#: can happen on several ensemble worker threads at once.
_REGISTRY_LOCK = threading.Lock()


def register_backend(name: str, factory: Callable[..., BaseBackend]) -> None:
    """Add (or replace) a backend under ``name``."""
    with _REGISTRY_LOCK:
        _REGISTRY[name] = factory


def _ensure_builtin_registered() -> None:
    with _REGISTRY_LOCK:
        if _REGISTRY:
            return
        from .gpu_sim import SimulatedGPUBackend
        from .numpy_backend import NumpyBackend
        from .threaded import ThreadedBackend

        _REGISTRY["numpy"] = NumpyBackend
        _REGISTRY["threaded"] = ThreadedBackend
        _REGISTRY["gpu-sim"] = SimulatedGPUBackend


def known_backends() -> List[str]:
    """Every registered name."""
    _ensure_builtin_registered()
    return sorted(_REGISTRY)


def get_backend(name: str, **options) -> BaseBackend:
    """Instantiate the backend registered under ``name``.

    Unknown names raise :class:`BackendError` listing the registry;
    option validation is the constructor's job (unknown options raise
    there, loudly, instead of being dropped).
    """
    _ensure_builtin_registered()
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name](**options)


def resolve_backend(
    spec: Union[str, BaseBackend], factory=None, **options
) -> BaseBackend:
    """Turn a backend spec into an instance — the one place that does.

    A string goes through :func:`get_backend`; an existing instance
    passes through (options are then rejected — they could not be
    applied). With ``factory`` the backend comes back bound to it (one
    already serving that factory is left alone). Library-level functions
    default with ``resolve_backend(backend or "numpy")`` — a fresh serial
    backend per call, deaf to the environment, and no hidden module-level
    singleton that threaded ensembles would race on.
    """
    if isinstance(spec, str):
        spec = get_backend(spec, **options)
    elif not isinstance(spec, BaseBackend):
        raise BackendError(
            f"backend must be a name or a PropagatorBackend, got {type(spec)!r}"
        )
    elif options:
        raise BackendError(
            "cannot apply options to an already constructed backend "
            f"instance ({spec.name!r})"
        )
    # Identity is tracked on the *factory*, not the exponentials: under
    # a narrowed precision policy the bound expk is a realized copy, not
    # the factory's float64 master.
    if factory is not None and spec.bound_factory is not factory:
        spec.bind(factory)
    return spec
