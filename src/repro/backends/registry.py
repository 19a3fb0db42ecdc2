"""String registry of execution backends: ``get_backend("threaded")``.

One knob selects the execution layer everywhere — `Simulation`,
`SimulationConfig` input files, `repro run --backend`, the
``REPRO_BACKEND`` environment variable — and this module is where the
knob's value becomes a backend instance, with every failure mode loud:
unknown names list the registry, unknown options raise from the backend
constructor, unavailable backends (cupy without cupy) explain what is
missing, and method/backend combinations are validated at configuration
time rather than deep inside the first sweep.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Union

from .base import BackendError, BaseBackend

__all__ = [
    "register_backend",
    "get_backend",
    "available_backends",
    "known_backends",
    "default_backend_name",
    "resolve_backend",
    "validate_backend_method",
]

#: name -> backend class (imported lazily where construction is heavy).
_REGISTRY: Dict[str, Callable[..., BaseBackend]] = {}

#: guards _REGISTRY: registration is lazy, and the first get_backend()
#: can happen on several ensemble worker threads at once.
_REGISTRY_LOCK = threading.Lock()

#: environment variable consulted when no backend is requested explicitly.
ENV_VAR = "REPRO_BACKEND"


def register_backend(name: str, factory: Callable[..., BaseBackend]) -> None:
    """Add (or replace) a backend under ``name``."""
    with _REGISTRY_LOCK:
        _REGISTRY[name] = factory


def _ensure_builtin_registered() -> None:
    with _REGISTRY_LOCK:
        if _REGISTRY:
            return
        from .cupy_backend import CupyBackend
        from .gpu_sim import SimulatedGPUBackend
        from .numpy_backend import NumpyBackend
        from .threaded import ThreadedBackend

        _REGISTRY["numpy"] = NumpyBackend
        _REGISTRY["threaded"] = ThreadedBackend
        _REGISTRY["gpu-sim"] = SimulatedGPUBackend
        _REGISTRY["cupy"] = CupyBackend


def known_backends() -> List[str]:
    """Every registered name, available or not."""
    _ensure_builtin_registered()
    return sorted(_REGISTRY)


def available_backends() -> List[str]:
    """Registered names whose runtime dependencies are present."""
    _ensure_builtin_registered()
    out = []
    for name in sorted(_REGISTRY):
        if name == "cupy":
            from .cupy_backend import cupy_available

            if not cupy_available():
                continue
        out.append(name)
    return out


def _require_registered(name) -> Callable[..., BaseBackend]:
    _ensure_builtin_registered()
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name]


def get_backend(name: str, **options) -> BaseBackend:
    """Instantiate the backend registered under ``name``.

    Unknown names raise :class:`BackendError` listing the registry;
    option validation is the constructor's job (unknown options raise
    there, loudly, instead of being dropped).
    """
    return _require_registered(name)(**options)


def default_backend_name() -> str:
    """The name used when nothing is requested: ``$REPRO_BACKEND`` or numpy."""
    return os.environ.get(ENV_VAR, "").strip() or "numpy"


def resolve_backend(
    spec: Union[None, str, BaseBackend], **options
) -> BaseBackend:
    """Turn a backend spec into an instance — the one place that does.

    ``None`` consults ``$REPRO_BACKEND`` (default "numpy"); a string goes
    through :func:`get_backend`; an existing instance passes through
    (options are then rejected — they could not be applied). The engine
    passes its ``backend`` argument straight in; library-level functions
    default with ``resolve_backend(backend or "numpy")`` — a fresh serial
    backend per call, deaf to the environment, and no hidden module-level
    singleton that threaded ensembles would race on.
    """
    if isinstance(spec, BaseBackend):
        if options:
            raise BackendError(
                "cannot apply options to an already constructed backend "
                f"instance ({spec.name!r})"
            )
        return spec
    if spec is None:
        spec = default_backend_name()
    if not isinstance(spec, str):
        raise BackendError(
            f"backend must be a name or a PropagatorBackend, got {type(spec)!r}"
        )
    return get_backend(spec, **options)


def validate_backend_method(
    backend: Union[str, BaseBackend], method: str
) -> None:
    """Reject an unknown method or backend name at configuration time.

    ``backend`` may be a name (nothing is constructed — config parsing
    must stay side-effect free) or an instance. Every backend drives
    every method: the QR chain itself runs on the host, as in the
    paper's hybrid division of labour.
    """
    from ..core.stratification import METHODS

    if method not in METHODS:
        raise BackendError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )
    if not isinstance(backend, BaseBackend):
        _require_registered(backend)
