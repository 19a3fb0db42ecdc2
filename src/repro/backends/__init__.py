"""Pluggable execution backends for the Green's-function pipeline.

One protocol (:class:`PropagatorBackend`), three implementations:

* ``"numpy"`` — serial reference (:class:`NumpyBackend`);
* ``"threaded"`` — worker-pool fine-grain kernels, paper Sec. IV-B
  (:class:`ThreadedBackend`);
* ``"gpu-sim"`` — simulated-GPU offload of clustering and wrapping,
  paper Sec. VI (:class:`SimulatedGPUBackend`).

Select by name anywhere a ``backend=`` knob exists (engine, Simulation,
input files, ``repro run --backend``) or via ``$REPRO_BACKEND``; see
``docs/architecture.md`` for the protocol and how to add a backend.
"""

from .base import (
    BackendError,
    BaseBackend,
    PropagatorBackend,
)
from .gpu_sim import SimulatedGPUBackend
from .numpy_backend import NumpyBackend
from .registry import (
    get_backend,
    known_backends,
    register_backend,
    resolve_backend,
)
from .threaded import ThreadedBackend

__all__ = [
    "BackendError",
    "BaseBackend",
    "NumpyBackend",
    "PropagatorBackend",
    "SimulatedGPUBackend",
    "ThreadedBackend",
    "get_backend",
    "known_backends",
    "register_backend",
    "resolve_backend",
]
