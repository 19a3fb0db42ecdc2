"""repro — DQMC for the Hubbard model with pre-pivoted stratification.

A Python reproduction of Tomas, Chang, Scalettar & Bai, *Advancing Large
Scale Many-Body QMC Simulations on GPU Accelerated Multicore Systems*
(IPDPS 2012): the QUEST determinant quantum Monte Carlo pipeline, the
paper's communication-avoiding pre-pivoted stratification kernel, the
multicore parallelization strategy, and a simulated-GPU offload layer.

Quickstart::

    from repro import HubbardModel, SquareLattice, Simulation

    model = HubbardModel(SquareLattice(4, 4), u=2.0, beta=4.0, n_slices=40)
    sim = Simulation(model, seed=7)
    result = sim.run(warmup_sweeps=50, measurement_sweeps=200)
    print(result.summary())
"""

from .backends import (
    get_backend,
    known_backends,
    register_backend,
)
from .hamiltonian import (
    BMatrixFactory,
    HSField,
    HubbardModel,
    KineticPropagator,
    free_dispersion_2d,
    free_greens_function,
    hs_coupling,
)
from .lattice import (
    BrillouinZone,
    MultilayerLattice,
    SquareLattice,
    fourier_two_point,
    momentum_grid,
    symmetry_path,
)
from .dqmc import Simulation, SimulationConfig, SimulationResult, load_config
from .precision import (
    POLICIES,
    PrecisionError,
    PrecisionPolicy,
    resolve_policy,
)
from .profiling import PhaseProfiler
from .stats import RunController, StreamingAccumulator
from .telemetry import (
    MetricsRegistry,
    NumericalHealthWatchdog,
    Telemetry,
    TelemetryWriter,
    WatchdogConfig,
)

__version__ = "1.0.0"

__all__ = [
    "BMatrixFactory",
    "BrillouinZone",
    "HSField",
    "HubbardModel",
    "KineticPropagator",
    "MetricsRegistry",
    "MultilayerLattice",
    "NumericalHealthWatchdog",
    "PhaseProfiler",
    "POLICIES",
    "PrecisionError",
    "PrecisionPolicy",
    "RunController",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "SquareLattice",
    "StreamingAccumulator",
    "Telemetry",
    "TelemetryWriter",
    "WatchdogConfig",
    "load_config",
    "resolve_policy",
    "__version__",
    "get_backend",
    "known_backends",
    "register_backend",
    "fourier_two_point",
    "free_dispersion_2d",
    "free_greens_function",
    "hs_coupling",
    "momentum_grid",
    "symmetry_path",
]
