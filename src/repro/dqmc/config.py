"""QUEST-style plain-text input files.

QUEST configures lattice size and physical parameters "very generally
through an input file" (paper Sec. I). This module reads the same kind of
``key = value`` file (``#`` comments, case-insensitive keys) into a typed
:class:`SimulationConfig`, from which a model and simulation are built::

    nx      = 8        # lattice x extent
    ny      = 8
    nlayers = 1        # > 1 selects the multilayer geometry
    u       = 2.0
    mu      = 0.0
    dtau    = 0.125
    l       = 40       # number of time slices (beta = l * dtau)
    nwarm   = 100
    npass   = 400
    seed    = 7
    method  = prepivot # or qrp
    north   = 10       # cluster size k (QUEST's name for it)
    ndelay  = 32
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union

from ..core.stratification import check_method
from ..hamiltonian import HubbardModel
from ..lattice import MultilayerLattice, SquareLattice
from ..options import OptionError, RunOptions, resolve_options
from .simulation import Simulation

__all__ = ["SimulationConfig", "parse_config", "load_config"]


@dataclass
class SimulationConfig:
    """Typed view of an input file. Field names double as file keys."""

    nx: int = 4
    ny: int = 4
    nlayers: int = 1
    u: float = 2.0
    t: float = 1.0
    tperp: float = 1.0
    mu: float = 0.0
    dtau: float = 0.125
    l: int = 40
    nwarm: int = 100
    npass: int = 400
    seed: int = 0
    method: str = "prepivot"
    north: int = 10
    ndelay: int = 32
    nmeas: int = 1
    #: execution backend name; "auto" (here and in the two keys below)
    #: leaves the choice to the environment, then the default
    backend: str = "auto"
    #: precision policy name (full64 / mixed / fast32)
    precision: str = "auto"
    #: kinetic propagator (exact / checkerboard) — checkerboard feeds
    #: the same lx x lx / ly x ly block pipeline Trotter-split blocks,
    #: at the cost of one more O(dtau^2) term
    kinetic: str = "auto"
    #: 1 = pick (cluster size, delay) from the tuning cache / a warmup
    #: autotune pass instead of trusting north/ndelay (see
    #: docs/performance.md); 0 = run exactly what the file says
    autotune: int = 0
    #: > 0 = error-targeted stopping: measure until the sign-corrected
    #: relative error of target_obs reaches this value (npass becomes
    #: the sweep *budget*); 0 = fixed npass sweeps
    target_error: float = 0.0
    #: observable whose relative error target_error aims at
    target_obs: str = "density"

    @property
    def beta(self) -> float:
        return self.l * self.dtau

    def model(self) -> HubbardModel:
        if self.nlayers > 1:
            lattice = MultilayerLattice(self.nx, self.ny, self.nlayers)
        else:
            lattice = SquareLattice(self.nx, self.ny)
        return HubbardModel(
            lattice,
            u=self.u,
            t=self.t,
            t_perp=self.tperp,
            mu=self.mu,
            beta=self.beta,
            n_slices=self.l,
        )

    def options(self) -> RunOptions:
        """The backend / precision / kinetic this config runs with: its
        keys where set, else the environment, else the defaults."""
        return resolve_options(self.backend, self.precision, self.kinetic)

    def validate(self) -> "SimulationConfig":
        """Check cross-field consistency; returns self for chaining.

        Shared by :func:`parse_config` and the campaign spec expansion,
        so a bad method/cluster/backend combination fails identically
        whether it arrives from an input file or a sweep grid. The
        *resolved* options are checked, so a flag or ``$REPRO_*`` value
        fails like the file key would.
        """
        check_method(self.method)
        if self.l % self.north != 0:
            raise ValueError(
                f"north = {self.north} must divide l = {self.l} "
                "(cluster boundaries must tile the time axis)"
            )
        # Unknown names are configuration errors, caught here before
        # any model is built (nothing is constructed).
        options = self.options()
        if options.kinetic == "checkerboard" and self.nlayers > 1:
            raise OptionError(
                "kinetic",
                self.kinetic,
                options.kinetic,
                "cannot partition a multilayer stack into disjoint bond "
                "groups; use kinetic = 'exact' for nlayers > 1",
            )
        if self.target_error < 0:
            raise ValueError(
                f"target_error = {self.target_error} must be >= 0 "
                "(0 disables error-targeted stopping)"
            )
        if not self.target_obs or "/" in self.target_obs:
            raise ValueError(f"bad target_obs {self.target_obs!r}")
        return self

    def controller(self):
        """The configured :class:`repro.stats.RunController`, or None
        when ``target_error`` is 0 (fixed-budget run)."""
        if not self.target_error:
            return None
        from ..stats import RunController

        return RunController(
            target_observable=self.target_obs,
            target_error=self.target_error,
        )

    def simulation(self, telemetry=None, watchdog=None, seed=None) -> Simulation:
        """Build the configured :class:`Simulation`.

        ``telemetry`` / ``watchdog`` are runtime concerns (a Telemetry
        facade and a WatchdogConfig), not physics, so they ride as
        arguments rather than input-file keys — the same input file must
        describe the same Markov chain with or without observability.
        ``seed`` overrides the file's integer seed and may be anything
        ``np.random.default_rng`` accepts — the campaign layer passes a
        spawned ``SeedSequence`` here so jobs get independent streams.
        """
        return Simulation(
            self.model(),
            seed=self.seed if seed is None else seed,
            method=self.method,
            cluster_size=self.north,
            max_delay=self.ndelay,
            measurements_per_sweep=self.nmeas,
            telemetry=telemetry,
            watchdog=watchdog,
            backend=self.backend,
            precision=self.precision,
            kinetic=self.kinetic,
        )

    def dumps(self) -> str:
        """Serialize back to input-file text (round-trips with parse)."""
        out = io.StringIO()
        for f in fields(self):
            out.write(f"{f.name} = {getattr(self, f.name)}\n")
        return out.getvalue()


def parse_config(text: str, **overrides) -> SimulationConfig:
    """Parse input-file text. Unknown keys raise (typos must not pass
    silently); types are coerced from the dataclass annotations.
    ``overrides`` (the CLI's flags) replace the file's keys before the
    one validation, so a flag outranks the key it shadows."""
    known = {f.name: f.type for f in fields(SimulationConfig)}
    coerce = {"int": int, "float": float, "str": str}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        typ = known[key]
        typ_name = typ if isinstance(typ, str) else typ.__name__
        try:
            values[key] = coerce[typ_name](val)
        except (KeyError, ValueError) as exc:
            raise ValueError(
                f"line {lineno}: cannot parse {val!r} as {typ_name} for {key!r}"
            ) from exc
    return SimulationConfig(**{**values, **overrides}).validate()


def load_config(path: Union[str, Path], **overrides) -> SimulationConfig:
    """Read and parse an input file from disk (see :func:`parse_config`)."""
    return parse_config(Path(path).read_text(), **overrides)
