"""Declarative sweep specs: a parameter grid becomes a list of jobs.

The paper's capability results (Figs 5-7) are not single runs but
*campaigns*: grids of (U, beta, mu, L) points, each an independent DQMC
run. A :class:`CampaignSpec` captures one such grid declaratively —

* ``base``: fixed :class:`~repro.dqmc.SimulationConfig` keys shared by
  every job (lattice size, dtau, sweep counts, ...),
* ``grid``: keys swept over lists of values (cartesian product), and
* ``replicas``: independent seeds per grid point —

and :meth:`CampaignSpec.expand` turns it into a deterministic list of
:class:`JobSpec`. Determinism is the load-bearing property:

* **Seeds** come from ``np.random.SeedSequence(base_seed).spawn(...)``
  — the documented way to derive mutually independent PCG64 streams.
  Each job stores only its ``spawn_key``; the worker reconstructs the
  identical stream as ``SeedSequence(entropy=base_seed,
  spawn_key=key)``, so a retried or resumed job replays the same
  Markov chain bit-for-bit.
* **Job IDs** are content hashes (sha256 over the canonical JSON of the
  resolved parameters + seed derivation), so the same physics point
  always lands in the same catalog slot and a re-expanded spec can be
  matched against an existing manifest.

The ``backend`` key may ride in ``base`` or ``grid`` like any other —
each job resolves it through the :mod:`repro.backends` registry, so one
campaign can shard its jobs across execution backends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from ..dqmc.config import SimulationConfig

__all__ = ["CampaignSpec", "JobSpec", "SpecError", "canonical_json", "content_hash"]

#: keys a spec may never set directly — the campaign layer owns them.
_RESERVED_KEYS = ("seed",)


class SpecError(ValueError):
    """Malformed or inconsistent campaign spec."""


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj, length: int = 12) -> str:
    """Stable content hash of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:length]


@dataclass(frozen=True)
class JobSpec:
    """One fully-resolved job: a config point plus its derived seed.

    ``spawn_key`` and ``seed_entropy`` reconstruct the job's
    ``SeedSequence`` exactly; ``job_id`` is a content hash over
    everything the Markov chain depends on, so identical physics always
    hashes identically and any parameter change changes the id.
    """

    index: int
    params: Dict[str, object]
    seed_entropy: int
    spawn_key: Tuple[int, ...]
    job_id: str = ""

    def __post_init__(self):
        if not self.job_id:
            object.__setattr__(self, "job_id", self.compute_id())

    def compute_id(self) -> str:
        return content_hash(
            {
                "params": self.params,
                "seed_entropy": self.seed_entropy,
                "spawn_key": list(self.spawn_key),
            }
        )

    def config(self) -> SimulationConfig:
        """The job's validated :class:`SimulationConfig`."""
        cfg = SimulationConfig(**self.params)
        cfg.validate()
        return cfg

    def seed_sequence(self):
        """Reconstruct the job's independent PCG64 seed stream."""
        import numpy as np

        return np.random.SeedSequence(
            entropy=self.seed_entropy, spawn_key=self.spawn_key
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "id": self.job_id,
            "params": dict(self.params),
            "seed_entropy": self.seed_entropy,
            "spawn_key": list(self.spawn_key),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        return cls(
            index=int(d["index"]),
            params=dict(d["params"]),
            seed_entropy=int(d["seed_entropy"]),
            spawn_key=tuple(d["spawn_key"]),
            job_id=d.get("id", ""),
        )


@dataclass
class CampaignSpec:
    """A declarative sweep: base config x parameter grid x replicas."""

    name: str = "campaign"
    base: Dict[str, object] = field(default_factory=dict)
    grid: Dict[str, Sequence] = field(default_factory=dict)
    replicas: int = 1
    base_seed: int = 0
    #: measurement sweeps between intra-job checkpoints (0 = only
    #: implicit end-of-job state; interrupted jobs then restart clean).
    checkpoint_every: int = 100

    def __post_init__(self):
        if self.replicas < 1:
            raise SpecError("replicas must be >= 1")
        if self.checkpoint_every < 0:
            raise SpecError("checkpoint_every must be >= 0")
        known = {f.name for f in dataclasses.fields(SimulationConfig)}
        for section, keys in (("base", self.base), ("grid", self.grid)):
            for key in keys:
                if key in _RESERVED_KEYS:
                    raise SpecError(
                        f"{section} key {key!r} is campaign-managed: per-job "
                        "seeds derive from base_seed via SeedSequence.spawn"
                    )
                if key not in known:
                    raise SpecError(
                        f"{section} key {key!r} is not a SimulationConfig "
                        f"field (known: {', '.join(sorted(known))})"
                    )
        overlap = set(self.base) & set(self.grid)
        if overlap:
            raise SpecError(
                f"keys in both base and grid: {', '.join(sorted(overlap))}"
            )
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError(f"grid key {key!r} needs a non-empty list")

    # -- derived -------------------------------------------------------------

    @property
    def n_points(self) -> int:
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n

    @property
    def n_jobs(self) -> int:
        return self.n_points * self.replicas

    def spec_hash(self) -> str:
        return content_hash(self.to_dict())

    def expand(self) -> List[JobSpec]:
        """The deterministic job list: sorted grid keys, cartesian
        product in each key's listed value order, replicas innermost.

        Every job's parameters are validated through
        :meth:`SimulationConfig.validate` (including the backend /
        precision / kinetic names) *here*, at expansion time — a bad grid
        point fails before any job is scheduled.
        """
        keys = sorted(self.grid)
        jobs: List[JobSpec] = []
        index = 0
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            point = dict(self.base)
            point.update(dict(zip(keys, combo)))
            # Full resolved parameter set (defaults included) so the
            # job id pins *everything* the run depends on.
            cfg = SimulationConfig(**point)
            cfg.validate()
            params = dataclasses.asdict(cfg)
            del params["seed"]  # campaign-managed (see _RESERVED_KEYS)
            for _ in range(self.replicas):
                jobs.append(
                    JobSpec(
                        index=index,
                        params=params,
                        seed_entropy=self.base_seed,
                        spawn_key=(index,),
                    )
                )
                index += 1
        return jobs

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": dict(self.base),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "replicas": self.replicas,
            "base_seed": self.base_seed,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignSpec":
        unknown = set(d) - {
            "name", "base", "grid", "replicas", "base_seed",
            "checkpoint_every",
        }
        if unknown:
            raise SpecError(f"unknown spec keys: {', '.join(sorted(unknown))}")
        return cls(
            name=str(d.get("name", "campaign")),
            base=dict(d.get("base", {})),
            grid=dict(d.get("grid", {})),
            replicas=int(d.get("replicas", 1)),
            base_seed=int(d.get("base_seed", 0)),
            checkpoint_every=int(d.get("checkpoint_every", 100)),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError("spec JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())
