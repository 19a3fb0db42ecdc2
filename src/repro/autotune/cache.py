"""Persistent tuning-profile cache: tune once, reuse across jobs.

A campaign grid re-runs the same (lattice, beta, U, backend) point with
many seeds and mu values; the winning engineering parameters are a
property of the *machine and workload shape*, not of the Markov chain,
so they are tuned once and cached. The cache is a single JSON file
(default ``~/.cache/repro/tuning.json``, overridable per call or via
``$REPRO_TUNE_CACHE``) written atomically — temp file, flush + fsync,
``os.replace`` — so concurrent campaign workers can read it while a
tune is being persisted and a crash mid-write never corrupts it.

Hit/miss counters are persisted in the file itself so ``repro info``
can report how much re-tuning the cache has saved across sessions.
Concurrent stat bumps are last-writer-wins (the counters are advisory;
the profiles themselves are only ever added deterministically).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from ..options import RunOptions, resolve_options
from .params import TuningParameters

__all__ = ["TuningCache", "default_cache_path", "profile_key"]

#: 2: a profile is exactly ``TuningParameters.to_dict()``; a version-1
#: file (wrap interval, optional precision / kinetic, trial metadata)
#: loads as empty and its workloads re-tune.
_FORMAT_VERSION = 2


def default_cache_path() -> Path:
    """``$REPRO_TUNE_CACHE``, else ``$XDG_CACHE_HOME/repro/tuning.json``,
    else ``~/.cache/repro/tuning.json``."""
    env = os.environ.get("REPRO_TUNE_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "tuning.json"


def profile_key(
    model, options: Optional[RunOptions] = None, method: str = "prepivot"
) -> str:
    """The cache key of one workload shape.

    Keyed on everything that changes which engineering parameters win:
    the lattice (matrix size and structure), U and beta (conditioning),
    the slice count (which sizes divide L), the pivoting method and the
    execution backend of the run's resolved ``options`` (``sim.options``
    / ``cfg.options()``; None: an all-unset run). Deliberately *not*
    keyed on mu or seed — a chemical-potential calibration sweeps mu at
    fixed everything-else and must reuse one profile across the bisection.
    """
    backend = (options or resolve_options()).names()["backend"]
    return (
        f"{model.lattice}|U={model.u:g}|beta={model.beta:g}"
        f"|L={model.n_slices}|{method}|{backend}"
    )


class TuningCache:
    """Atomic, fsync'd JSON store of per-workload tuning profiles."""

    def __init__(self, path: Union[str, Path, None] = None):
        self.path = Path(path) if path is not None else default_cache_path()
        #: lookups served from the file this session
        self.session_hits = 0
        #: lookups that found no profile this session
        self.session_misses = 0

    # -- file I/O ------------------------------------------------------------

    def _load(self) -> dict:
        """The parsed cache document, or a fresh one.

        A missing, torn or foreign file degrades to an empty cache: the
        worst outcome of a corrupt cache must be a re-tune, never a
        crash or a bogus profile.
        """
        try:
            doc = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return self._fresh()
        if not isinstance(doc, dict) or doc.get("version") != _FORMAT_VERSION:
            return self._fresh()
        doc.setdefault("stats", {"hits": 0, "misses": 0})
        doc.setdefault("profiles", {})
        return doc

    @staticmethod
    def _fresh() -> dict:
        return {
            "version": _FORMAT_VERSION,
            "stats": {"hits": 0, "misses": 0},
            "profiles": {},
        }

    def _write(self, doc: dict) -> None:
        """Atomic durable write: temp sibling + fsync + rename."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)

    # -- queries -------------------------------------------------------------

    def peek(self, key: str) -> Optional[TuningParameters]:
        """Like :meth:`lookup` but without touching the hit/miss stats
        (scheduler pre-scans use this so they don't inflate the counts
        the actual jobs then earn)."""
        entry = self._load()["profiles"].get(key)
        return TuningParameters.from_dict(entry) if entry else None

    def lookup(self, key: str) -> Optional[TuningParameters]:
        """The cached winner for ``key``, bumping the persisted counters."""
        doc = self._load()
        entry = doc["profiles"].get(key)
        if entry is not None:
            doc["stats"]["hits"] = int(doc["stats"].get("hits", 0)) + 1
            self.session_hits += 1
        else:
            doc["stats"]["misses"] = int(doc["stats"].get("misses", 0)) + 1
            self.session_misses += 1
        try:
            self._write(doc)
        except OSError:
            pass  # read-only cache location: serve the lookup anyway
        return TuningParameters.from_dict(entry) if entry else None

    def store(self, key: str, params: TuningParameters) -> None:
        """Persist the winning parameters."""
        doc = self._load()
        doc["profiles"][key] = params.to_dict()
        self._write(doc)

    def entries(self) -> Dict[str, dict]:
        """Every stored profile, keyed by workload."""
        return dict(self._load()["profiles"])

    def stats(self) -> Dict[str, int]:
        """Persisted cumulative hit/miss counters."""
        stats = self._load()["stats"]
        return {
            "hits": int(stats.get("hits", 0)),
            "misses": int(stats.get("misses", 0)),
        }
