"""Simulation checkpointing: suspend and resume long runs bit-exactly.

The paper's headline run took 36 hours on a dedicated node; production
DQMC cannot afford to lose such a run to a node reclaim. A checkpoint
captures everything the Markov chain's future depends on:

* the HS field configuration,
* the Metropolis RNG state (PCG64 bit-generator state),
* the running configuration sign and the next sweep's direction,
* the log-binned measurement state and sweep counters.

Resuming from a checkpoint and continuing for n sweeps produces *exactly*
the same numbers as never having stopped (tested), because everything
else in the simulation (cluster caches, Green's functions) is derived
state that rebuilds on demand.

Format: a single ``.npz`` holding the arrays plus a JSON header — no
pickle, so checkpoints are portable and safe to load.

Atomicity guarantee: :func:`save_checkpoint` writes to a temporary file
in the destination directory and ``os.replace``-s it into place, so a
crash, out-of-disk, or node reclaim *during* a save can never destroy
the previous good checkpoint — the file at ``path`` is always either
the old complete checkpoint or the new complete one, never a torn write.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

import numpy as np

from ..hamiltonian import HSField
from ..stats.stream import (
    STREAM_MEMBER,
    checkpoint_accumulator,
    pack_state_arrays,
)
from .simulation import Simulation

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

#: 2: the log-binned state is one packed member plus a layout table in
#: the header (1: one member per state array). Both load, and so do
#: files that retained per-name sample series (``obs<i>`` members).
_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)


class CheckpointError(RuntimeError):
    """Unusable or incompatible checkpoint file."""


def _rng_state_to_json(rng: np.random.Generator) -> str:
    state = rng.bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise CheckpointError(
            f"only PCG64 streams are checkpointable, got "
            f"{state['bit_generator']}"
        )
    return json.dumps(
        {
            "state": str(state["state"]["state"]),
            "inc": str(state["state"]["inc"]),
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"],
        }
    )


def _rng_state_from_json(text: str) -> dict:
    raw = json.loads(text)
    return {
        "bit_generator": "PCG64",
        "state": {"state": int(raw["state"]), "inc": int(raw["inc"])},
        "has_uint32": raw["has_uint32"],
        "uinteger": raw["uinteger"],
    }


def save_checkpoint(path: Union[str, Path], sim: Simulation) -> None:
    """Write the simulation's resumable state to ``path`` (.npz).

    The write is atomic with respect to crashes: the archive is built in
    a temporary sibling file and renamed over ``path`` only once fully
    written, so an interrupted save leaves any previous checkpoint
    intact (see the module docstring).
    """
    acc = sim.collector.accumulator
    # The log-binned Welford state (plus tracked control series) is the
    # whole resumable measurement state: O(log n) floats per observable.
    stream, stream_layout = pack_state_arrays(acc.state_arrays())
    header = {
        "version": _FORMAT_VERSION,
        "rng": _rng_state_to_json(sim.rng),
        "sign": sim._sign,
        "observable_names": list(acc.names()),
        "stats": {
            "proposed": sim.total_stats.proposed,
            "accepted": sim.total_stats.accepted,
            "negative_ratios": sim.total_stats.negative_ratios,
            "refreshes": sim.total_stats.refreshes,
            "singular_rejects": sim.total_stats.singular_rejects,
        },
        "model": {
            "u": sim.model.u,
            "beta": sim.model.beta,
            "n_slices": sim.model.n_slices,
            "n_sites": sim.model.n_sites,
        },
        # Active precision-policy name. The watchdog may have *promoted*
        # the engine mid-run, so this is live engine state, not config:
        # resuming must continue on the promoted rung to stay bit-exact.
        "precision": sim.precision,
        "measured_sweeps": sim.measured_sweeps,
        # the next sweep's direction and the watchdog's cadence
        "sweep_parity": sim._sweep_parity,
        "sweep_index": sim._sweep_index,
        "streaming": acc.state_meta(),
        "stream_layout": stream_layout,
    }
    controller = getattr(sim, "controller", None)
    if controller is not None:
        header["controller"] = controller.state_dict()
    dest = Path(path)
    # Same directory as the destination so os.replace is a same-filesystem
    # rename (atomic on POSIX), never a copy.
    tmp = dest.with_name(dest.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                header=np.array(json.dumps(header)),
                field=sim.field.h,
                **{STREAM_MEMBER: stream},
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dest)
    finally:
        # Failed mid-write (disk full, kill signal unwinding): drop the
        # partial temp file; the previous checkpoint at `dest` is intact.
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: Union[str, Path], sim: Simulation) -> Simulation:
    """Restore ``sim`` (a freshly constructed, matching Simulation) from
    a checkpoint written by :func:`save_checkpoint`.

    The caller constructs the Simulation with the same model and
    configuration; this function overwrites its stochastic state. A
    model mismatch (different U, beta, L or N) is rejected — resuming a
    checkpoint into a different physical system is always a bug.
    """
    with np.load(Path(path), allow_pickle=False) as npz:
        header = json.loads(str(npz["header"]))
        if header.get("version") not in _READABLE_VERSIONS:
            raise CheckpointError(
                f"unsupported checkpoint version {header.get('version')}"
            )
        m = header["model"]
        if (
            m["u"] != sim.model.u
            or m["beta"] != sim.model.beta
            or m["n_slices"] != sim.model.n_slices
            or m["n_sites"] != sim.model.n_sites
        ):
            raise CheckpointError(
                "checkpoint belongs to a different model: "
                f"{m} vs current "
                f"{{'u': {sim.model.u}, 'beta': {sim.model.beta}, "
                f"'n_slices': {sim.model.n_slices}, "
                f"'n_sites': {sim.model.n_sites}}}"
            )

        # field: replace contents in place so the engine's references hold
        field = np.asarray(npz["field"])
        if field.shape != sim.field.h.shape:
            raise CheckpointError("field shape mismatch")
        HSField(field)  # validates +-1 entries
        sim.field.h[...] = field
        sim.engine.invalidate_all()

        # Optional key (older checkpoints predate precision policies):
        # re-apply the policy that was live at save time, which may be a
        # promoted rung rather than whatever the config requested.
        saved_precision = header.get("precision")
        if saved_precision is not None:
            sim.set_precision(saved_precision)

        sim.rng.bit_generator.state = _rng_state_from_json(header["rng"])
        sim._sign = float(header["sign"])
        # absent in checkpoints written before they were saved
        sim._sweep_parity = int(header.get("sweep_parity", 0))
        sim._sweep_index = int(header.get("sweep_index", 0))
        st = header["stats"]
        sim.total_stats.proposed = int(st["proposed"])
        sim.total_stats.accepted = int(st["accepted"])
        sim.total_stats.negative_ratios = int(st["negative_ratios"])
        sim.total_stats.refreshes = int(st["refreshes"])
        # absent in checkpoints written before the singular-guard counter
        sim.total_stats.singular_rejects = int(st.get("singular_rejects", 0))

        # Replaces whatever the fresh simulation accumulated; a file of
        # retained series keeps the live tracking (an attached
        # controller's) through the replay.
        sim.collector.accumulator = checkpoint_accumulator(
            npz, header, track=sim.collector.accumulator.tracked_names
        )

        # Older checkpoints predate the sweep counter; fall back to the
        # sample-count heuristic (exact when nothing was discarded).
        # After the accumulator restore so the fallback sees the counts.
        sim.measured_sweeps = int(
            header.get(
                "measured_sweeps",
                sim.collector.n_measurements
                // max(1, sim.measurements_per_sweep),
            )
        )

        # Controller decision state (equilibration flag, discard count,
        # stop record): restored into an already-attached controller so
        # the resumed run replays the remaining decisions identically.
        ctl_state = header.get("controller")
        controller = getattr(sim, "controller", None)
        if ctl_state is not None and controller is not None:
            controller.restore_state(ctl_state)
    return sim
