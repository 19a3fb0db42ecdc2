"""Online log-binning: constant-memory Monte Carlo error analysis.

Keeping every per-sweep sample in RAM costs O(n) scalars and, for the
array observables (<n_k>, C_zz), O(n * N^2) doubles, which at the
paper's 32x32 beta=32 scale (3000 sweeps, N = 1024) is tens of
gigabytes. Log-binning runs the same binning analysis *streaming*: at
every power-of-two bin width ``2^k`` keep only a Welford (count, mean,
M2) triple plus at most one pending half-filled bin. Total state per
observable is O(log n) copies of the observable's shape — independent
of the run length. :class:`StreamingAccumulator` is how every run
measures.

Agreement contract with :func:`~repro.measure.binned_statistics` of
the same series (tested in ``tests/test_stats_stream.py``; see
``docs/analysis.md``):

* the **mean** uses every sample (level 0), whereas
  :func:`~repro.measure.binned_statistics` drops the trailing partial
  bin — identical when the bin width divides n, within the dropped
  tail's statistical weight otherwise;
* the **error** is read from the deepest level with at least the
  requested number of complete bins. When ``n = n_bins * 2^k`` the bin
  boundaries coincide exactly with the series analysis and the error
  matches to floating-point roundoff (Welford vs. two-pass summation);
  otherwise both are estimates of the same plateau and agree
  statistically.

Checkpointability: the full accumulator state round-trips losslessly
through :meth:`LogBinningAccumulator.state_meta` /
:meth:`~LogBinningAccumulator.state_arrays`, so a resumed run continues
the Welford recursions from the exact saved floats — bit-exact with an
uninterrupted run (the property :mod:`repro.dqmc.checkpoint` pins).
:func:`checkpoint_accumulator` reads that state back from any
checkpoint format, replaying the sample series of a file that retained
them instead.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..measure.estimators import BinnedEstimate

__all__ = [
    "LogBinningAccumulator",
    "StreamingAccumulator",
    "StreamingError",
    "checkpoint_accumulator",
    "pack_state_arrays",
]

#: 2^48 samples — beyond any conceivable run; bounds the level list.
_MAX_LEVELS = 48

#: checkpoint member holding the packed state arrays (format version 2);
#: version-1 files carry one ``stream/<key>`` member per array instead
STREAM_MEMBER = "stream"


def pack_state_arrays(arrays: Dict[str, np.ndarray]) -> Tuple[np.ndarray, list]:
    """Every state array end to end in one flat float64 array, plus the
    JSON-safe ``[key, shape]`` table that splits it back. (One zip member
    per tiny array made the per-member overhead most of a checkpoint.)"""
    layout = [[key, list(arr.shape)] for key, arr in arrays.items()]
    parts = [np.ravel(arr) for arr in arrays.values()]
    # the empty tail makes "no arrays yet" an empty member, not an error
    return np.concatenate(parts + [np.zeros(0)]), layout


def _checkpoint_state_arrays(npz, header: dict) -> Dict[str, np.ndarray]:
    """The state arrays of an open checkpoint, either stream format:
    split out of the packed member by ``header["stream_layout"]``, or
    gathered from the per-array members of a version-1 file."""
    layout = header.get("stream_layout")
    if layout is None:
        prefix = STREAM_MEMBER + "/"
        return {
            key[len(prefix):]: np.asarray(npz[key])
            for key in npz.files
            if key.startswith(prefix)
        }
    sizes = [int(np.prod(shape)) for _, shape in layout]
    # the last part takes whatever is left, so a member of the wrong
    # length fails its reshape instead of loading shifted state
    parts = np.split(np.asarray(npz[STREAM_MEMBER]), np.cumsum(sizes)[:-1])
    return {
        key: part.reshape(shape) for (key, shape), part in zip(layout, parts)
    }


def checkpoint_accumulator(
    npz, header: dict, track: Iterable[str] = ()
) -> "StreamingAccumulator":
    """The measurement accumulator an open checkpoint holds.

    Stream checkpoints (version 1 or 2) restore their log-binned state,
    tracked series included, exactly. A file that retained per-name
    sample series (``obs<i>`` members) instead has each series replayed
    through ``add`` in order — the state a log-binned run tracking
    ``track`` holds after the same samples. A name recorded with no
    samples stays absent, as it would in a live accumulator.
    """
    acc = StreamingAccumulator(track=track)
    meta = header.get("streaming")
    if meta is not None:
        acc.restore_state(meta, _checkpoint_state_arrays(npz, header))
        return acc
    for i, name in enumerate(header.get("observable_names", [])):
        key = f"obs{i}"
        if key in npz.files:
            for value in np.asarray(npz[key]):
                acc.add(name, value)
    return acc


class StreamingError(RuntimeError):
    """A sample series was asked of an observable whose series the
    accumulator does not retain (only tracked scalars keep one)."""


class _Level:
    """Welford state for one bin width: complete-bin count, running
    mean, running M2, and at most one pending half-filled bin."""

    __slots__ = ("count", "mean", "m2", "pending")

    def __init__(self, shape: Tuple[int, ...]):
        self.count = 0
        self.mean = np.zeros(shape, dtype=np.float64)
        self.m2 = np.zeros(shape, dtype=np.float64)
        self.pending: Optional[np.ndarray] = None


class LogBinningAccumulator:
    """Streaming log-binned statistics of one (scalar or array) observable.

    Level ``k`` sees the series averaged over non-overlapping windows of
    ``2^k`` consecutive samples; its Welford triple yields the standard
    error of those bin means. The level ladder grows logarithmically
    with the sample count; nothing else is retained.
    """

    def __init__(self, shape: Sequence[int] = ()):
        self.shape = tuple(int(s) for s in shape)
        self._levels: List[_Level] = []

    # -- accumulation --------------------------------------------------------

    def add(self, value) -> None:
        """Fold one sample into every bin level it completes."""
        x = np.asarray(value, dtype=np.float64)
        if x.shape != self.shape:
            raise ValueError(
                f"sample shape {x.shape} != accumulator shape {self.shape}"
            )
        carry: Optional[np.ndarray] = x
        level = 0
        while carry is not None and level < _MAX_LEVELS:
            if level == len(self._levels):
                self._levels.append(_Level(self.shape))
            lv = self._levels[level]
            lv.count += 1
            delta = carry - lv.mean
            lv.mean = lv.mean + delta / lv.count
            lv.m2 = lv.m2 + delta * (carry - lv.mean)
            if lv.pending is None:
                lv.pending = carry
                carry = None
            else:
                carry = 0.5 * (lv.pending + carry)
                lv.pending = None
            level += 1

    @property
    def n_samples(self) -> int:
        return self._levels[0].count if self._levels else 0

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    @property
    def mean(self) -> np.ndarray:
        """Mean over *all* samples (level 0 sees every one)."""
        if not self._levels:
            raise ValueError("no samples")
        return self._levels[0].mean.copy()

    def error(self, level: int) -> np.ndarray:
        """Standard error of the mean from level ``level``'s bin means."""
        lv = self._levels[level]
        if lv.count < 2:
            return np.full(self.shape, np.inf, dtype=np.float64)
        return np.sqrt(lv.m2 / (lv.count - 1) / lv.count)

    def estimate(self, n_bins: int = 16) -> BinnedEstimate:
        """The streaming analogue of :func:`~repro.measure.binned_statistics`.

        Reads the error from the deepest level still holding at least
        ``max(2, min(n_bins, n // 2))`` complete bins — the same
        shrink-when-short rule :func:`binned_statistics` applies.
        """
        n = self.n_samples
        if n == 0:
            raise ValueError("no samples")
        if n == 1:
            return BinnedEstimate(
                mean=self.mean,
                error=np.full(self.shape, np.inf, dtype=np.float64),
                n_bins=1,
                n_samples=1,
            )
        want = max(2, min(n_bins, n // 2))
        k = 0
        while (
            k + 1 < len(self._levels)
            and self._levels[k + 1].count >= want
        ):
            k += 1
        return BinnedEstimate(
            mean=self.mean,
            error=self.error(k),
            n_bins=self._levels[k].count,
            n_samples=n,
        )

    # -- merging (independent chains) ---------------------------------------

    def merge(self, other: "LogBinningAccumulator") -> None:
        """Fold an independent accumulator's levels into this one.

        Per level, Welford triples combine with Chan's parallel update
        (exact). The other accumulator's pending half-bins stay counted
        in the levels that already saw them but are not paired across
        the chain boundary — bins never straddle two independent chains
        (as if each chain's series were binned on its own).
        """
        if other.shape != self.shape:
            raise ValueError(
                f"cannot merge shape {other.shape} into {self.shape}"
            )
        for k, olv in enumerate(other._levels):
            if k == len(self._levels):
                self._levels.append(_Level(self.shape))
            lv = self._levels[k]
            na, nb = lv.count, olv.count
            if nb == 0:
                continue
            tot = na + nb
            delta = olv.mean - lv.mean
            lv.mean = lv.mean + delta * (nb / tot)
            lv.m2 = lv.m2 + olv.m2 + delta * delta * (na * nb / tot)
            lv.count = tot
            if lv.pending is None and olv.pending is not None:
                lv.pending = olv.pending.copy()

    # -- checkpoint state ----------------------------------------------------

    def state_meta(self) -> dict:
        """JSON-safe structure (counts and pending flags); the float
        state rides separately in :meth:`state_arrays`."""
        return {
            "shape": list(self.shape),
            "levels": [
                {"count": lv.count, "has_pending": lv.pending is not None}
                for lv in self._levels
            ],
        }

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Exact float64 state, keyed ``l<k>.mean`` / ``l<k>.m2`` /
        ``l<k>.pending`` — lossless, so resume is bit-exact."""
        out: Dict[str, np.ndarray] = {}
        for k, lv in enumerate(self._levels):
            out[f"l{k}.mean"] = lv.mean
            out[f"l{k}.m2"] = lv.m2
            if lv.pending is not None:
                out[f"l{k}.pending"] = lv.pending
        return out

    @classmethod
    def from_state(
        cls, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> "LogBinningAccumulator":
        acc = cls(tuple(meta["shape"]))
        for k, lv_meta in enumerate(meta["levels"]):
            lv = _Level(acc.shape)
            lv.count = int(lv_meta["count"])
            lv.mean = np.array(arrays[f"l{k}.mean"], dtype=np.float64)
            lv.m2 = np.array(arrays[f"l{k}.m2"], dtype=np.float64)
            if lv_meta["has_pending"]:
                lv.pending = np.array(
                    arrays[f"l{k}.pending"], dtype=np.float64
                )
            acc._levels.append(lv)
        return acc


class StreamingAccumulator:
    """The measurement accumulator: named samples in constant memory.

    Holds one :class:`LogBinningAccumulator` per observable name.
    ``reduce()`` returns a ``{name: BinnedEstimate}`` mapping, the one
    shape every downstream consumer (results archives, campaign
    catalogs, CLI summaries) reads.

    ``track(name)`` designates *scalar* observables whose full sample
    series is additionally retained (one float per sample — run-control
    state for equilibration detection and tau_int, not per-observable
    array storage; the O(log n) guarantee concerns the array-valued
    observables that dominate memory). :meth:`series` works for tracked
    names and raises :class:`StreamingError` for everything else.
    """

    def __init__(self, track: Iterable[str] = ()):
        self._accs: Dict[str, LogBinningAccumulator] = {}
        self._track: List[str] = []
        self._tracked: Dict[str, List[float]] = {}
        for name in track:
            self.track(name)

    # -- tracked scalar series ----------------------------------------------

    def track(self, name: str) -> None:
        """Retain ``name``'s scalar series (idempotent; call before or
        after samples exist — tracking starts from the next sample when
        samples were already folded in untracked)."""
        if name not in self._track:
            self._track.append(name)
            self._tracked.setdefault(name, [])

    @property
    def tracked_names(self) -> Tuple[str, ...]:
        return tuple(self._track)

    # -- accumulation -------------------------------------------------------

    def add(self, name: str, value) -> None:
        x = np.asarray(value, dtype=np.float64)
        acc = self._accs.get(name)
        if acc is None:
            acc = self._accs[name] = LogBinningAccumulator(x.shape)
        acc.add(x)
        if x.ndim == 0 and name in self._tracked:
            self._tracked[name].append(float(x))

    def names(self) -> Sequence[str]:
        return tuple(self._accs)

    def n_samples(self, name: str) -> int:
        acc = self._accs.get(name)
        return acc.n_samples if acc is not None else 0

    def series(self, name: str) -> np.ndarray:
        if name in self._tracked and name in self._accs:
            return np.asarray(self._tracked[name], dtype=np.float64)
        if name in self._accs:
            raise StreamingError(
                f"observable {name!r} is streamed (log-binned), its sample "
                "series is not retained; track() it before sampling"
            )
        raise KeyError(name)

    def estimate(self, name: str, n_bins: int = 16) -> BinnedEstimate:
        """Log-binned estimate of one observable."""
        if name not in self._accs:
            raise KeyError(name)
        return self._accs[name].estimate(n_bins=n_bins)

    def reduce(self, n_bins: int = 16) -> Dict[str, BinnedEstimate]:
        return {
            name: acc.estimate(n_bins=n_bins)
            for name, acc in self._accs.items()
            if acc.n_samples
        }

    def extend(self, other: "StreamingAccumulator") -> None:
        """Merge an independent chain's accumulator (see
        :meth:`LogBinningAccumulator.merge`)."""
        for name, oacc in other._accs.items():
            mine = self._accs.get(name)
            if mine is None:
                self._accs[name] = LogBinningAccumulator.from_state(
                    oacc.state_meta(), oacc.state_arrays()
                )
            else:
                mine.merge(oacc)
        for name, vals in other._tracked.items():
            if name in self._tracked:
                self._tracked[name].extend(vals)

    # -- run control ---------------------------------------------------------

    def reset(self) -> int:
        """Discard all accumulated samples but keep the observable
        registry (names, shapes, tracking). Returns how many samples of
        the first registered observable were dropped.

        This is the equilibration cut: a log-binned state cannot shed a
        *prefix*, so the controller drops everything collected before
        the detection point (coarse but unbiased — see
        docs/analysis.md).
        """
        dropped = 0
        for name, acc in self._accs.items():
            dropped = max(dropped, acc.n_samples)
            self._accs[name] = LogBinningAccumulator(acc.shape)
        for name in self._track:
            self._tracked[name] = []
        return dropped

    # -- checkpoint state ----------------------------------------------------

    def state_meta(self) -> dict:
        return {
            "names": list(self._accs),
            "track": list(self._track),
            "accs": {
                name: acc.state_meta() for name, acc in self._accs.items()
            },
        }

    def state_arrays(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for i, (name, acc) in enumerate(self._accs.items()):
            for key, arr in acc.state_arrays().items():
                out[f"s{i}.{key}"] = arr
        for j, name in enumerate(self._track):
            out[f"t{j}"] = np.asarray(
                self._tracked.get(name, []), dtype=np.float64
            )
        return out

    def restore_state(self, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
        self._accs.clear()
        self._track = list(meta["track"])
        self._tracked = {}
        for i, name in enumerate(meta["names"]):
            sub = {
                key[len(f"s{i}."):]: arr
                for key, arr in arrays.items()
                if key.startswith(f"s{i}.")
            }
            self._accs[name] = LogBinningAccumulator.from_state(
                meta["accs"][name], sub
            )
        for j, name in enumerate(self._track):
            vals = arrays.get(f"t{j}")
            self._tracked[name] = (
                [float(v) for v in np.asarray(vals).ravel()]
                if vals is not None
                else []
            )
