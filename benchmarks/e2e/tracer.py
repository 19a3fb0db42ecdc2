"""Spans recorded from outside the package.

The harness wraps public callables on the objects it constructs
(``sim.engine``, its cache and backend, ``sim.collector``,
``sim.telemetry``, ``sim.watchdog``) plus the module-level ``sweep`` the
driver calls; nothing inside ``src/`` knows it is being traced. A span is
``[name, start, end, parent, sweep, bytes]`` kept in a list and written
out once at the end; a layer's self time is its span minus the part its
children cover, so self times sum to the root spans exactly.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, SWEEP, BYTES = range(6)


def _gemm_category(args, kwargs) -> str:
    return kwargs.get("category", args[2] if len(args) > 2 else "gemm")


def _operand_bytes(args, result) -> int:
    """Bytes of the ndarray operands and the result: *computed* traffic,
    blind to cache behaviour."""
    total = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    if isinstance(result, np.ndarray):
        total += result.nbytes
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.sweep_id = -1
        #: PhaseProfiler seconds accumulated inside traced ``sweep`` calls
        #: only, for the self-consistency check against the spans
        self.profiler_seconds: dict = defaultdict(float)
        self._stack: list = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """An explicit span around code the harness itself runs."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.sweep_id, 0]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, suffix=None, count_bytes=False):
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            label = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            record = self._open(label)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(record)
            if count_bytes:
                record[BYTES] = _operand_bytes(args, result)
            return result

        # A bound method lives on the class: shadow it on the instance and
        # delete the shadow later. A module attribute is restored by value.
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def _wrap_sweep(self, driver, profiler) -> None:
        """Span around the module-level ``sweep`` plus the PhaseProfiler
        delta over exactly the same interval."""
        inner = driver.sweep
        seen = self.profiler_seconds

        def traced(*args, **kwargs):
            before = dict(profiler.seconds)
            record = self._open("dqmc.sweep")
            try:
                return inner(*args, **kwargs)
            finally:
                self._close(record)
                for phase, total in profiler.seconds.items():
                    seen[phase] += total - before.get(phase, 0.0)

        self._undo.append((driver, "sweep", inner))
        driver.sweep = traced

    # -- wiring ----------------------------------------------------------------

    def install(self, sim) -> None:
        """Wrap every layer boundary reachable from ``sim``."""
        import repro.dqmc.simulation as driver

        wrap = self._wrap
        self._wrap_sweep(driver, sim.profiler)
        engine = sim.engine
        wrap(engine, "boundary_greens", "core.greens.boundary")
        for attr in ("wrap_pair", "unwrap_pair", "wrap", "unwrap"):
            wrap(engine, attr, "core.greens.wrap")
        wrap(engine.cache, "get", "core.recycling.get")
        backend = engine.backend
        wrap(backend, "gemm", "backends.gemm", _gemm_category, count_bytes=True)
        wrap(backend, "cluster_product_batched", "backends.cluster_product",
             count_bytes=True)
        for attr in ("wrap_batched", "unwrap_batched", "wrap", "unwrap"):
            wrap(backend, attr, "backends.wrap", count_bytes=True)
        for attr in ("scale_rows", "scale_columns", "scale_two_sided"):
            wrap(backend, attr, "backends.scale", count_bytes=True)
        wrap(backend, "prepivot_permutation", "backends.prepivot",
             count_bytes=True)
        # apply_structured_batched is a passthrough to apply_structured
        wrap(backend, "apply_structured", "backends.structured",
             count_bytes=True)
        wrap(sim.collector, "measure", "measure.collector.measure")
        if sim.telemetry.enabled:  # the disabled instance is shared
            wrap(sim.telemetry, "sweep_done", "telemetry.sweep_done")
        if sim.watchdog is not None:
            wrap(sim.watchdog, "maybe_check", "telemetry.watchdog_check")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- reduction ---------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: inclusive seconds, self seconds, calls, bytes.

        ``under_sweep`` repeats the inclusive seconds for spans whose
        parent is a ``dqmc.sweep`` span: the part PhaseProfiler sees
        inside the sweep, without the watchdog's own Green's evaluations.
        """
        spans = self.spans
        child_seconds = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_seconds[s[PARENT]] += s[END] - s[START]
        out: dict = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0,
                     "under_sweep_s": 0.0}
        )
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            row = out[s[NAME]]
            row["s"] += dur
            row["self_s"] += dur - child_seconds[i]
            row["calls"] += 1
            row["bytes"] += s[BYTES]
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "dqmc.sweep":
                row["under_sweep_s"] += dur
        return out

    def as_json(self) -> dict:
        """The span list relative to the first start, for the trace file."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "columns": ["name", "start_s", "end_s", "parent", "sweep", "bytes"],
            "spans": [
                [s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[SWEEP],
                 s[BYTES]]
                for s in self.spans
            ],
        }
