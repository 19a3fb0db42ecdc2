#!/usr/bin/env python
"""Dynamic observables: imaginary-time Green's functions and the
Fermi-level spectral weight (the "dynamic" measurements QUEST offers).

Runs a simulation with ``measure_dynamic=True``: every measurement sweep
records G(k, tau) on the cluster-boundary grid, taken from the joins the
sweep already solves. From it comes the standard gaplessness diagnostic
``beta * G(k, beta/2)``: large where the spectrum is gapless (on the
Fermi surface), exponentially small where it is gapped. At U = 0 the
result is exact and analytic; switching on U shows the correlated
Fermi surface the paper's Fig 5 narrative is about.

Usage:
    python examples/dynamic_response.py [--size 4] [--u 2.0] [--samples 8]
"""

import argparse

import numpy as np

from repro import (
    HubbardModel,
    Simulation,
    SquareLattice,
    momentum_grid,
    symmetry_path,
)
from repro.hamiltonian import free_dispersion_2d


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=4)
    parser.add_argument("--u", type=float, default=2.0)
    parser.add_argument("--beta", type=float, default=4.0)
    parser.add_argument("--samples", type=int, default=8)
    args = parser.parse_args()

    lattice = SquareLattice(args.size, args.size)
    # an even number of k = 8 clusters puts tau = beta/2 on a boundary
    n_slices = max(16, int(round(args.beta / 0.125 / 16)) * 16)
    model = HubbardModel(lattice, u=args.u, beta=args.beta, n_slices=n_slices)
    sim = Simulation(model, seed=1, cluster_size=8, measure_dynamic=True)

    print(
        f"{lattice}, U = {args.u}, beta = {args.beta}, L = {n_slices}; "
        f"{args.samples} measurement sweeps of G(k, tau), read at beta/2"
    )

    result = sim.run(warmup_sweeps=10, measurement_sweeps=args.samples)
    # row j of g_k_tau is tau = (j + 1) k dtau, so beta/2 is row nc/2 - 1
    nc = sim.engine.n_clusters
    gk_tau = np.asarray(result.observables["g_k_tau"].mean)
    proxy = model.beta * gk_tau[nc // 2 - 1]

    # print along the symmetry path, with the U = 0 analytic reference
    idx, arc, kpts = symmetry_path(lattice)
    k = momentum_grid(lattice.lx, lattice.ly)
    eps = free_dispersion_2d(k[:, 0], k[:, 1])
    f = 1.0 / (1.0 + np.exp(args.beta * eps))
    free_proxy = args.beta * np.exp(-args.beta / 2 * eps) * (1.0 - f)

    print(f"\n{'k':>16} {'beta*G(k,b/2)':>16} {'U=0 exact':>16}")
    for j in range(len(idx)):
        kx, ky = kpts[j]
        print(
            f"({kx:+.2f},{ky:+.2f})".rjust(16)
            + f" {proxy[idx[j]]:16.10f} {free_proxy[idx[j]]:16.10f}"
        )

    fs = lattice.index(args.size // 2, 0)  # (pi, 0): on the Fermi surface
    gap = lattice.index(args.size // 2, args.size // 2)  # (pi, pi)
    print(
        f"\nFermi surface marker: beta*G((pi,0), beta/2) = {proxy[fs]:.3f} "
        f"(gapless ~ O(1))"
    )
    print(
        f"band edge:            beta*G((pi,pi), beta/2) = {proxy[gap]:.4f} "
        f"(gapped ~ 0)"
    )


if __name__ == "__main__":
    main()
