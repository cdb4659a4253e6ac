"""Track site populations and end-pair entanglement over one period.

Evolves a single excitation launched on site 1 of a dome chain, closed
or with amplitude damping and dephasing, and writes one CSV row per
time sample.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from domechain import (
    DecoherenceConfig,
    DomeParams,
    bell_fidelity,
    chain_bell_target,
    dome_hamiltonian,
    evolve_closed,
    evolve_lindblad,
    reduce_to_pair,
    site_state,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sites", type=int, default=5)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--rate-mhz", type=float, default=5.0)
    ap.add_argument("--t1-us", type=float, default=None)
    ap.add_argument("--tphi-us", type=float, default=None)
    ap.add_argument("--points", type=int, default=201)
    ap.add_argument("--periods", type=float, default=1.0)
    ap.add_argument("--output", type=Path, default=Path("population_dynamics.csv"))
    args = ap.parse_args()

    rate = 2 * np.pi * args.rate_mhz * 1e6
    ham = dome_hamiltonian(DomeParams(N=args.sites, m=args.m, J=rate))
    period = ham.period
    times = np.linspace(0.0, args.periods * period, args.points)
    psi0 = site_state(args.sites, 1)

    if args.t1_us is None and args.tphi_us is None:
        traj = evolve_closed(ham.matrix(physical=True), psi0, times)
    else:
        deco = DecoherenceConfig(
            t1=(args.t1_us or 1e6) * 1e-6,
            t_phi=(args.tphi_us or 1e6) * 1e-6,
        )
        rho0 = np.outer(psi0, psi0.conj())
        traj = evolve_lindblad(ham.matrix(physical=True), rho0, times, deco)

    target = chain_bell_target(args.sites)
    pops = traj.site_populations()
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["t_over_T"]
            + [f"P_{i}" for i in range(1, args.sites + 1)]
            + ["bell_fidelity"]
        )
        for i, t in enumerate(times):
            state = traj.states[i] if traj.states is not None else traj.rhos[i]
            pair = reduce_to_pair(state, 1, args.sites)
            fid = bell_fidelity(pair, target)
            writer.writerow(
                [f"{t / period:.10g}"]
                + [f"{p:.10g}" for p in pops[i]]
                + [f"{fid:.10g}"]
            )
    print(args.output)


if __name__ == "__main__":
    main()
