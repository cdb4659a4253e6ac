"""Job lists of the three workloads, as `domechain` CLI invocations.

Each workload is one closed-loop caller: the harness runs the job list in
order, the next command starting when the previous returns, and repeats
the list for the measured window.  Every job names the end-to-end metric
its time feeds and the oracle that checks its output.

Sizes:
  full   the workload's own job list (what `--workload` measures);
  small  a reduced copy, run for a few seconds in every measured run of
         the *other* workloads so that every run reports every end-to-end
         metric;
  smoke  tiny inputs for the harness self-test.

Traffic only uses config keys the roadmap keeps: no `threads`, no
`rtol`/`atol`, and `rate_MHz` accompanies every microsecond field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles


@dataclass(frozen=True)
class Job:
    """One CLI command: argv (without --output), metric, oracle."""

    metric: str
    argv: tuple[str, ...]
    output: str
    check: Callable[[bytes], None]
    samples: int = 0


def _sets(**kv) -> list[str]:
    """`--set key=value` pairs; a double underscore in a key becomes a dot."""
    out = []
    for key, value in kv.items():
        text = value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))
        out += ["--set", f"{key.replace('__', '.')}={text}"]
    return out


def _round(x: float) -> float:
    return float(f"{x:.3g}")


def open_scan(rng: np.random.Generator, size: str) -> list[Job]:
    """Decoherence scans and open evolves: RK45 Lindblad dominates."""
    full = size == "full"
    n_sites = 5 if full else 2
    reps = 3 if full else 1

    def t1_us() -> float:
        return _round(rng.uniform(3.0, 300.0))

    def tphi_us() -> float:
        return _round(rng.uniform(0.5, 50.0))

    # The m=102 points are the stiff case.  QPT at m=102 (15-21 s a point)
    # would double the pass without exercising anything new, so the QPT
    # scans and the evolves stay at m=2 and are repeated with other rates.
    scans = [("decoherence_bell_s", "bell_at_quarter_t", [2, 102] if full else [2])]
    scans += [("decoherence_qpt_s", "qpt_at_half_t", [2])] * reps
    jobs = []
    for i, (metric, name, m_values) in enumerate(scans):
        cfg = dict(kind="decoherence", metric=name, N=n_sites, m_values=m_values,
                   t1_us_values=[t1_us()], tphi_us_values=[tphi_us()], rate_MHz=5)
        jobs.append(Job(metric, ("sweep", *_sets(**cfg)), f"scan{i}.csv",
                        oracles.decoherence_scan(cfg)))
    for i in range(reps):
        evo = dict(N=n_sites, m=2, rate_MHz=5, decoherence__t1_us=_round(rng.uniform(10, 100)),
                   decoherence__tphi_us=_round(rng.uniform(2, 20)))
        if not full:
            evo.update(n_periods=0.25, points=11)
        jobs.append(Job("evolve_open_s", ("evolve", *_sets(**evo)), f"evolve_open{i}.csv",
                        oracles.evolve_open(evo)))
    return jobs


def disorder_mc(rng: np.random.Generator, size: str) -> list[Job]:
    """Coherent Monte Carlo sweeps: many tiny systems, one base Hamiltonian."""
    seed = int(rng.integers(0, 2**63))
    samples = {"full": (250, 75, 15), "small": (15, 5, 1), "smoke": (8, 4, 2)}[size]
    grid = (2, 3) if size == "smoke" else (3, 4)
    specs = (
        ("bell_samples_per_s", dict(metric="bell_at_quarter_t", N=5, target="all",
                                    sigmas=[0.25, 0.5, 1.0])),
        ("w_samples_per_s", dict(metric="w_at_quarter_t", rows=grid[0], cols=grid[1],
                                 target="edge_frequencies", sigmas=[0.5, 1.0, 2.0])),
        ("qpt_samples_per_s", dict(metric="qpt_at_half_t", N=5,
                                   target="middle_frequencies", sigmas=[0.25, 0.5, 1.0])),
    )
    jobs = []
    for (metric, spec), n in zip(specs, samples):
        cfg = dict(kind="coherent", m_values=[2, 102], samples=n, rate_MHz=5, **spec)
        total = n * len(cfg["m_values"]) * len(cfg["sigmas"])
        argv = ("sweep", "--seed", str(seed), *_sets(**cfg))
        jobs.append(Job(metric, argv, f"{metric}.csv",
                        oracles.coherent_sweep(cfg, seed), samples=total))
    return jobs


# synth sizes, (chain N, grid side, periods of the m=102 evolve), cascade (N, k)
_DESIGN = {
    "full": ((24, 26), (128, 10, 4), (400, 8)),
    "small": ((12, 16), (64, 6, 1), (100, 4)),
    "smoke": ((6, 8), (8, 3, 1), (20, 2)),
}


def design_scale(rng: np.random.Generator, size: str) -> list[Job]:
    """Interactive single commands at large sizes: synth, evolve, cascade."""
    spectrum = sorted(int(v) for v in rng.choice(np.arange(-20, 21), 5, replace=False))
    synth_n, (chain_n, side, periods), (cascade_n, k) = _DESIGN[size]
    synths = [dict(N=n, m=2) for n in synth_n] + [dict(spectrum=spectrum)]
    evolves = [dict(N=chain_n, m=2, rate_MHz=5),
               dict(rows=side, cols=side, m_x=2, m_y=2, rate_MHz=5),
               dict(N=5, m=102, rate_MHz=5, n_periods=periods)]
    cascade = dict(kind="dome", N=cascade_n + int(rng.integers(-cascade_n // 10, cascade_n // 10 + 1)),
                   m=10, k=k, j_max_MHz=50, j_min_MHz=1e-7)
    jobs = [Job("synth_p50_ms", ("synth", *_sets(**c)), f"synth{i}.json", oracles.synth(c))
            for i, c in enumerate(synths)]
    jobs += [Job("evolve_closed_p50_ms", ("evolve", *_sets(**c)), f"evolve{i}.csv",
                 oracles.evolve_closed(c, seed=int(rng.integers(0, 2**31))))
             for i, c in enumerate(evolves)]
    jobs.append(Job("cascade_p50_ms", ("cascade", *_sets(**cascade)), "cascade.json",
                    oracles.cascade(cascade)))
    return jobs


WORKLOADS = {
    "open_scan": open_scan,
    "disorder_mc": disorder_mc,
    "design_scale": design_scale,
}


def jobs_for(workload: str, seed: int, size: str) -> list[Job]:
    """The job list of `workload` at `size`, its inputs drawn from `seed`."""
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[workload](rng, size)


# Known defects run beside design_scale.  They are refused or hang today,
# so they stay out of the counted operations (a workload's operations must
# all succeed) and are reported on the info line instead.
DEFECT_SYNTH = ("synth", "--set", "N=32", "--set", "m=2")
DEFECT_NO_RATE = ("evolve", "--set", "N=5", "--set", "m=2",
                  "--set", "decoherence.t1_us=30", "--set", "decoherence.tphi_us=5")
