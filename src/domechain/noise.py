"""Seeded parameter disorder and Monte Carlo fidelity sweeps.

Disorder draws are counter based: sample k uses a Philox generator keyed
by (seed) with counter block k, so any partition of samples across
workers reproduces the serial draw multiset exactly.  Within a sample the
draw order is fixed: targeted site frequencies in ascending site order,
then targeted couplings (x bonds before y bonds on grids).  Sigma is in
units of J and perturbs the dimensionless chain entries additively.

Sweep fidelities are measured against the noise-free evolved state
reduced to the same qubits (coherent sweeps) or against the identity
process (tomography metric), matching how the reference curves are
normalized.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chain import TridiagonalHamiltonian
from .dynamics import ClosedPropagator, DecoherenceConfig, evolve_lindblad, site_state
from .metrics import (
    reduce_to_corners,
    reduce_to_pair,
    simulate_qpt,
    state_fidelity,
)
from .models import DomeParams, Grid2D, dome_hamiltonian, single_excitation_matrix

__all__ = [
    "DisorderTarget",
    "DisorderConfig",
    "SweepMetric",
    "SweepResult",
    "DecoherenceScan",
    "T1_GRID_US",
    "TPHI_GRID_US",
    "perturb",
    "sweep_coherent",
    "sweep_decoherence",
]

# Decoherence scan grids (microseconds) spanning the hardware-relevant
# range; the working point pins J/2pi = 5 MHz so one period is 200 ns.
T1_GRID_US = (3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0)
TPHI_GRID_US = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0)


class DisorderTarget(Enum):
    MIDDLE_FREQUENCIES = "middle_frequencies"
    EDGE_FREQUENCIES = "edge_frequencies"
    COUPLINGS = "couplings"
    ALL = "all"


class SweepMetric(Enum):
    """Observable evaluated per Monte Carlo sample.

    BELL_AT_QUARTER_T: end-pair overlap with the noise-free T/4 state.
    QPT_AT_HALF_T: process fidelity of the transfer channel at T/2.
    W_AT_QUARTER_T: corner overlap with the noise-free T/4 grid state.
    """

    BELL_AT_QUARTER_T = "bell_at_quarter_t"
    QPT_AT_HALF_T = "qpt_at_half_t"
    W_AT_QUARTER_T = "w_at_quarter_t"


DEFAULT_SAMPLES = {
    SweepMetric.BELL_AT_QUARTER_T: 100,
    SweepMetric.QPT_AT_HALF_T: 50,
    SweepMetric.W_AT_QUARTER_T: 50,
}


@dataclass(frozen=True)
class DisorderConfig:
    """Gaussian disorder specification; sigma in units of J."""

    target: DisorderTarget
    sigma: float
    seed: int
    samples: int | None = None

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be at least 1")


def _rng(cfg: DisorderConfig, draw_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=int(cfg.seed), counter=[0, 0, 0, int(draw_index)])
    )


def _perturb_chain(
    ham: TridiagonalHamiltonian, cfg: DisorderConfig, draw_index: int
) -> TridiagonalHamiltonian:
    N = ham.n
    if cfg.target is DisorderTarget.MIDDLE_FREQUENCIES:
        freq_idx = np.arange(1, N - 1)
    elif cfg.target is DisorderTarget.EDGE_FREQUENCIES:
        freq_idx = np.array([0, N - 1])
    elif cfg.target is DisorderTarget.ALL:
        freq_idx = np.arange(N)
    else:
        freq_idx = np.arange(0)
    n_coups = N - 1 if cfg.target in (DisorderTarget.COUPLINGS, DisorderTarget.ALL) else 0
    rng = _rng(cfg, draw_index)
    omegas = ham.omegas.copy()
    couplings = ham.couplings.copy()
    if freq_idx.size:
        omegas[freq_idx] += rng.normal(0.0, cfg.sigma, freq_idx.size)
    if n_coups:
        couplings += rng.normal(0.0, cfg.sigma, n_coups)
    return TridiagonalHamiltonian(omegas, couplings, ham.rate_J)


def _perturb_grid(grid: Grid2D, cfg: DisorderConfig, draw_index: int) -> np.ndarray:
    freqs = grid.frequency_table().reshape(-1).copy()
    xb = grid.x_bonds().copy()
    yb = grid.y_bonds().copy()
    corners = np.array(grid.corner_indices())
    if cfg.target is DisorderTarget.MIDDLE_FREQUENCIES:
        freq_idx = np.setdiff1d(np.arange(freqs.size), corners)
    elif cfg.target is DisorderTarget.EDGE_FREQUENCIES:
        freq_idx = corners
    elif cfg.target is DisorderTarget.ALL:
        freq_idx = np.arange(freqs.size)
    else:
        freq_idx = np.arange(0)
    with_coups = cfg.target in (DisorderTarget.COUPLINGS, DisorderTarget.ALL)
    rng = _rng(cfg, draw_index)
    if freq_idx.size:
        freqs[freq_idx] += rng.normal(0.0, cfg.sigma, freq_idx.size)
    if with_coups:
        xb += rng.normal(0.0, cfg.sigma, xb.shape)
        yb += rng.normal(0.0, cfg.sigma, yb.shape)
    return single_excitation_matrix(freqs.reshape(grid.rows, grid.cols), xb, yb)


def perturb(system, cfg: DisorderConfig, draw_index: int):
    """Additive Gaussian disorder on the configured parameter set.

    Chains come back as a new TridiagonalHamiltonian; grids come back as
    the dense perturbed site matrix in units of J.  Deterministic in
    (seed, draw_index); untargeted entries are bit-identical to the input.
    """
    if draw_index < 0:
        raise ValueError("draw_index must be non-negative")
    if isinstance(system, TridiagonalHamiltonian):
        return _perturb_chain(system, cfg, draw_index)
    if isinstance(system, Grid2D):
        return _perturb_grid(system, cfg, draw_index)
    raise TypeError("system must be a TridiagonalHamiltonian or Grid2D")


@dataclass(frozen=True)
class SweepResult:
    """Per-axis-point Monte Carlo summary plus the raw sample values."""

    axis_name: str
    axis: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    samples: np.ndarray
    failures: np.ndarray
    fidelities: np.ndarray

    @property
    def stderr(self) -> np.ndarray:
        return self.std / np.sqrt(np.maximum(self.samples, 1))


def _chain_sample_fidelity(
    base: TridiagonalHamiltonian,
    cfg: DisorderConfig,
    metric: SweepMetric,
    duration: float,
    ideal,
    k: int,
) -> float:
    ham = _perturb_chain(base, cfg, k)
    if metric is SweepMetric.QPT_AT_HALF_T:
        _, fid = simulate_qpt(ham, t_end=duration)
        return fid
    prop = ClosedPropagator(ham.matrix(physical=True))
    psi = prop.apply(site_state(ham.n, 1), duration)
    return state_fidelity(reduce_to_pair(psi, 1, ham.n), ideal)


def _grid_sample_fidelity(
    grid: Grid2D,
    cfg: DisorderConfig,
    duration: float,
    ideal,
    k: int,
) -> float:
    H = _perturb_grid(grid, cfg, k) * grid.J
    prop = ClosedPropagator(H)
    psi = prop.apply(site_state(grid.rows * grid.cols, 1), duration)
    return state_fidelity(reduce_to_corners(psi, grid), ideal)


def sweep_coherent(
    system,
    cfg: DisorderConfig,
    metric: SweepMetric,
    sigmas=None,
    threads: int = 1,
) -> SweepResult:
    """Monte Carlo fidelity under static coherent disorder.

    `system` is DomeParams for the chain metrics or Grid2D for the corner
    metric.  Evolution time is T/4 for the entanglement metrics and T/2
    for tomography.  When `sigmas` is given the sweep runs once per value
    (same seed, so points share their underlying noise field); otherwise
    the single cfg.sigma is used.  Per-sample failures are counted and
    excluded from the statistics rather than raised.
    """
    if isinstance(system, Grid2D):
        if metric is not SweepMetric.W_AT_QUARTER_T:
            raise ValueError("grids support only the corner metric")
        grid = system
        duration = grid.period / 4
        prop = ClosedPropagator(single_excitation_matrix(grid, physical=True))
        psi = prop.apply(site_state(grid.rows * grid.cols, 1), duration)
        ideal = reduce_to_corners(psi, grid)

        def run(c: DisorderConfig, k: int) -> float:
            return _grid_sample_fidelity(grid, c, duration, ideal, k)

    elif isinstance(system, DomeParams):
        if metric is SweepMetric.W_AT_QUARTER_T:
            raise ValueError("the corner metric requires a Grid2D")
        base = dome_hamiltonian(system)
        duration = base.period / (2 if metric is SweepMetric.QPT_AT_HALF_T else 4)
        ideal = None
        if metric is SweepMetric.BELL_AT_QUARTER_T:
            prop = ClosedPropagator(base.matrix(physical=True))
            psi = prop.apply(site_state(base.n, 1), duration)
            ideal = reduce_to_pair(psi, 1, base.n)

        def run(c: DisorderConfig, k: int) -> float:
            return _chain_sample_fidelity(base, c, metric, duration, ideal, k)

    else:
        raise TypeError("system must be DomeParams or Grid2D")

    n_samples = cfg.samples if cfg.samples is not None else DEFAULT_SAMPLES[metric]
    axis = np.atleast_1d(
        np.asarray(sigmas if sigmas is not None else [cfg.sigma], dtype=float)
    )
    fids = np.full((axis.size, n_samples), np.nan)
    failures = np.zeros(axis.size, dtype=int)
    for i, sigma in enumerate(axis):
        point_cfg = DisorderConfig(
            target=cfg.target, sigma=float(sigma), seed=cfg.seed, samples=n_samples
        )

        def one(k: int) -> float:
            try:
                return run(point_cfg, k)
            except (np.linalg.LinAlgError, RuntimeError):
                return np.nan

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                row = list(pool.map(one, range(n_samples)))
        else:
            row = [one(k) for k in range(n_samples)]
        fids[i] = row
        failures[i] = int(np.sum(np.isnan(fids[i])))
    ok = ~np.isnan(fids)
    counts = ok.sum(axis=1)
    mean = np.array([np.mean(f[o]) if o.any() else np.nan for f, o in zip(fids, ok)])
    std = np.array(
        [np.std(f[o], ddof=1) if o.sum() > 1 else 0.0 for f, o in zip(fids, ok)]
    )
    return SweepResult(
        axis_name="sigma",
        axis=axis,
        mean=mean,
        std=std,
        samples=counts,
        failures=failures,
        fidelities=fids,
    )


@dataclass(frozen=True)
class DecoherenceScan:
    """Fidelity grids of the T1 scan (Tphi fixed) and Tphi scan (T1 fixed)."""

    metric: SweepMetric
    m_values: tuple[int, ...]
    t1_values_us: tuple[float, ...]
    tphi_values_us: tuple[float, ...]
    fixed_tphi_us: float
    fixed_t1_us: float
    t1_scan: np.ndarray
    tphi_scan: np.ndarray

    def gain_vs_first_m(self, scan: str = "t1") -> np.ndarray:
        """Fidelity minus the first-m row; the per-grid-point m gain."""
        grid = self.t1_scan if scan == "t1" else self.tphi_scan
        return grid - grid[0]


def sweep_decoherence(
    n_sites: int,
    metric: SweepMetric,
    m_values=(2, 102),
    t1_values_us=T1_GRID_US,
    tphi_values_us=TPHI_GRID_US,
    fixed_tphi_us: float = 5.0,
    fixed_t1_us: float = 30.0,
    rate_MHz: float = 5.0,
) -> DecoherenceScan:
    """Open-system fidelity over the (T1, Tphi) grids for each m.

    Two scans per m: T1 varied at fixed Tphi and Tphi varied at fixed T1.
    The entanglement metric is the end-pair overlap with the noise-free
    T/4 state; the tomography metric is the T/2 process fidelity.  With
    J/2pi = 5 MHz the period is 200 ns, so the scan touches the regime
    where dephasing, not relaxation, dominates.
    """
    if metric is SweepMetric.W_AT_QUARTER_T:
        raise ValueError("decoherence scans are defined for chain metrics")
    m_values = tuple(int(m) for m in m_values)
    rate_J = 2 * np.pi * rate_MHz * 1e6
    hams = {m: dome_hamiltonian(DomeParams(N=n_sites, m=m, J=rate_J)) for m in m_values}
    period = 2 * np.pi / rate_J

    ideals = {}
    if metric is SweepMetric.BELL_AT_QUARTER_T:
        for m, ham in hams.items():
            prop = ClosedPropagator(ham.matrix(physical=True))
            psi = prop.apply(site_state(n_sites, 1), period / 4)
            ideals[m] = reduce_to_pair(psi, 1, n_sites)

    def point(m: int, t1_us: float, tphi_us: float) -> float:
        deco = DecoherenceConfig(t1=t1_us * 1e-6, t_phi=tphi_us * 1e-6)
        ham = hams[m]
        if metric is SweepMetric.QPT_AT_HALF_T:
            _, fid = simulate_qpt(ham, deco, t_end=period / 2)
            return fid
        psi0 = site_state(n_sites, 1)
        rho0 = np.outer(psi0, psi0.conj())
        traj = evolve_lindblad(
            ham.matrix(physical=True), rho0, np.array([0.0, period / 4]), deco
        )
        return state_fidelity(reduce_to_pair(traj.rhos[-1], 1, n_sites), ideals[m])

    t1_scan = np.array(
        [[point(m, t1, fixed_tphi_us) for t1 in t1_values_us] for m in m_values]
    ).reshape(len(m_values), len(t1_values_us))
    tphi_scan = np.array(
        [[point(m, fixed_t1_us, tphi) for tphi in tphi_values_us] for m in m_values]
    ).reshape(len(m_values), len(tphi_values_us))

    return DecoherenceScan(
        metric=metric,
        m_values=m_values,
        t1_values_us=tuple(float(v) for v in t1_values_us),
        tphi_values_us=tuple(float(v) for v in tphi_values_us),
        fixed_tphi_us=fixed_tphi_us,
        fixed_t1_us=fixed_t1_us,
        t1_scan=t1_scan,
        tphi_scan=tphi_scan,
    )
