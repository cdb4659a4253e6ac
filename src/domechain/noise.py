"""Seeded parameter disorder and Monte Carlo fidelity sweeps.

Sample k draws its unit normals once from a Philox generator keyed by
(seed) with counter block k, in a fixed order: targeted site frequencies
in ascending site order, then targeted couplings (x bonds before y bonds
on grids).  Sigma, in units of J, scales them into additive shifts of the
dimensionless entries, so the points of a sigma axis share one field.

Coherent sweeps diagonalize stacks of perturbed site matrices with one
`eigh` call and contract to readout amplitudes a = <r|U(t)|site 1>.  The
readout state is (1 - p)|vac><vac| + |a><a| with p = |a|^2, and its
overlap with the noise-free reduction is (1 - p)(1 - p0) + |a0^dagger a|^2.
The transfer channel at T/2 is amplitude damping with u = <N|U(T/2)|1>,
whose process fidelity with the identity is |1 + u|^2 / 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .chain import TridiagonalHamiltonian
from .dynamics import ClosedPropagator, DecoherenceConfig, evolve_lindblad, site_state
from .metrics import reduce_to_pair, simulate_qpt, state_fidelity
from .models import (
    DomeParams,
    Grid2D,
    _bond_pairs,
    _grid_sites,
    _site_matrix,
    dome_hamiltonian,
)

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

# Site-matrix entries per stacked eigh call (8 MB of float64), whatever the sample count.
MAX_CHUNK_ENTRIES = 1 << 20


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


def _unit_normals(seed: int, draw_indices, n: int) -> np.ndarray:
    """(S, n) standard normals; row s comes from Philox keyed by `seed` at
    counter [0, 0, 0, draw_indices[s]].

    One bit generator is set to each counter block with an empty buffer,
    the state Philox(key=seed, counter=...) starts in.  Constructing one
    per sample would also draw OS entropy for a seed sequence that the key
    then overrides.
    """
    bitgen = np.random.Philox(key=int(seed))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    rows = []
    for k in draw_indices:
        state["state"]["counter"][3] = k
        bitgen.state = state
        rows.append(gen.standard_normal(n))
    return np.array(rows).reshape(len(rows), n)


@dataclass(frozen=True)
class _SiteModel:
    """A chain or grid as disorder sees it: noise-free site-matrix entries
    `freqs` (D,) and `couplings` (B,) in units of J, the (B, 2) `bonds` in
    draw order, the chain ends or grid corners `edges`, and J in rad/s.
    """

    freqs: np.ndarray
    couplings: np.ndarray
    bonds: np.ndarray
    edges: np.ndarray
    rate: float

    @classmethod
    def of(cls, system) -> _SiteModel:
        if isinstance(system, TridiagonalHamiltonian):
            return cls(system.omegas, system.couplings, _bond_pairs(1, system.n),
                       np.array([0, system.n - 1]), system.rate_J)
        if isinstance(system, Grid2D):
            freqs, couplings = _grid_sites(system)
            return cls(freqs, couplings, _bond_pairs(system.rows, system.cols),
                       np.array(system.corner_indices()), system.J)
        raise TypeError("system must be a TridiagonalHamiltonian or Grid2D")

    def targeted(self, target: DisorderTarget) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the perturbed frequencies and couplings, in draw order."""
        sites, bonds = np.arange(self.freqs.size), np.arange(self.couplings.size)
        if target is DisorderTarget.MIDDLE_FREQUENCIES:
            return np.setdiff1d(sites, self.edges), bonds[:0]
        if target is DisorderTarget.EDGE_FREQUENCIES:
            return self.edges, bonds[:0]
        if target is DisorderTarget.COUPLINGS:
            return sites[:0], bonds
        return sites, bonds

    def unit_draws(self, cfg: DisorderConfig, draw_indices) -> np.ndarray:
        """(S, n) unit normals, row s from the generator of draw_indices[s]."""
        n = sum(idx.size for idx in self.targeted(cfg.target))
        return _unit_normals(cfg.seed, draw_indices, n)

    def matrices(self, target: DisorderTarget, noise: np.ndarray) -> np.ndarray:
        """(S, D, D) site matrices with the (S, n) noise rows added."""
        sites, bonds = self.targeted(target)
        freqs = np.repeat(self.freqs[None], len(noise), axis=0)
        couplings = np.repeat(self.couplings[None], len(noise), axis=0)
        freqs[:, sites] += noise[:, : sites.size]
        couplings[:, bonds] += noise[:, sites.size :]
        return _site_matrix(freqs, couplings, self.bonds)


def perturb(system, cfg: DisorderConfig, draw_index: int):
    """Additive Gaussian disorder on the configured parameter set.

    Chains come back as a new TridiagonalHamiltonian; grids come back as
    the dense perturbed site matrix in units of J.  Deterministic in
    (seed, draw_index); untargeted entries are bit-identical to the input.
    `sweep_coherent` builds the same matrices in batches.
    """
    if draw_index < 0:
        raise ValueError("draw_index must be non-negative")
    model = _SiteModel.of(system)
    H = model.matrices(cfg.target, cfg.sigma * model.unit_draws(cfg, [draw_index]))[0]
    if isinstance(system, TridiagonalHamiltonian):
        return TridiagonalHamiltonian(H.diagonal().copy(), H.diagonal(1).copy(), system.rate_J)
    return H


def _readout_amplitudes(H: np.ndarray, t: float, readout: np.ndarray) -> np.ndarray:
    """(S, r) amplitudes <readout|exp(-iHt)|site 1> of a (S, D, D) stack.

    A stack whose diagonalization fails is redone one matrix at a time,
    and only the matrices that fail on their own get NaN amplitudes.
    """
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError:
        if H.shape[0] == 1:
            return np.full((1, readout.size), np.nan, dtype=complex)
        return np.concatenate([_readout_amplitudes(h[None], t, readout) for h in H])
    return np.einsum("srk,sk,sk->sr", V[:, readout, :], np.exp(-1j * w * t), V[:, 0, :])


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


def sweep_coherent(
    system,
    cfg: DisorderConfig,
    metric: SweepMetric,
    sigmas=None,
) -> SweepResult:
    """Monte Carlo fidelity under static coherent disorder.

    `system` is DomeParams for the chain metrics or Grid2D for the corner
    metric.  Evolution time is T/4 for the entanglement metrics and T/2
    for tomography.  When `sigmas` is given the sweep runs once per value
    (same seed, so points share their underlying noise field); otherwise
    the single cfg.sigma is used.  Per-sample failures are counted and
    excluded from the statistics rather than raised.
    """
    qpt = metric is SweepMetric.QPT_AT_HALF_T
    if isinstance(system, Grid2D):
        if metric is not SweepMetric.W_AT_QUARTER_T:
            raise ValueError("grids support only the corner metric")
        model = _SiteModel.of(system)
    elif isinstance(system, DomeParams):
        if metric is SweepMetric.W_AT_QUARTER_T:
            raise ValueError("the corner metric requires a Grid2D")
        model = _SiteModel.of(dome_hamiltonian(system))
    else:
        raise TypeError("system must be DomeParams or Grid2D")
    readout = model.edges[-1:] if qpt else model.edges
    duration = 2.0 * np.pi / model.rate / (2 if qpt else 4)

    def amplitudes(H: np.ndarray) -> np.ndarray:
        return _readout_amplitudes(H * model.rate, duration, readout)

    if not qpt:
        a0 = amplitudes(_site_matrix(model.freqs, model.couplings, model.bonds)[None])[0]
        p0 = np.sum(np.abs(a0) ** 2)

    n_samples = cfg.samples if cfg.samples is not None else DEFAULT_SAMPLES[metric]
    axis = np.atleast_1d(
        np.asarray(sigmas if sigmas is not None else [cfg.sigma], dtype=float)
    )
    unit = model.unit_draws(cfg, range(n_samples))
    fids = np.empty(axis.size * n_samples)
    chunk = max(1, MAX_CHUNK_ENTRIES // model.freqs.size**2)
    for start in range(0, fids.size, chunk):
        rows = np.arange(start, min(start + chunk, fids.size))
        noise = axis[rows // n_samples, None] * unit[rows % n_samples]
        a = amplitudes(model.matrices(cfg.target, noise))
        if qpt:
            fids[rows] = np.abs(1.0 + a[:, 0]) ** 2 / 4.0
        else:
            # Summed column by column: numpy's row reductions take another
            # path for a one-row chunk, which would make bits depend on chunking.
            p = reduce(np.add, np.abs(a.T) ** 2)
            overlap = reduce(np.add, a.T * a0.conj()[:, None])
            fids[rows] = (1.0 - p) * (1.0 - p0) + np.abs(overlap) ** 2
    fids = fids.reshape(axis.size, n_samples)
    ok = ~np.isnan(fids)
    mean = np.array([np.mean(f[o]) if o.any() else np.nan for f, o in zip(fids, ok)])
    std = np.array(
        [np.std(f[o], ddof=1) if o.sum() > 1 else 0.0 for f, o in zip(fids, ok)]
    )
    return SweepResult(axis_name="sigma", axis=axis, mean=mean, std=std,
                       samples=ok.sum(axis=1), failures=(~ok).sum(axis=1), fidelities=fids)


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
