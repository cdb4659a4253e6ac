"""Seeded parameter disorder and Monte Carlo fidelity sweeps.

Both sweeps take one DomeParams or Grid2D, or a sequence of them that
differ only in m, read through the one system model `models._SiteModel`,
whose axis lengths give the readout sites and the metric pairing
(`_reference`).  A sequence adds a leading m axis to every result array.

Sample k draws its unit normals once from a Philox generator keyed by
(seed) with counter block k, in a fixed order: targeted site frequencies
in ascending site order, then targeted couplings (x bonds before y bonds
on grids), into its row of one preallocated array.  Sigma, in units of J,
scales them into additive shifts of the dimensionless entries.  A coherent
sweep draws once: every m and every sigma shares one noise field.  Its
per-point mean and std come from one pass over all points (`_statistics`),
with only points that hold failed samples redone one at a time.

Coherent sweeps read a = <r|U(t)|site 1> of the perturbed site matrices
of all (m, sigma, sample) rows off the closed propagator
`dynamics._amplitudes`, in one chunked stream of stacked calls on the
calling thread.  A decoherence scan
evolves |1><1| for every chain and every DecoherenceConfig of its list in
one stacked call of `dynamics._open_parts`, the checked open propagator
behind `evolve_lindblad`, which propagates the site block once per (m,
distinct Tphi) and scales it by e^{-t/T1} per config.  The scan reads the
readout block off the final site blocks; no (D+1) x (D+1) state is built.  Both take their readout sites
and evaluation time from `_reference`, and the noise-free amplitudes a0
from `_noise_free`, one propagator call on the noise-free matrices of all
m, which a coherent transfer-channel sweep does not need.  Both score
through `metrics`: the entanglement metrics by `_readout_fidelity` against
the noise-free reduction, and the transfer channel at T/2 by
`transfer_fidelity`, from |a|^2 and a when closed, or from the end
population and the decayed a0 when open.
The sigmas, sample counts and DecoherenceConfigs are all arguments here,
and the rate is the systems' J.  The working-point defaults live in the
CLI's one table (`cli.SCHEMAS`), and the CLI lays out a scan's T1 and
Tphi cuts, in microseconds, as one config list.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import MAX_CHUNK_ENTRIES, _amplitudes, _open_parts, site_state
from .metrics import _readout_fidelity, transfer_fidelity
from .models import _SiteModel
from .spectrum import _integer

__all__ = [
    "DisorderTarget",
    "DisorderConfig",
    "SweepMetric",
    "SweepResult",
    "sweep_coherent",
    "sweep_decoherence",
]

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


@dataclass(frozen=True)
class DisorderConfig:
    """Gaussian disorder specification: the sigmas swept, in units of J, and
    the samples drawn per sigma.  The seed (below 2^64) and the sample count
    (at least 1) follow `spectrum._integer` and are stored as ints."""

    target: DisorderTarget
    sigmas: tuple[float, ...]
    seed: int
    samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigmas", tuple(map(float, self.sigmas)))
        if not self.sigmas:
            raise ValueError("sigmas must not be empty")
        if not all(0 <= s < np.inf for s in self.sigmas):  # NaN fails too
            raise ValueError("every sigma must be finite and non-negative")
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if self.seed >= 2**64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "samples", _integer("samples", self.samples, 1))


# Each thread's one Philox generator, re-pointed per sample: callers may run sweeps from
# threads of their own.
_PHILOX = threading.local()


def _unit_normals(seed: int, draw_indices, n: int) -> np.ndarray:
    """(S, n) standard normals; row s comes from Philox keyed by `seed`
    (below 2^64) at counter [0, 0, 0, draw_indices[s]].

    The thread's one bit generator is set to each counter block with an
    empty buffer, the state Philox(key=seed, counter=...) starts in, and
    fills its row of one preallocated array in place: the cheapest
    bit-identical public route (`advance`, or a Philox per call or per
    sample, cost more).  The setter reads the state dict's Python ints in
    0.5 us against 1.1 us for uint64 arrays; 9 normals cost 1.4 us a sample
    in a bare loop, 2.9-3.0 us in disorder_mc's Bell sweep (2-core VM).
    """
    if not hasattr(_PHILOX, "gen"):
        _PHILOX.gen = np.random.Generator(np.random.Philox(0))
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [seed, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    draws = np.empty((len(draw_indices), n))
    for k, row in zip(draw_indices, draws):
        state["state"]["counter"][3] = k
        _PHILOX.gen.bit_generator.state = state
        _PHILOX.gen.standard_normal(out=row)
    return draws


def _targeted(model: _SiteModel, target: DisorderTarget) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the perturbed frequencies and couplings, in draw order."""
    sites, bonds = np.arange(model.freqs.shape[1]), np.arange(model.couplings.shape[1])
    if target is DisorderTarget.MIDDLE_FREQUENCIES:
        return sites[np.bincount(model.edges, minlength=sites.size) == 0], bonds[:0]  # no edge
    if target is DisorderTarget.EDGE_FREQUENCIES:
        return model.edges, bonds[:0]
    if target is DisorderTarget.COUPLINGS:
        return sites[:0], bonds
    return sites, bonds


def _perturbed(model: _SiteModel, targeted, noise: np.ndarray, members) -> np.ndarray:
    """(S, D, D) site matrices in rad/s: system members[s] with noise row s
    of the (S, n) `noise` added at the `targeted` (sites, bonds)."""
    sites, bonds = targeted
    freqs, couplings = model.freqs[members], model.couplings[members]
    freqs[:, sites] += noise[:, : sites.size]
    couplings[:, bonds] += noise[:, sites.size :]
    return model.matrices(freqs=freqs, couplings=couplings)


def _readout_amplitudes(H: np.ndarray, t: float, readout: np.ndarray) -> np.ndarray:
    """(S, r) amplitudes <readout|exp(-iHt)|site 1> of a (S, D, D) stack.

    A stack whose diagonalization fails is redone one matrix at a time,
    and only the matrices that fail on their own get NaN amplitudes.
    """
    try:
        return _amplitudes(H, site_state(H.shape[-1], 1)[1:], np.array([t]), readout)[..., 0]
    except np.linalg.LinAlgError:
        if H.shape[0] == 1:
            return np.full((1, readout.size), np.nan, dtype=complex)
        return np.concatenate([_readout_amplitudes(h[None], t, readout) for h in H])


def _reference(model: _SiteModel, metric: SweepMetric) -> tuple[np.ndarray, float]:
    """The metric's readout sites (0-based) and evaluation time: the far end
    at T/2 for the transfer channel, the ends or corners at T/4 for the
    entanglement metrics.  Grids, with their two axes, take the corner
    metric; chains take the others."""
    corner = metric is SweepMetric.W_AT_QUARTER_T
    if corner != (len(model.lengths) == 2):
        raise ValueError("the corner metric requires a Grid2D" if corner
                         else "grids support only the corner metric")
    qpt = metric is SweepMetric.QPT_AT_HALF_T
    readout = model.edges[-1:] if qpt else model.edges
    return readout, 2.0 * np.pi / model.rate / (2 if qpt else 4)


def _noise_free(model: _SiteModel, readout: np.ndarray, duration: float):
    """The (M, k) noise-free readout amplitudes a0 of every system at
    `duration`, with their (M,) vacuum weights 1 - |a0|^2."""
    a0 = _readout_amplitudes(model.matrices(), duration, readout)
    return a0, 1.0 - np.sum(np.abs(a0) ** 2, axis=1)


def _statistics(fids: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean and ddof=1 std over its kept (`ok`) samples: NaN mean
    and std 0 with none kept, std 0 with one kept or all equal (every
    sigma = 0 point; np.std may miss 0 by an ulp).

    One pass over all rows gives each row's np.mean and np.std bits, as
    numpy sums each contiguous row on its own; only rows with failed
    samples are redone one at a time.
    """
    mean = fids.mean(axis=1)
    if fids.shape[1] == 1:
        std = np.zeros_like(mean)
    else:
        std = np.where(fids.min(axis=1) < fids.max(axis=1), fids.std(axis=1, ddof=1), 0.0)
    for i in np.flatnonzero(~ok.all(axis=1)):
        x = fids[i, ok[i]]
        mean[i] = np.mean(x) if x.size else np.nan
        std[i] = np.std(x, ddof=1) if x.size > 1 and x.min() < x.max() else 0.0
    return mean, std


@dataclass(frozen=True)
class SweepResult:
    """Per-sigma Monte Carlo summary plus the raw sample values."""

    mean: np.ndarray
    std: np.ndarray
    samples: np.ndarray
    failures: np.ndarray
    fidelities: np.ndarray

    @property
    def stderr(self) -> np.ndarray:
        return self.std / np.sqrt(np.maximum(self.samples, 1))


def sweep_coherent(system, cfg: DisorderConfig, metric: SweepMetric) -> SweepResult:
    """Monte Carlo fidelity under static coherent disorder.

    `system` is DomeParams for the chain metrics or Grid2D for the corner
    metric, or a sequence of M of them that differ only in m: then every
    result array gains a leading M axis.  Evolution time is T/4 for the
    entanglement metrics and T/2 for the transfer channel, once per value
    of cfg.sigmas.  One draw of unit normals serves every system and sigma,
    so all points share their noise field, and one chunked `eigh` stream runs
    over the flattened (m, sigma, sample) rows in order on the calling thread.
    Failed and non-finite samples are counted and left out of the statistics, not raised.
    """
    model = _SiteModel.of(system)
    readout, duration = _reference(model, metric)
    qpt = metric is SweepMetric.QPT_AT_HALF_T
    # The transfer channel scores each sample on its own amplitude.
    a0, weight0 = (None, None) if qpt else _noise_free(model, readout, duration)

    n_samples, axis = cfg.samples, np.array(cfg.sigmas)
    targeted = _targeted(model, cfg.target)
    unit = _unit_normals(cfg.seed, range(n_samples), sum(idx.size for idx in targeted))
    fids = np.empty(model.freqs.shape[0] * axis.size * n_samples)
    chunk = max(1, MAX_CHUNK_ENTRIES // model.freqs.shape[1] ** 2)  # bounds the entries in flight
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples fail
        for start in range(0, fids.size, chunk):
            rows = np.arange(start, min(start + chunk, fids.size))
            members, point = np.divmod(rows, axis.size * n_samples)
            noise = axis[point // n_samples, None] * unit[point % n_samples]
            a = _readout_amplitudes(_perturbed(model, targeted, noise, members), duration, readout)
            if qpt:
                fids[rows] = transfer_fidelity(np.abs(a[:, 0]) ** 2, a[:, 0])
            else:
                fids[rows] = _readout_fidelity(a, a0[members], weight0[members])
    fids = fids.reshape(-1, n_samples)
    ok = ~np.isnan(fids)
    mean, std = _statistics(fids, ok)
    shape = model.stack + axis.shape
    return SweepResult(mean=mean.reshape(shape), std=std.reshape(shape),
                       samples=ok.sum(axis=1).reshape(shape),
                       failures=(~ok).sum(axis=1).reshape(shape),
                       fidelities=fids.reshape(*shape, n_samples))


def sweep_decoherence(system, metric: SweepMetric, decos) -> np.ndarray:
    """Open-system fidelity at each of a sequence of P DecoherenceConfigs.

    `decos` gives T1 and Tphi in seconds, as `evolve_lindblad` takes them,
    and the rate is the chains' J in rad/s.  `system` is one DomeParams or
    a sequence of M of them that differ only in m (repeated m included):
    the (P,) fidelities then gain a leading M axis.  Any list is a scan;
    the CLI lays out its T1 cut at fixed Tphi and Tphi cut at fixed T1 as
    one.  One checked open propagation (`dynamics._open_parts`) evolves
    |1><1| to the metric's time under every chain and config, and the end
    pair's readout block, read off the final site blocks, is scored
    against the noise-free amplitudes a0 of `_noise_free`: the
    entanglement metric is its overlap with the noise-free T/4 reduction,
    the transfer metric the T/2 process fidelity
    `transfer_fidelity(rho_NN, e^{-rt} u)` with u = a0 the noise-free end
    amplitude and r the vacuum-coherence decay rate.
    """
    model = _SiteModel.of(system)
    if len(model.lengths) != 1 or metric is SweepMetric.W_AT_QUARTER_T:
        raise ValueError("decoherence scans are defined for chain metrics on chains (DomeParams), "
                         "not grids")
    readout, duration = _reference(model, metric)
    a0, weight0 = _noise_free(model, readout, duration)
    hams = model.matrices()
    psi0 = site_state(hams.shape[-1], 1)
    decos = tuple(decos)
    finals = _open_parts(hams, np.outer(psi0, psi0.conj()), np.array([0.0, duration]), decos)[0]
    block = finals[:, :, -1][..., readout[:, None], readout]  # (M, P, k, k)
    if metric is SweepMetric.QPT_AT_HALF_T:
        decay = np.exp(-np.array([d.vacuum_coherence_rate for d in decos]) * duration)
        fids = transfer_fidelity(block[..., 0, 0], np.outer(a0[:, 0], decay))
    else:
        fids = _readout_fidelity(block, a0[:, None], weight0[:, None], block=True)
    return fids.reshape(model.stack + (len(decos),))
