"""Closed-form chain and grid builders, and the large-m two-site reduction.

The dome chain realizes the dome spectrum directly:

    omega_n = (n - 1)(N - n) m J
    J_n = (J / 2) sqrt(n (N - n - 1) m + n) sqrt((n - 1)(N - n) m + N - n)

m = 0 is the engineered line J_n = (J/2) sqrt(n (N - n)) with flat
frequencies.  These forms are exactly mirror symmetric and provide the
independent check on the spectral synthesis route.

A 2D grid applies the same profile along rows and columns; on-site
frequencies add and the single-excitation spectrum is the Kronecker sum
of the two 1D spectra.

For large m the middle sites are far detuned from the ends and the chain
reduces to an effective two-site system with J_eff -> (-1)^N J / 2 and
end frequencies shifted by -(N - 2) J / 2.

`DomeParams` and `Grid2D` alone carry the rate J (rad/s), checked once by
`_check_system`; spectra and chains are in units of J.  `_SiteModel` is the
package's one system model and alone knows the layout: it checks that
chains or grids form one layout that J scales without overflow, builds all
their dome axes in one closed-form pass (`_dome_entries`) and records the
axis lengths, which fix the bonds, readout sites, T/4 target and metric
pairing.  `single_excitation_matrix`, `noise`'s sweeps and `evolve` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import TridiagonalHamiltonian
from .spectrum import _integer

__all__ = [
    "DomeParams",
    "Grid2D",
    "EffectiveTwoSite",
    "PerturbativeBreakdownError",
    "dome_hamiltonian",
    "single_excitation_matrix",
    "schrieffer_wolff_reduce",
]


def _check_system(system, sizes: tuple[str, ...], shapes: tuple[str, ...]) -> None:
    """The one check of chain and grid parameters, which it reads as ints.

    Sizes (at least 2) and shapes m (at least 0) follow `spectrum._integer`;
    J must be finite and positive, with a finite period 2 pi / J.  Each
    failure is a ValueError.
    """
    for names, low in ((sizes, 2), (shapes, 0)):
        for name in names:
            object.__setattr__(system, name, _integer(name, getattr(system, name), low))
    J = float(system.J)
    if not (0 < J < math.inf and math.isfinite(2.0 * math.pi / J)):
        raise ValueError(f"J must be finite and positive with a finite 2 pi / J, got {system.J!r}")


@dataclass(frozen=True)
class DomeParams:
    """Dome-chain parameters: length N, shape m, rate J (rad/s)."""

    N: int
    m: int
    J: float = 1.0

    def __post_init__(self) -> None:
        _check_system(self, ("N",), ("m",))

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.J


def _dome_entries(N: int, m) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form frequencies (..., N) and couplings (..., N - 1), in units of
    J, of length-N dome chains, one per shape in `m`: a scalar or (M,).  The
    couplings reuse the frequencies' exact integer products, bit for bit (N
    below 2^53): J_n / J = sqrt(omega_{n+1} + n) sqrt(omega_n + N - n) / 2."""
    n = np.arange(1, N + 1, dtype=float)
    omegas = (n - 1.0) * (N - n) * np.asarray(m, dtype=float)[..., None]
    return omegas, 0.5 * np.sqrt(omegas[..., 1:] + n[:-1]) * np.sqrt(omegas[..., :-1] + N - n[:-1])


def dome_hamiltonian(params: DomeParams) -> TridiagonalHamiltonian:
    """Dome chain from the closed forms (no spectral synthesis involved).

    Mirror symmetry and positive couplings hold exactly by construction
    (the suite pins both bitwise), so they are not re-checked here.
    """
    return TridiagonalHamiltonian(*_dome_entries(params.N, params.m))


@dataclass(frozen=True)
class Grid2D:
    """Rectangular grid whose rows and columns are dome chains.

    Row chains have length cols with shape m_x; column chains length rows
    with shape m_y.  On-site frequencies are omega_x[c] + omega_y[r]; all
    rows share the x couplings and all columns the y couplings.  Site
    (r, c) maps to flat index r * cols + c (0-based, row major).
    """

    rows: int
    cols: int
    m_x: int
    m_y: int
    J: float = 1.0

    def __post_init__(self) -> None:
        _check_system(self, ("rows", "cols"), ("m_x", "m_y"))

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.J

    def row_chain(self) -> DomeParams:
        return DomeParams(N=self.cols, m=self.m_x, J=self.J)

    def column_chain(self) -> DomeParams:
        return DomeParams(N=self.rows, m=self.m_y, J=self.J)

    def corner_indices(self) -> list[int]:
        """Flat indices of corners in the order (1,1), (1,C), (R,1), (R,C)."""
        R, C = self.rows, self.cols
        return [0, C - 1, (R - 1) * C, R * C - 1]


def _bond_pairs(rows: int, cols: int) -> np.ndarray:
    """(B, 2) flat site indices of a grid's bonds (a chain is the 1 x N grid):
    x bonds, then y bonds, row major, the order disorder draws follow."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    x = np.stack([idx[:, :-1].reshape(-1), idx[:, 1:].reshape(-1)], axis=-1)
    y = np.stack([idx[:-1].reshape(-1), idx[1:].reshape(-1)], axis=-1)
    return np.concatenate([x, y])


@dataclass(frozen=True)
class _SiteModel:
    """Chains or grids of one layout: noise-free site-matrix entries `freqs`
    (M, D) and `couplings` (M, B) in units of J, one row per system, the
    axis `lengths`, (N,) for chains and (rows, cols) for grids, the (B, 2)
    `bonds` in draw order, the chain ends or grid corners `edges`, J in
    rad/s, and the leading shape `stack` of per-system results: () for one
    system, (M,) for a sequence of M.  The lengths fix the readout pairing:
    chains take the chain metrics, grids the corner metric.
    """

    freqs: np.ndarray
    couplings: np.ndarray
    lengths: tuple[int, ...]
    bonds: np.ndarray
    edges: np.ndarray
    rate: float
    stack: tuple[int, ...]

    @classmethod
    def of(cls, system) -> _SiteModel:
        """The model of one DomeParams or Grid2D, or of a sequence of them
        that differ only in m (TypeError for anything else, ValueError for
        a sequence that is empty or mixes kinds, sizes or rates, or for a J
        that scales the largest absolute row sum, which bounds every entry
        and eigenvalue, past a float).  Each axis, a grid's column chain then
        its row chain, takes the closed forms of every system in one pass."""
        one = isinstance(system, (DomeParams, Grid2D))
        systems = [system] if one else list(system)
        if not {type(s) for s in systems} <= {DomeParams, Grid2D}:
            raise TypeError("system must be DomeParams or Grid2D")
        axes = [((s.N, s.m),) if type(s) is DomeParams else ((s.rows, s.m_y), (s.cols, s.m_x))
                for s in systems]
        layouts = {(s.J, tuple(length for length, _ in a)) for s, a in zip(systems, axes)}
        if len(layouts) != 1:
            raise ValueError("stacked systems must share kind, size and rate")
        ((rate, lengths),) = layouts
        shapes = np.array([[m for _, m in a] for a in axes], dtype=float)
        entries = [_dome_entries(length, shapes[:, i]) for i, length in enumerate(lengths)]
        if len(lengths) == 1:
            ((freqs, couplings),) = entries
        else:  # row-major frequencies; x couplings on every row, then y across every column
            (col_freqs, col_couplings), (row_freqs, row_couplings) = entries
            freqs = (col_freqs[:, :, None] + row_freqs[:, None, :]).reshape(len(systems), -1)
            couplings = np.concatenate([np.tile(row_couplings, lengths[0]),
                                        np.repeat(col_couplings, lengths[1], axis=1)], axis=1)
        bonds = _bond_pairs(*(1, *lengths)[-2:])
        edges = [0]
        for length in lengths:  # the ends of every axis: chain ends, grid corners row major
            edges = [e * length + end for e in edges for end in (0, length - 1)]
        row_sums = np.abs(freqs)
        np.add.at(row_sums, (slice(None), bonds), np.abs(couplings)[..., None])
        if math.isinf(float(row_sums.max()) * float(rate)):
            raise ValueError(f"J = {rate!r} rad/s scales the site matrix past a float")
        return cls(freqs, couplings, lengths, bonds, np.array(edges), rate,
                   () if one else (len(systems),))

    def matrices(self, physical: bool = True, freqs=None, couplings=None) -> np.ndarray:
        """(..., D, D) site matrices of on-site values (..., D) and bond values
        (..., B) in units of J, the model's own (M, D, D) by default; scaled
        to rad/s if `physical`."""
        rate = self.rate if physical else 1.0  # scales the entries, not the (..., D, D) zeros
        freqs = (self.freqs if freqs is None else freqs) * rate
        couplings = (self.couplings if couplings is None else couplings) * rate
        D = freqs.shape[-1]
        H = np.zeros(freqs.shape + (D,))
        sites = np.arange(D)
        H[..., sites, sites] = freqs
        H[..., self.bonds[:, 0], self.bonds[:, 1]] = couplings
        H[..., self.bonds[:, 1], self.bonds[:, 0]] = couplings
        return H


def single_excitation_matrix(system: DomeParams | Grid2D, physical: bool = False) -> np.ndarray:
    """The one physical-matrix builder: the dense single-excitation matrix of a
    chain or grid (row-major sites) in units of J, or in rad/s if `physical`."""
    return _SiteModel.of(system).matrices(physical)[0]


class PerturbativeBreakdownError(RuntimeError):
    """Edge/middle gap too small for the second-order reduction."""


@dataclass(frozen=True)
class EffectiveTwoSite:
    """Effective end-pair model after integrating out the middle sites."""

    omega1_eff: float
    omegaN_eff: float
    j_eff: float
    gap: float
    max_edge_coupling: float

    def eigenvalues(self) -> np.ndarray:
        H = np.array(
            [[self.omega1_eff, self.j_eff], [self.j_eff, self.omegaN_eff]]
        )
        return np.linalg.eigvalsh(H)


def schrieffer_wolff_reduce(ham: TridiagonalHamiltonian) -> EffectiveTwoSite:
    """Second-order reduction of a chain onto its two end sites.

    The middle block is diagonalized exactly and each eigenmode mu is
    integrated out with the symmetric energy denominator

        1/2 [ 1 / (E_a - d_mu) + 1 / (E_b - d_mu) ],

    E_a, E_b being the bare end frequencies.  Breakdown is declared when
    the smallest edge/middle gap is below 5 times the largest
    edge-to-middle coupling.
    """
    N = ham.n
    if N < 3:
        raise ValueError("reduction needs at least one middle site")
    H = ham.matrix()
    d, U = np.linalg.eigh(H[1 : N - 1, 1 : N - 1])
    v1 = H[0, 1 : N - 1] @ U
    vN = H[N - 1, 1 : N - 1] @ U
    E1, EN = H[0, 0], H[N - 1, N - 1]
    vmax = float(max(abs(ham.couplings[0]), abs(ham.couplings[-1])))
    gap = float(min(np.min(np.abs(E1 - d)), np.min(np.abs(EN - d))))
    if gap < 5.0 * vmax:
        raise PerturbativeBreakdownError(
            f"edge/middle gap {gap:.3g} below 5.0 x coupling {vmax:.3g}"
        )
    inv1 = 1.0 / (E1 - d)
    invN = 1.0 / (EN - d)
    j_eff = float(0.5 * np.sum(v1 * vN * (inv1 + invN)))
    omega1 = float(E1 + np.sum(v1 * v1 * inv1))
    omegaN = float(EN + np.sum(vN * vN * invN))
    return EffectiveTwoSite(
        omega1_eff=omega1,
        omegaN_eff=omegaN,
        j_eff=j_eff,
        gap=gap,
        max_edge_coupling=vmax,
    )
