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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TridiagonalHamiltonian

__all__ = [
    "DomeParams",
    "Grid2D",
    "EffectiveTwoSite",
    "PerturbativeBreakdownError",
    "dome_hamiltonian",
    "single_excitation_matrix",
    "schrieffer_wolff_reduce",
]


@dataclass(frozen=True)
class DomeParams:
    """Dome-chain parameters: length N, shape m, rate J (rad/s)."""

    N: int
    m: int
    J: float = 1.0

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.m < 0 or self.m != int(self.m):
            raise ValueError("m must be a non-negative integer")
        if not self.J > 0:
            raise ValueError("J must be positive")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.J


def dome_hamiltonian(params: DomeParams) -> TridiagonalHamiltonian:
    """Dome chain from the closed forms (no spectral synthesis involved).

    Mirror symmetry and positive couplings hold exactly by construction
    (the suite pins both bitwise), so they are not re-checked here.
    """
    N, m = params.N, params.m
    n = np.arange(1, N + 1, dtype=float)
    omegas = (n - 1.0) * (N - n) * m
    k = np.arange(1, N, dtype=float)
    couplings = 0.5 * np.sqrt(k * (N - k - 1.0) * m + k) * np.sqrt(
        (k - 1.0) * (N - k) * m + N - k
    )
    return TridiagonalHamiltonian(omegas=omegas, couplings=couplings, rate_J=params.J)


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
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid must be at least 2 x 2")
        for m in (self.m_x, self.m_y):
            if m < 0 or m != int(m):
                raise ValueError("m_x and m_y must be non-negative integers")
        if not self.J > 0:
            raise ValueError("J must be positive")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.J

    def row_chain(self) -> TridiagonalHamiltonian:
        return dome_hamiltonian(DomeParams(N=self.cols, m=self.m_x, J=self.J))

    def column_chain(self) -> TridiagonalHamiltonian:
        return dome_hamiltonian(DomeParams(N=self.rows, m=self.m_y, J=self.J))

    def corner_indices(self) -> list[int]:
        """Flat indices of corners in the order (1,1), (1,C), (R,1), (R,C)."""
        R, C = self.rows, self.cols
        return [0, C - 1, (R - 1) * C, R * C - 1]


def _grid_sites(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Row-major on-site frequencies and `_bond_pairs`-order couplings, units of J."""
    row, col = grid.row_chain(), grid.column_chain()
    freqs = (col.omegas[:, None] + row.omegas[None, :]).reshape(-1)
    couplings = np.concatenate(
        [np.tile(row.couplings, grid.rows), np.repeat(col.couplings, grid.cols)]
    )
    return freqs, couplings


def _bond_pairs(rows: int, cols: int) -> np.ndarray:
    """(B, 2) flat site indices of a grid's bonds: x bonds, then y bonds, row major.

    A chain is the 1 x N grid.  Disorder draws follow the same order.
    """
    idx = np.arange(rows * cols).reshape(rows, cols)
    x = np.stack([idx[:, :-1].reshape(-1), idx[:, 1:].reshape(-1)], axis=-1)
    y = np.stack([idx[:-1].reshape(-1), idx[1:].reshape(-1)], axis=-1)
    return np.concatenate([x, y])


def _site_matrix(freqs: np.ndarray, couplings: np.ndarray, bonds: np.ndarray) -> np.ndarray:
    """Site matrices (..., D, D) from on-site values (..., D) and bond values (..., B)."""
    D = freqs.shape[-1]
    H = np.zeros(freqs.shape + (D,))
    sites = np.arange(D)
    H[..., sites, sites] = freqs
    H[..., bonds[:, 0], bonds[:, 1]] = couplings
    H[..., bonds[:, 1], bonds[:, 0]] = couplings
    return H


def single_excitation_matrix(grid: Grid2D, physical: bool = False) -> np.ndarray:
    """Dense single-excitation matrix of a grid, row-major site order."""
    freqs, couplings = _grid_sites(grid)
    H = _site_matrix(freqs, couplings, _bond_pairs(grid.rows, grid.cols))
    return H * grid.J if physical else H


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
