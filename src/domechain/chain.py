"""Tridiagonal single-excitation Hamiltonians for nearest-neighbor chains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TridiagonalHamiltonian"]


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Site frequencies and couplings of an XY chain, in units of J.

    omegas has length N, couplings length N - 1.  rate_J (rad/s) carries
    the physical scale.  Instances produced by spectrum reconstruction or
    the dome closed forms are mirror symmetric with positive couplings;
    disorder-perturbed instances may violate both, so neither property is
    enforced at construction.
    """

    omegas: np.ndarray
    couplings: np.ndarray
    rate_J: float = 1.0

    def __post_init__(self) -> None:
        om = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        cp = np.atleast_1d(np.asarray(self.couplings, dtype=float)) if np.size(self.couplings) else np.zeros(0)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "couplings", cp)
        if om.ndim != 1 or om.size < 1:
            raise ValueError("omegas must be a non-empty 1-D array")
        if cp.size != om.size - 1:
            raise ValueError("couplings must have length N - 1")
        if not self.rate_J > 0:
            raise ValueError("rate_J must be positive")

    @property
    def n(self) -> int:
        return int(self.omegas.size)

    def matrix(self, physical: bool = False) -> np.ndarray:
        """Dense N x N matrix; physical=True multiplies by rate_J (rad/s)."""
        H = np.diag(self.omegas).astype(float)
        if self.couplings.size:
            H += np.diag(self.couplings, 1) + np.diag(self.couplings, -1)
        return H * self.rate_J if physical else H

    @property
    def period(self) -> float:
        """Evolution period 2 pi / J in seconds (rate_J in rad/s)."""
        return 2.0 * np.pi / self.rate_J
