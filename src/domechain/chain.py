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

    def is_mirror_symmetric(self) -> bool:
        """Mirror symmetric to 1e-9 of the largest |omega| or |J| (at least 1)."""
        scale = max(1.0, float(np.max(np.abs(self.omegas)) if self.omegas.size else 0.0),
                    float(np.max(np.abs(self.couplings)) if self.couplings.size else 0.0))
        ok_om = np.allclose(self.omegas, self.omegas[::-1], atol=1e-9 * scale, rtol=0)
        ok_cp = np.allclose(self.couplings, self.couplings[::-1], atol=1e-9 * scale, rtol=0)
        return bool(ok_om and ok_cp)

    def validate_synthesized(self) -> None:
        """Checks expected of reconstruction and closed-form outputs."""
        if self.couplings.size and not np.all(self.couplings > 0):
            raise ValueError("synthesized chain must have strictly positive couplings")
        if not self.is_mirror_symmetric():
            raise ValueError("synthesized chain must be mirror symmetric")

    @property
    def period(self) -> float:
        """Evolution period 2 pi / J in seconds (rate_J in rad/s)."""
        return 2.0 * np.pi / self.rate_J
