"""Mirror-symmetric chain synthesis from a prescribed spectrum.

Given N distinct eigenvalues, a unique mirror-symmetric tridiagonal
matrix with positive couplings shares them.  The construction runs a
discrete orthogonal-polynomial recurrence over the spectral nodes
lambda_s with weights alpha_s:

    (p, q) = sum_s alpha_s p(lambda_s) q(lambda_s)

    P_n = (lambda - omega_n) P_{n-1} - J_{n-1}^2 P_{n-2}

where omega_n is the weighted Rayleigh quotient of P_{n-1} and
J_n = ||P_n|| / ||P_{n-1}||.  The weights follow from the node polynomial
P_N(lambda) = prod_s (lambda - lambda_s):

    alpha_s  proportional to  1 / |P_N'(lambda_s)|,

normalized to unit sum; for mirror-symmetric chains they are exactly the
squared first components of the eigenvectors.

Monic polynomial values overflow quickly on wide spectra, so the
recurrence is carried in normalized form, P_n / ||P_n||.  This keeps
every intermediate O(1), and the normalized values at the nodes are
exactly the eigenvector coefficient functions chi_{n+1}(lambda_s).

Mirror symmetry makes the second half of the coefficients a reflection
of the first, so only ceil(N/2) recurrence steps are taken; the result
is then verified by re-diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TridiagonalHamiltonian
from .spectrum import Spectrum

__all__ = [
    "WeightedSpectrum",
    "EigenBasis",
    "ReconstructionError",
    "compute_weights",
    "reconstruct",
    "eigenvectors",
]


class ReconstructionError(RuntimeError):
    """Numerical breakdown of the synthesis recurrence.

    degree marks the first polynomial degree at which the recurrence lost
    positivity or the synthesized chain failed re-diagonalization.
    """

    def __init__(self, message: str, degree: int | None = None):
        super().__init__(message)
        self.degree = degree


@dataclass(frozen=True)
class WeightedSpectrum:
    """Spectrum plus the inner-product weights alpha_s (positive, unit sum)."""

    spectrum: Spectrum
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != self.spectrum.values.shape:
            raise ValueError("weights must match the spectrum length")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class EigenBasis:
    """Eigenvector matrix W with rows indexed by eigenvalue, columns by site.

    W[s, n] = sqrt(alpha_s) chi_{n+1}(lambda_s); rows are orthonormal and
    row s is the eigenvector of eigenvalue lambda_s.
    """

    weighted: WeightedSpectrum
    matrix: np.ndarray


def compute_weights(spec: Spectrum) -> WeightedSpectrum:
    """Inner-product weights from the node-polynomial derivative.

    P_N'(lambda_s) = prod_{r != s} (lambda_s - lambda_r); the weights are
    1/|P_N'| normalized to unit sum.  Differences are computed pairwise,
    in logs, so wide spectra do not overflow.
    """
    lam = spec.values
    N = lam.size
    if N == 1:
        return WeightedSpectrum(spectrum=spec, weights=np.ones(1))
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0.0):
        raise ValueError("repeated eigenvalues: weights are undefined")
    log_abs = np.sum(np.log(np.abs(diff)), axis=1)
    log_w = -log_abs
    log_w -= log_w.max()
    w = np.exp(log_w)
    return WeightedSpectrum(spectrum=spec, weights=w / w.sum())


def _recurrence(ws: WeightedSpectrum, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Run the normalized recurrence for `steps` (at most N - 1) steps.

    Returns (omegas, couplings), one of each per step.  Raises
    ReconstructionError when a norm collapses.
    """
    lam = ws.spectrum.values
    a = ws.weights
    span = max(1.0, float(np.max(np.abs(lam))))
    omegas = []
    couplings = []
    p_prev = np.zeros(lam.size)
    p_cur = np.ones(lam.size)  # ||P_0|| = sqrt(sum alpha) = 1
    j_prev = 0.0
    for n in range(1, steps + 1):
        om = float(np.sum(a * lam * p_cur**2))
        omegas.append(om)
        q = (lam - om) * p_cur - j_prev * p_prev
        norm_sq = float(np.sum(a * q * q))
        if not norm_sq > (1e-14 * span) ** 2:
            raise ReconstructionError(
                f"recurrence norm collapsed at degree {n}", degree=n
            )
        jn = float(np.sqrt(norm_sq))
        couplings.append(jn)
        p_prev, p_cur, j_prev = p_cur, q / jn, jn
    return np.array(omegas), np.array(couplings)


def reconstruct(spec: Spectrum) -> TridiagonalHamiltonian:
    """Synthesize the mirror-symmetric chain with the prescribed spectrum.

    Only ceil(N/2) recurrence steps are taken; the remaining coefficients
    follow by reflection (omega_n = omega_{N+1-n}, J_n = J_{N-n}).  The
    output is re-diagonalized and required to match the input spectrum to
    1e-8 relative, which doubles as a breakdown check.
    """
    ws = compute_weights(spec)
    N = spec.n
    if N == 1:
        return TridiagonalHamiltonian(
            omegas=spec.values.copy(), couplings=np.zeros(0), rate_J=spec.rate_J
        )
    half = (N + 1) // 2
    omegas_half, couplings_half = _recurrence(ws, half)
    omegas = np.zeros(N)
    omegas[:half] = omegas_half
    omegas[half:] = omegas_half[: N - half][::-1]
    couplings = np.zeros(N - 1)
    couplings[:half] = couplings_half
    half_c = (N - 1 + 1) // 2
    couplings[half_c:] = couplings[: (N - 1) - half_c][::-1]
    ham = TridiagonalHamiltonian(omegas=omegas, couplings=couplings, rate_J=spec.rate_J)
    ev = np.linalg.eigvalsh(ham.matrix())
    scale = max(1.0, float(np.max(np.abs(spec.values))))
    err = float(np.max(np.abs(ev - spec.values))) / scale
    if err > 1e-8:
        raise ReconstructionError(
            f"synthesized chain eigenvalues deviate by {err:.2e} relative; "
            f"spectrum outside the validated double-precision range",
            degree=N,
        )
    return ham


def eigenvectors(ham: TridiagonalHamiltonian, ws: WeightedSpectrum) -> EigenBasis:
    """Eigenvector matrix from the chain coefficients and the weights.

    Uses the site recurrence J_n chi_{n+1} = (lambda - omega_n) chi_n
    - J_{n-1} chi_{n-1} with chi_1 = 1, then scales rows by
    sqrt(alpha_s).  The pair is rejected when the eigen-residual
    ||H W^T - W^T Lambda|| exceeds tolerance, which catches mismatched
    (ham, weights) inputs.
    """
    lam = ws.spectrum.values
    a = ws.weights
    N = ham.n
    if lam.size != N:
        raise ValueError("spectrum size does not match the chain size")
    om = ham.omegas
    J = ham.couplings
    chi = np.zeros((N, N))
    chi[:, 0] = 1.0
    if N > 1:
        chi[:, 1] = (lam - om[0]) / J[0]
    for n in range(2, N):
        chi[:, n] = ((lam - om[n - 1]) * chi[:, n - 1] - J[n - 2] * chi[:, n - 2]) / J[n - 1]
    W = np.sqrt(a)[:, None] * chi
    H = ham.matrix()
    residual = np.max(np.abs(H @ W.T - W.T * lam[None, :]))
    scale = max(1.0, float(np.max(np.abs(lam))))
    if residual / scale > 1e-8:
        raise ValueError(
            f"inconsistent chain/weights pair: eigen-residual {residual:.2e}"
        )
    return EigenBasis(weighted=ws, matrix=W)
