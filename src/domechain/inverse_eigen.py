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
recurrence is carried in normalized form, P_n / ||P_n|| (the Stieltjes
form of de Boor & Golub's Jacobi-matrix reconstruction), on the
spectrum divided by a power of two just above max|lambda|.  This keeps
every intermediate O(1) for any finite spectrum; the scaling is exact and
is undone on omega and J.  The recurrence yields only the chain
coefficients; the eigenvectors come from one `eigh` of the synthesized
matrix, since running the site recurrence forward loses about a digit
every two sites.

Mirror symmetry makes the second half of the coefficients a reflection
of the first, so only ceil(N/2) recurrence steps are taken.  The chain
is then verified on the eigenvalues of that same `eigh`, which must
match the spectrum to 1e-8 relative; the check doubles as a breakdown
test for the recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import TridiagonalHamiltonian
from .spectrum import Spectrum

__all__ = [
    "ReconstructionError",
    "synthesize",
]


class ReconstructionError(RuntimeError):
    """Numerical breakdown of the synthesis recurrence or of its verification."""


def _weights(spec: Spectrum) -> np.ndarray:
    """Inner-product weights alpha_s (positive, unit sum) of the spectrum.

    P_N'(lambda_s) = prod_{r != s} (lambda_s - lambda_r); the weights are
    1/|P_N'| normalized to unit sum.  Differences are computed pairwise,
    in logs, so wide spectra do not overflow.
    """
    lam = spec.values
    N = lam.size
    if N == 1:
        return np.ones(1)
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0.0):
        raise ValueError("repeated eigenvalues: weights are undefined")
    log_abs = np.sum(np.log(np.abs(diff)), axis=1)
    log_w = -log_abs
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


@np.errstate(over="ignore", invalid="ignore")
def _recurrence(
    lam: np.ndarray, weights: np.ndarray, steps: int, couplings: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run the normalized recurrence for `steps` (at most N - 1) steps.

    Returns `steps` omegas and the first `couplings` (default `steps`)
    couplings; a step past the last coupling forms only its omega.  Raises
    ReconstructionError when a coefficient overflows or a norm collapses;
    overflow is detected, not warned about.  A norm collapses when
    orthogonalization cancels lambda P_{n-1} to rounding: ||P_n|| <= 1e-14
    ||lambda P_{n-1}||, where ||lambda P_{n-1}||^2 = ||P_n||^2 + J_{n-1}^2 +
    omega_n^2 for the normalized P_{n-1}.  A coupling that is merely small
    against max|lambda| is kept; `_check_spectrum` judges the chain.
    """
    couplings = steps if couplings is None else couplings
    omegas, js = [], []
    p_prev = np.zeros(lam.size)
    p_cur = np.ones(lam.size)  # ||P_0|| = sqrt(sum alpha) = 1
    j_prev = 0.0
    for n in range(1, steps + 1):
        om = float(np.sum(weights * lam * p_cur**2))
        omegas.append(om)
        if not math.isfinite(om):
            raise ReconstructionError(f"recurrence overflowed at degree {n}")
        if n > couplings:
            break
        q = (lam - om) * p_cur - j_prev * p_prev
        jn = float(np.sqrt(np.sum(weights * q * q)))
        if not math.isfinite(jn):
            raise ReconstructionError(f"recurrence overflowed at degree {n}")
        if not jn > 1e-14 * math.hypot(jn, j_prev, om):
            raise ReconstructionError(f"recurrence norm collapsed at degree {n}")
        js.append(jn)
        p_prev, p_cur, j_prev = p_cur, q / jn, jn
    return np.array(omegas), np.array(js)


def _exponent(values: np.ndarray) -> int:
    """e with max|values| in [2^(e-1), 2^e): dividing by 2^e scales exactly into (-1, 1)."""
    return math.frexp(float(np.max(np.abs(values))))[1]


def _chain(spec: Spectrum, weights: np.ndarray) -> TridiagonalHamiltonian:
    """The mirror-symmetric chain from ceil(N/2) recurrence steps, unverified.

    The recurrence is scale-covariant, so it runs on the spectrum divided by
    s = 2^e (see `_exponent`), where every intermediate is O(1), and omega
    and J are multiplied back by s.  Both scalings are exact short of
    subnormal results.
    """
    N = spec.n
    if N == 1:
        return TridiagonalHamiltonian(omegas=spec.values.copy(), couplings=np.zeros(0))
    half, half_c = (N + 1) // 2, N // 2
    e = _exponent(spec.values)
    omegas_half, couplings_half = (
        np.ldexp(c, e) for c in _recurrence(np.ldexp(spec.values, -e), weights, half, half_c)
    )
    omegas = np.zeros(N)
    omegas[:half] = omegas_half
    omegas[half:] = omegas_half[: N - half][::-1]
    couplings = np.zeros(N - 1)
    couplings[:half_c] = couplings_half
    couplings[half_c:] = couplings[: (N - 1) - half_c][::-1]
    return TridiagonalHamiltonian(omegas=omegas, couplings=couplings)


def _check_spectrum(ev: np.ndarray, spec: Spectrum) -> None:
    """Raise ReconstructionError unless eigenvalues ev match spec to 1e-8 relative.

    The deviation is relative to max|lambda| and computed on values scaled
    by s = 2^e of `_exponent`, so no subtraction overflows.  A NaN
    deviation (an overflowed chain) fails the test as well.
    """
    e = _exponent(spec.values)
    lam = np.ldexp(spec.values, -e)
    err = float(np.max(np.abs(np.ldexp(ev, -e) - lam))) / float(np.max(np.abs(lam)))
    if not err <= 1e-8:
        raise ReconstructionError(
            f"synthesized chain eigenvalues deviate by {err:.2e} relative; "
            f"spectrum outside the validated double-precision range"
        )


def synthesize(spec: Spectrum) -> tuple[TridiagonalHamiltonian, np.ndarray, np.ndarray]:
    """(chain, weights, eigenvector rows) of the spectrum: what `synth` writes.

    The chain is in the spectrum's units of J.  Only ceil(N/2) recurrence
    steps are taken; the remaining coefficients follow by reflection
    (omega_n = omega_{N+1-n}, J_n = J_{N-n}).  One `eigh` of the chain
    gives both the eigenvalues that verify it and the rows W, one per
    ascending eigenvalue, each signed so that its first component is
    non-negative: W[s, 0] = sqrt(alpha_s).  Where
    sqrt(alpha_s) is below eigh's absolute accuracy (about 1e-15, from
    about N = 48 on dome chains), that row's sign is deterministic but not
    physically pinned.  For a unit eigenvector, ||H w_s - lambda_s w_s||
    is |ev_s - lambda_s|, so the check also bounds the eigen-residual.
    """
    weights = _weights(spec)
    ham = _chain(spec, weights)
    ev, V = np.linalg.eigh(ham.matrix())
    _check_spectrum(ev, spec)
    V *= np.where(V[0] < 0, -1.0, 1.0)
    return ham, weights, V.T
