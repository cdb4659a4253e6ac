"""Target spectra for state-transfer chains and their transfer conditions.

A chain supports perfect state transfer (PST) at time tau when every
adjacent eigenvalue gap times tau is an odd multiple of pi.  Fractional
state transfer (FST) generalizes this: the end-site amplitudes at tau
form a fixed superposition parameterized by a mixing angle theta and a
relative phase psi.  Both conditions are properties of the spectrum
alone once the Hamiltonian is mirror symmetric.

The dome spectrum is the one-parameter family

    lambda_s = s - (N + 1)/2 + (s - 2)(s - 1) m / 2,   s = 1..N,

in units of the overall rate J.  A spectrum, its times and the chains
synthesized from it stay in these units: J sets the physical scale only
on the systems of `models`.  m = 0 recovers the linear spectrum of
the standard engineered-coupling chain; even m preserves PST at half
period, and m = 2 (mod 4) additionally yields FST with theta = pi/4 at
quarter period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "FstPhase",
    "dome_spectrum",
    "check_pst_spacing",
    "solve_fst_phase",
]

# Phase-matching tolerance for the PST/FST predicates.  Dome spectra are
# integers or half-integers in units of J, so roundoff is the only noise.
PHASE_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Strictly increasing eigenvalue list in units of the rate J."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("spectrum must be a non-empty 1-D array")
        if math.isinf(float(vals[-1]) - float(vals[0])):  # a finite span bounds every gap
            raise ValueError(f"spectrum span {vals[-1]:g} - ({vals[0]:g}) overflows a float")
        if not np.all(np.diff(vals) > 0):
            raise ValueError("spectrum values must be strictly increasing")

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class FstPhase:
    """Solution of the end-site transfer phase equations at a fixed time.

    theta in [0, pi/2] is the mixing angle between staying and transferring;
    psi is the relative phase of the transferred component and phi a global
    phase.  theta = 0 describes PST (psi folded into phi by convention),
    theta = pi/2 describes full return.
    """

    theta: float
    psi: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi / 2 + 1e-12:
            raise ValueError("theta outside [0, pi/2]")


def _integer(name: str, value, low: int) -> int:
    """value as an int, the package's one rule for sizes and shapes: finite,
    integral (integral floats and numpy integers too) and at least `low`.
    An int of 2^1024 or more, which has no float, is refused too."""
    try:
        ok = math.isfinite(value) and value == int(value) >= low
    except OverflowError:
        raise ValueError(f"{name} must be an integer >= {low} of magnitude below 2^1024") from None
    if not ok:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def dome_spectrum(N: int, m: int) -> Spectrum:
    """Dome spectrum for an N-site chain with shape parameter m, in units of J.

    Adjacent gaps are 1 + (s - 1) m, so the spectrum is strictly increasing
    for every m >= 0 and the evolution period is 2 pi in units of 1/J.
    N >= 1 and m >= 0 follow `_integer`'s rule.
    """
    N, m = _integer("N", N, 1), _integer("m", m, 0)
    s = np.arange(1, N + 1, dtype=float)
    vals = s - (N + 1) / 2.0 + (s - 2.0) * (s - 1.0) * m / 2.0
    return Spectrum(values=vals)


def check_pst_spacing(spec: Spectrum, tau: float) -> bool:
    """True when every adjacent gap times tau (in units of 1/J) is an odd multiple of pi."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    gaps = np.diff(spec.values)
    if gaps.size == 0:
        return True
    ratio = gaps * tau / math.pi
    return bool(np.all(np.abs(np.mod(ratio, 2.0) - 1.0) < PHASE_TOL))


def _class_signs(N: int) -> np.ndarray:
    # Sign of the end-site eigenvector component for a mirror-symmetric
    # chain: (-1)^(N+s) with s = 1..N and eigenvalues ascending.
    s = np.arange(1, N + 1)
    return np.where((N + s) % 2 == 0, 1.0, -1.0)


def solve_fst_phase(spec: Spectrum, tau: float) -> FstPhase | None:
    """Solve e^{-i lambda_s tau} = e^{i phi}(sin theta + e^{i psi} cos theta c_s).

    c_s = (-1)^(N+s) is the mirror end-site sign pattern.  The two residue
    classes of c_s each pin one complex number; the pair is solved as a
    2x2 linear system and the solution is verified against all N
    constraints; tau is in units of 1/J.  Returns None when no
    (theta, psi, phi) satisfies them.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    lam = spec.values
    N = lam.size
    z = np.exp(-1j * lam * tau)
    signs = _class_signs(N)
    plus = z[signs > 0]
    minus = z[signs < 0]
    # Within-class consistency: each class must collapse to a single value.
    if plus.size and np.max(np.abs(plus - plus[0])) > PHASE_TOL:
        return None
    if minus.size and np.max(np.abs(minus - minus[0])) > PHASE_TOL:
        return None
    if not plus.size or not minus.size:
        # N = 1 or single-class spectra carry no transfer information.
        return None
    A, B = plus[0], minus[0]
    u = (A + B) / 2.0  # e^{i phi} sin(theta)
    v = (A - B) / 2.0  # e^{i phi} e^{i psi} cos(theta)
    if abs(abs(u) ** 2 + abs(v) ** 2 - 1.0) > 1e-8:
        return None
    theta = math.atan2(abs(u), abs(v))
    if abs(u) < PHASE_TOL:
        sol = FstPhase(theta=0.0, psi=0.0, phi=float(np.angle(v)))
    elif abs(v) < PHASE_TOL:
        sol = FstPhase(theta=math.pi / 2, psi=0.0, phi=float(np.angle(u)))
    else:
        phi = float(np.angle(u))
        psi = float(np.angle(v) - phi)
        psi = (psi + math.pi) % (2 * math.pi) - math.pi
        sol = FstPhase(theta=theta, psi=psi, phi=phi)
    # Final verification against every constraint.
    model = np.exp(1j * sol.phi) * (
        math.sin(sol.theta) + np.exp(1j * sol.psi) * math.cos(sol.theta) * signs
    )
    if np.max(np.abs(model - z)) > 10 * PHASE_TOL:
        return None
    return sol

