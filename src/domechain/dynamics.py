"""Closed and open dynamics in the vacuum-plus-one-excitation subspace.

States live in dimension D + 1 where D is the site count: index 0 is the
vacuum (all qubits down) and index n >= 1 is the single excitation on
site n.  Excitation-conserving Hamiltonians act on the site block only,
so closed evolution diagonalizes the D x D block once and leaves the
vacuum amplitude untouched.

Open dynamics solves the master equation

    drho/dt = -i [H, rho] + sum_n (1/T1) D[|0><n|] rho
                          + sum_n (1/(2 Tphi)) D[Z_n] rho

with D[L] rho = L rho L+ - {L+ L, rho}/2 and Z_n the qubit-n parity
operator (diagonal, +1 on site n, -1 elsewhere including vacuum).  Per
site this reproduces the usual rates: populations relax at 1/T1 and
single-qubit coherences dephase at 1/Tphi on top of the 1/(2 T1)
relaxation contribution.

With gamma1 = 1/T1 and gamma_phi = 1/(2 Tphi) the equation splits into
three exactly solvable parts:

    rho_S0(t) = exp(-(gamma1/2 + 2 gamma_phi) t) U(t) rho_S0(0)
    rho_S'    = -i [H, rho_S] - gamma1 rho_S - 4 gamma_phi (rho_S - diag rho_S)
    rho_00    = tr rho(0) - tr rho_S

The vacuum coherences ride the closed eigendecomposition.  The site block
obeys one time-independent D^2 x D^2 generator: small systems exponentiate
it densely (once per distinct step length, steps within a few ulps of the
end time counting as one), large ones apply it with scipy's expm_multiply
on its sparse form.  Closed evolution and the vacuum terms are evaluated
for the whole time grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

__all__ = [
    "DecoherenceConfig",
    "Trajectory",
    "ClosedPropagator",
    "vacuum_state",
    "site_state",
    "eigendecompose",
    "evolve_closed",
    "evolve_lindblad",
    "populations",
    "default_time_grid",
]

# Points per period on default output grids; dense enough for plotting
# the fastest dome modes used in practice.
POINTS_PER_PERIOD = 401

# Largest site count whose site-block generator is exponentiated densely.
# The dense cost grows as D^6 but only logarithmically with the coupling
# scale; expm_multiply grows as D^2 times the coupling scale.  Timed on the
# `domechain evolve` default grid (402 points, 5 MHz, T1 = 30 us, Tphi = 5 us,
# one BLAS thread), which costs 5 dense exponentials: at D = 20 dense is
# 1.4x faster than sparse for the m = 2 chain and the 4x5 grid, at D = 24
# it is 1.7x slower for the m = 2 chain and the 4x6 grid, and the stiff
# m = 102 chain ran 10-24x faster dense from D = 16 to 22.  The sparse path
# is what lets large grids run at all: one dense matrix needs 1.6 GB at
# D = 100.
DENSE_GENERATOR_MAX_SITES = 20


def vacuum_state(n_sites: int) -> np.ndarray:
    psi = np.zeros(n_sites + 1, dtype=complex)
    psi[0] = 1.0
    return psi


def site_state(n_sites: int, site: int) -> np.ndarray:
    """Single excitation on 1-based site index."""
    if not 1 <= site <= n_sites:
        raise ValueError("site index out of range")
    psi = np.zeros(n_sites + 1, dtype=complex)
    psi[site] = 1.0
    return psi


@dataclass(frozen=True)
class DecoherenceConfig:
    """Uniform per-site relaxation and pure-dephasing times in seconds.

    None disables the corresponding channel.
    """

    t1: float | None = None
    t_phi: float | None = None

    def __post_init__(self) -> None:
        for name, val in (("t1", self.t1), ("t_phi", self.t_phi)):
            if val is not None and not val > 0:
                raise ValueError(f"{name} must be positive when given")

    @property
    def gamma1(self) -> float:
        return 0.0 if self.t1 is None else 1.0 / self.t1

    @property
    def gamma_phi(self) -> float:
        return 0.0 if self.t_phi is None else 0.5 / self.t_phi


@dataclass(frozen=True)
class Trajectory:
    """Time series of states (closed) or density matrices (open)."""

    times: np.ndarray
    states: np.ndarray | None = None
    rhos: np.ndarray | None = None

    def site_populations(self) -> np.ndarray:
        """(T, D) array of per-site populations."""
        if self.states is not None:
            return np.abs(self.states[:, 1:]) ** 2
        return np.real(np.einsum("tii->ti", self.rhos))[:, 1:]

    def vacuum_population(self) -> np.ndarray:
        if self.states is not None:
            return np.abs(self.states[:, 0]) ** 2
        return np.real(self.rhos[:, 0, 0])


def _check_symmetric(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.max(np.abs(H - H.T)) > 1e-10 * scale:
        raise ValueError("H must be symmetric")
    return H


def eigendecompose(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns.

    Eigenvector signs are fixed (largest-magnitude component positive) so
    identical inputs give identical output.
    """
    H = _check_symmetric(H)
    w, V = np.linalg.eigh(H)
    for k in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, k])))
        if V[i, k] < 0:
            V[:, k] = -V[:, k]
    return w, V


class ClosedPropagator:
    """Cached eigendecomposition of a site-block Hamiltonian.

    Reused across output times and across observables within a Monte
    Carlo sample, which keeps sweeps at one diagonalization per sample.
    """

    def __init__(self, H: np.ndarray):
        self.w, self.V = eigendecompose(H)
        self.dim = self.w.size

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Evolve a (D+1)-component state by time t."""
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.dim + 1,):
            raise ValueError("state must have length D + 1 (vacuum slot first)")
        out = psi.copy()
        phases = np.exp(-1j * self.w * t)
        out[1:] = self.V @ (phases * (self.V.T @ psi[1:]))
        return out


def evolve_closed(H: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> Trajectory:
    """Unitarily evolve psi0 through the site block of H.

    H is the D x D site block (physical units, rad/s when times are in
    seconds); psi0 has D + 1 entries with index 0 the vacuum amplitude.
    """
    prop = ClosedPropagator(H)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    states = np.empty((times.size, psi0.size), dtype=complex)
    states[:, 0] = psi0[0]
    c0 = prop.V.T @ psi0[1:]
    states[:, 1:] = (np.exp(-1j * np.outer(times, prop.w)) * c0) @ prop.V.T
    return Trajectory(times=times, states=states)


def _site_block_generator(H: np.ndarray, deco: DecoherenceConfig, dense: bool):
    """Generator of the row-major vec of the site block rho_S.

    -i (H kron 1 - 1 kron H) for the commutator (H is real symmetric), plus
    a diagonal decay: gamma1 on populations, gamma1 + 4 gamma_phi on the
    coherences between sites.  A dense ndarray when `dense`, else CSR.
    """
    D = H.shape[0]
    decay = np.full((D, D), deco.gamma1 + 4.0 * deco.gamma_phi)
    np.fill_diagonal(decay, deco.gamma1)
    if dense:
        eye = np.eye(D)
        G = -1j * (np.kron(H, eye) - np.kron(eye, H))
        G[np.diag_indices(D * D)] -= decay.reshape(-1)
        return G
    Hs = scipy.sparse.csr_matrix(H)
    eye = scipy.sparse.identity(D, format="csr")
    commutator = scipy.sparse.kron(Hs, eye) - scipy.sparse.kron(eye, Hs)
    return (-1j * commutator - scipy.sparse.diags(decay.reshape(-1))).tocsr()


def _merge_steps(steps: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group index of each step and the mean length of each group.

    Sorted step lengths that differ from their neighbour by at most tol
    share a group.  Taking the mean keeps the summed time of a group's
    steps equal to the sum of their exact lengths.
    """
    lengths, inverse = np.unique(steps, return_inverse=True)
    group = (np.cumsum(np.r_[True, np.diff(lengths) > tol]) - 1)[inverse]
    return group, np.bincount(group, weights=steps) / np.bincount(group)


def _evolve_open_stack(
    H: np.ndarray,
    rhos0: np.ndarray,
    times: np.ndarray,
    deco: DecoherenceConfig,
) -> np.ndarray:
    """Exact open evolution of a stack of Hermitian density matrices.

    rhos0 has shape (k, D+1, D+1); all members share H and deco, so the
    stack is one linear map.  Returns shape (T, k, D+1, D+1).  The site
    block steps from one output time to the next; the vacuum coherences
    and the vacuum population are then evaluated at all times at once.
    """
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    steps = np.diff(times, prepend=0.0)
    if np.any(steps < 0):
        raise ValueError("times must be non-decreasing")
    D = H.shape[0]
    k = rhos0.shape[0]
    dense = D <= DENSE_GENERATOR_MAX_SITES
    G = _site_block_generator(H, deco, dense)
    if dense:
        # The steps of a linspace grid differ in their last bits; steps within
        # a few ulps of the end time share one exponential.
        group, lengths = _merge_steps(steps, 4.0 * np.spacing(times[-1]))
        step_maps = {g: scipy.linalg.expm(G * lengths[g]) for g in set(group[steps > 0])}
    sites = rhos0[:, 1:, 1:].reshape(k, D * D).T
    out = np.empty((times.size, k, D + 1, D + 1), dtype=complex)
    for i, dt in enumerate(steps):
        if dt > 0.0 and dense:
            sites = step_maps[group[i]] @ sites
        elif dt > 0.0:
            sites = expm_multiply(G * dt, sites)
        out[i, :, 1:, 1:] = sites.T.reshape(k, D, D)
    w, V = eigendecompose(H)
    decay = np.exp(-(1j * w + 0.5 * deco.gamma1 + 2.0 * deco.gamma_phi) * times[:, None])
    cols = (V @ (decay[:, :, None] * (V.T @ rhos0[:, 1:, 0].T))).transpose(0, 2, 1)
    out[:, :, 1:, 0] = cols
    out[:, :, 0, 1:] = cols.conj()
    out[:, :, 0, 0] = np.einsum("kii->k", rhos0) - np.einsum("tkii->tk", out[:, :, 1:, 1:])
    return out


def evolve_lindblad(
    H: np.ndarray,
    rho0: np.ndarray,
    times: np.ndarray,
    deco: DecoherenceConfig,
) -> Trajectory:
    """Open evolution of rho0 under H with uniform T1 and Tphi channels.

    rho0 is (D+1) x (D+1) on the vacuum-plus-sites basis; times start at 0
    and do not decrease.  Trace and positivity of the result are validated
    to 1e-6.
    """
    H = _check_symmetric(H)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rho0 = np.asarray(rho0, dtype=complex)
    dim = H.shape[0] + 1
    if rho0.shape != (dim, dim):
        raise ValueError("rho0 must be (D+1) x (D+1)")
    if abs(np.trace(rho0).real - 1.0) > 1e-9 or np.max(np.abs(rho0 - rho0.conj().T)) > 1e-9:
        raise ValueError("rho0 must be Hermitian with unit trace")
    rhos = _evolve_open_stack(H, rho0[None], times, deco)[:, 0]
    traces = np.real(np.einsum("tii->t", rhos))
    if not np.all(np.abs(traces - 1.0) <= 1e-6):
        raise RuntimeError("open evolution drifted in trace beyond 1e-6")
    if not np.linalg.eigvalsh(rhos).min() >= -1e-6:
        raise RuntimeError("open evolution lost positivity beyond 1e-6")
    return Trajectory(times=times, rhos=rhos)


def populations(traj: Trajectory) -> np.ndarray:
    """Per-site populations P_n(t) as a (T, D) array."""
    return traj.site_populations()


def default_time_grid(period: float, n_periods: float = 1.0) -> np.ndarray:
    """Uniform output grid with POINTS_PER_PERIOD points per period."""
    n = int(np.ceil(POINTS_PER_PERIOD * n_periods))
    return np.linspace(0.0, period * n_periods, n + 1)
