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
on its sparse form.  `evolve_closed` is the one closed propagator: one
diagonalization and one matrix product give every output time, and a
single time is a one-point grid.  The vacuum terms of open evolution are
evaluated for the whole time grid the same way.

scipy is imported by the open propagator only, on its first call, so
closed evolution runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecoherenceConfig",
    "Trajectory",
    "site_state",
    "eigendecompose",
    "evolve_closed",
    "evolve_lindblad",
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

    @property
    def vacuum_coherence_rate(self) -> float:
        """Decay rate gamma1/2 + 2 gamma_phi of every coherence with the vacuum."""
        return 0.5 * self.gamma1 + 2.0 * self.gamma_phi


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

    Column signs are whatever LAPACK returns: every caller uses V only in
    V f(w) V^T, which no column sign changes.
    """
    return np.linalg.eigh(_check_symmetric(H))


def evolve_closed(H: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> Trajectory:
    """Unitarily evolve psi0 through the site block of H.

    H is the D x D site block (physical units, rad/s when times are in
    seconds); psi0 has D + 1 entries with index 0 the vacuum amplitude.
    One diagonalization serves the whole time grid.
    """
    w, V = eigendecompose(H)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (w.size + 1,):
        raise ValueError("psi0 must have length D + 1 (vacuum slot first)")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    states = np.empty((times.size, psi0.size), dtype=complex)
    states[:, 0] = psi0[0]
    c0 = V.T @ psi0[1:]
    states[:, 1:] = (np.exp(-1j * np.outer(times, w)) * c0) @ V.T
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
    import scipy.sparse

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


def _evolve_open(
    H: np.ndarray,
    rho0: np.ndarray,
    times: np.ndarray,
    deco: DecoherenceConfig,
) -> np.ndarray:
    """Exact open evolution of a Hermitian (D+1) x (D+1) density matrix.

    Returns shape (T, D+1, D+1).  The site block steps from one output
    time to the next; the vacuum coherences and the vacuum population are
    then evaluated at all times at once.
    """
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    steps = np.diff(times, prepend=0.0)
    if np.any(steps < 0):
        raise ValueError("times must be non-decreasing")
    D = H.shape[0]
    dense = D <= DENSE_GENERATOR_MAX_SITES
    G = _site_block_generator(H, deco, dense)
    if dense:
        import scipy.linalg

        # The steps of a linspace grid differ in their last bits; steps within
        # a few ulps of the end time share one exponential.
        group, lengths = _merge_steps(steps, 4.0 * np.spacing(times[-1]))
        step_maps = {g: scipy.linalg.expm(G * lengths[g]) for g in set(group[steps > 0])}
    else:
        from scipy.sparse.linalg import expm_multiply
    sites = rho0[1:, 1:].reshape(D * D)
    out = np.empty((times.size, D + 1, D + 1), dtype=complex)
    for i, dt in enumerate(steps):
        if dt > 0.0 and dense:
            sites = step_maps[group[i]] @ sites
        elif dt > 0.0:
            sites = expm_multiply(G * dt, sites)
        out[i, 1:, 1:] = sites.reshape(D, D)
    w, V = eigendecompose(H)
    decay = np.exp(-(1j * w + deco.vacuum_coherence_rate) * times[:, None])
    cols = (decay * (V.T @ rho0[1:, 0])) @ V.T
    out[:, 1:, 0] = cols
    out[:, 0, 1:] = cols.conj()
    out[:, 0, 0] = np.einsum("ii->", rho0) - np.einsum("tii->t", out[:, 1:, 1:])
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
    rhos = _evolve_open(H, rho0, times, deco)
    traces = np.real(np.einsum("tii->t", rhos))
    if not np.all(np.abs(traces - 1.0) <= 1e-6):
        raise RuntimeError("open evolution drifted in trace beyond 1e-6")
    if not np.linalg.eigvalsh(rhos).min() >= -1e-6:
        raise RuntimeError("open evolution lost positivity beyond 1e-6")
    return Trajectory(times=times, rhos=rhos)


def default_time_grid(period: float, n_periods: float = 1.0) -> np.ndarray:
    """Uniform output grid with POINTS_PER_PERIOD points per period."""
    n = int(np.ceil(POINTS_PER_PERIOD * n_periods))
    return np.linspace(0.0, period * n_periods, n + 1)
