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

The vacuum coherences ride the closed eigendecomposition, one per site
block.  T1 enters the site block only as the scalar e^{-gamma1 t}: its
D^2 x D^2 generator is G_phi - gamma1, so the block is propagated under
G_phi once per distinct Tphi and scaled per T1.  `evolve_lindblad` takes a
stack of site blocks and a sequence of configs, so a whole decoherence
scan is one call.  Steps within a few ulps of the end time count as one
length, and consecutive steps of one length form a run.  Small systems
exponentiate G_phi densely, every (site block, Tphi, step length) in one
stacked expm call up to a memory budget, and fill each run by doubling:
with k states known, the next k are those times the k-th power of the step
map, squared once per round, where squaring is cheaper than stepping.
Large systems apply G_phi with scipy's expm_multiply on its sparse form,
one call per run.  Positivity of every output state is checked by one
stacked Cholesky factorization of rho + 1e-6 I; eigvalsh decides only
when that fails.
`evolve_closed` is the one closed propagator: one diagonalization and one
matrix product give every output time, and a single time is a one-point
grid.  The vacuum terms of open evolution are evaluated for the whole time
grid the same way.

scipy is imported by the open propagator only, on its first call, so
closed evolution runs on numpy alone.
"""

from __future__ import annotations

from collections.abc import Sequence
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

# Matrix entries per stacked LAPACK call: site matrices per `eigh` in the
# disorder sweeps, generator entries per dense `expm` of the open propagator.
MAX_CHUNK_ENTRIES = 1 << 20

# A run of L equal dense steps with an n x n map (n = D^2) is filled by
# doubling when its log2(L) squarings, n^3 multiply-adds each, cost at most
# this many multiply-adds per step; otherwise it takes one matrix-vector
# product per step.  Timed on one BLAS thread, runs of 99 and 397 steps:
# always doubling was 2-5x faster than stepping at D <= 5, about even at
# D = 8-10 and up to 2x slower from D = 12, where one squaring costs more
# than the products it saves.  This bound doubles up to D = 8 on 99 steps
# and up to D = 10 on 397.
DOUBLING_MACS_PER_STEP = 1 << 15


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
        """(..., T, D) array of per-site populations."""
        if self.states is not None:
            return np.abs(self.states[:, 1:]) ** 2
        return np.real(np.einsum("...ii->...i", self.rhos))[..., 1:]


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


def _merge_steps(steps: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group index of each step and the mean length of each group.

    Sorted step lengths that differ from their neighbour by at most tol
    share a group.  Taking the mean keeps the summed time of a group's
    steps equal to the sum of their exact lengths.
    """
    order = np.argsort(steps, kind="stable")
    ranked = steps[order]
    group = np.empty(steps.size, dtype=np.intp)
    group[order[0]] = 0
    group[order[1:]] = np.cumsum(ranked[1:] - ranked[:-1] > tol)
    return group, np.bincount(group, weights=steps) / np.bincount(group)


def _step_runs(steps: np.ndarray, t_end: float) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Step lengths to propagate by, and the runs of steps that share one.

    Each run is (start, stop, slot): steps start..stop-1 all advance by
    lengths[slot], or stay put when slot is -1.  The steps of a linspace
    grid differ in their last bits; steps within a few ulps of the end time
    share one length (see _merge_steps).
    """
    group, lengths = _merge_steps(steps, 4.0 * np.spacing(t_end))
    # Group 0 holds the zero steps (steps[0] is one); it needs no length
    # unless steps within the tolerance of 0 joined it.
    skip = int(lengths[0] == 0.0)
    slot = np.where(steps > 0.0, group - skip, -1)
    bounds = (np.flatnonzero(slot[1:] != slot[:-1]) + 1).tolist()
    starts = [0, *bounds]
    return lengths[skip:], list(zip(starts, [*bounds, steps.size], slot[starts].tolist()))


def _fill_run(block: np.ndarray, A: np.ndarray, prev: np.ndarray) -> None:
    """block[i] = A^(i+1) prev for every row.

    With A^k known and the first i >= k rows filled, the next k rows are
    block[i-k : i] @ (A^k)^T.  When doubling pays (see
    DOUBLING_MACS_PER_STEP), A^k is squared after every such product, so a
    run of L rows takes about 2 log2(L) products; otherwise k stays 1.
    """
    np.matmul(A, prev, out=block[0])
    L, n = len(block), A.shape[0]
    double = n**3 * L.bit_length() <= DOUBLING_MACS_PER_STEP * L
    i, k, power = 1, 1, A
    while i < L:
        m = min(k, L - i)
        np.matmul(block[i - k : i - k + m], power.T, out=block[i : i + m])
        i += m
        if double and i < L:
            power = power @ power
            k *= 2


def _site_blocks(
    H: np.ndarray,
    gamma_phi: np.ndarray,
    sites0: np.ndarray,
    steps: np.ndarray,
    t_end: float,
) -> np.ndarray:
    """(M, F, T, D^2) row-major vecs of the site block without relaxation.

    Pair (m, f) steps sites0 with the generator -i (H_m kron 1 - 1 kron H_m)
    (H is real symmetric) minus 4 gamma_phi[f] on the coherences between
    sites.  Consecutive steps of one length form a run.  Dense step maps
    come from stacked expm calls of at most MAX_CHUNK_ENTRIES generator
    entries each, and _fill_run fills each run from its map; above
    DENSE_GENERATOR_MAX_SITES every pair takes one expm_multiply call per
    run on the sparse form.
    """
    M, D = H.shape[:2]
    n = D * D
    eye = np.eye(D)
    dephase = 4.0 * (1.0 - eye).reshape(n)
    out = np.empty((M, gamma_phi.size, steps.size, n), dtype=complex)
    lengths, runs = _step_runs(steps, t_end)
    if D <= DENSE_GENERATOR_MAX_SITES:
        import scipy.linalg

        pairs = [(k, f) for k in range(M) for f in range(gamma_phi.size)]
        per_call = max(1, MAX_CHUNK_ENTRIES // (max(1, lengths.size) * n * n))
        for start in range(0, len(pairs), per_call):
            chunk = pairs[start : start + per_call]
            ks, fs = np.array(chunk).T
            kron = np.einsum("kij,ab->kiajb", H[ks], eye) - np.einsum("ij,kab->kiajb", eye, H[ks])
            G = -1j * kron.reshape(len(chunk), n, n)
            G.reshape(len(chunk), -1)[:, :: n + 1] -= gamma_phi[fs, None] * dephase
            maps = scipy.linalg.expm(G[:, None] * lengths[:, None, None])
            for (k, f), step_maps in zip(chunk, maps):
                prev, block = sites0, out[k, f]
                for i, stop, g in runs:
                    if g < 0:
                        block[i:stop] = prev
                    else:
                        _fill_run(block[i:stop], step_maps[g], prev)
                    prev = block[stop - 1]
        return out
    import scipy.sparse
    from scipy.sparse.linalg import expm_multiply

    # expm_multiply takes its degree and step count from onenormest, which
    # draws from numpy's global RNG.  Seeding it before every call makes each
    # run a function of its inputs; the caller's state is restored.
    ident = scipy.sparse.identity(D, format="csr")
    state = np.random.get_state()
    try:
        for k, h in enumerate(H):
            Hs = scipy.sparse.csr_matrix(h)
            commutator = scipy.sparse.kron(Hs, ident) - scipy.sparse.kron(ident, Hs)
            for f, rate in enumerate(gamma_phi):
                Gf = (-1j * commutator - scipy.sparse.diags(rate * dephase)).tocsr()
                prev, block = sites0, out[k, f]
                for i, stop, g in runs:
                    if g < 0:
                        block[i:stop] = prev
                    else:
                        np.random.seed(0)
                        L, dt = stop - i, lengths[g]
                        block[i:stop] = (
                            expm_multiply(Gf * dt, prev) if L == 1 else
                            expm_multiply(Gf, prev, start=dt, stop=L * dt, num=L, endpoint=True)
                        )
                    prev = block[stop - 1]
    finally:
        np.random.set_state(state)
    return out


def _evolve_open(
    H: np.ndarray,
    rho0: np.ndarray,
    times: np.ndarray,
    decos: tuple[DecoherenceConfig, ...],
) -> np.ndarray:
    """Exact open evolution of a Hermitian (D+1) x (D+1) density matrix.

    H is an (M, D, D) stack of site blocks.  Returns shape
    (M, P, T, D+1, D+1), one trajectory per site block and config.  The
    site block is propagated once per (H, distinct gamma_phi) and scaled by
    e^{-gamma1 t} per config; the vacuum coherences and the vacuum
    population are then evaluated at all times at once.
    """
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    steps = np.diff(times, prepend=0.0)
    if np.any(steps < 0):
        raise ValueError("times must be non-decreasing")
    M, D = H.shape[:2]
    dephasing: dict[float, int] = {}  # distinct gamma_phi -> its block index
    phi_of = [dephasing.setdefault(d.gamma_phi, len(dephasing)) for d in decos]
    sites0 = rho0[1:, 1:].reshape(D * D)
    blocks = _site_blocks(H, np.array(list(dephasing)), sites0, steps, times[-1])
    blocks = blocks.reshape(M, len(dephasing), times.size, D, D)
    out = np.empty((M, len(decos), times.size, D + 1, D + 1), dtype=complex)
    rates = np.array([(d.gamma1, d.vacuum_coherence_rate) for d in decos]).T
    relax, decay = np.exp(-rates[..., None] * times)
    for p, f in enumerate(phi_of):
        np.multiply(relax[p, :, None, None], blocks[:, f], out=out[:, p, :, 1:, 1:])
    for k, h in enumerate(H):
        w, V = eigendecompose(h)
        cols = (np.exp(-1j * np.outer(times, w)) * (V.T @ rho0[1:, 0])) @ V.T
        np.multiply(decay[..., None], cols, out=out[k, :, :, 1:, 0])
    np.conjugate(out[..., 1:, 0], out=out[..., 0, 1:])
    out[..., 0, 0] = np.einsum("ii->", rho0) - np.einsum("...ii->...", out[..., 1:, 1:])
    return out


def evolve_lindblad(
    H: np.ndarray,
    rho0: np.ndarray,
    times: np.ndarray,
    deco: DecoherenceConfig | Sequence[DecoherenceConfig],
) -> Trajectory:
    """Open evolution of rho0 under H with uniform T1 and Tphi channels.

    rho0 is (D+1) x (D+1) on the vacuum-plus-sites basis; times start at 0
    and do not decrease.  H is one D x D site block or an (M, D, D) stack,
    and deco one DecoherenceConfig or a sequence of P of them: `rhos` has
    shape (T, D+1, D+1), led by an M axis for a stack and then a P axis
    for a sequence, so (M, P, T, D+1, D+1) when both are given.  Trace and
    positivity of every state are validated to 1e-6.
    """
    H = np.asarray(H, dtype=float)
    stack = np.array([_check_symmetric(h) for h in (H if H.ndim == 3 else [H])])
    decos = (deco,) if isinstance(deco, DecoherenceConfig) else tuple(deco)
    if not (stack.size and decos):
        raise ValueError("need at least one site block and one DecoherenceConfig")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rho0 = np.asarray(rho0, dtype=complex)
    dim = stack.shape[1] + 1
    if rho0.shape != (dim, dim):
        raise ValueError("rho0 must be (D+1) x (D+1)")
    if abs(np.trace(rho0).real - 1.0) > 1e-9 or np.max(np.abs(rho0 - rho0.conj().T)) > 1e-9:
        raise ValueError("rho0 must be Hermitian with unit trace")
    rhos = _evolve_open(stack, rho0, times, decos)
    traces = np.real(np.einsum("...ii->...", rhos))
    if not np.all(np.abs(traces - 1.0) <= 1e-6):
        raise RuntimeError("open evolution drifted in trace beyond 1e-6")
    # Cholesky of rho + 1e-6 I succeeds only when no eigenvalue of rho is
    # below -1e-6 (up to rounding); when it fails, eigvalsh decides.
    try:
        np.linalg.cholesky(rhos + 1e-6 * np.eye(dim))
    except np.linalg.LinAlgError:
        if not np.linalg.eigvalsh(rhos).min() >= -1e-6:
            raise RuntimeError("open evolution lost positivity beyond 1e-6") from None
    if H.ndim == 2:
        rhos = rhos[0]
    if isinstance(deco, DecoherenceConfig):
        rhos = rhos[..., 0, :, :, :]
    return Trajectory(times=times, rhos=rhos)


def default_time_grid(period: float, n_periods: float = 1.0) -> np.ndarray:
    """Uniform output grid with POINTS_PER_PERIOD points per period."""
    n = int(np.ceil(POINTS_PER_PERIOD * n_periods))
    return np.linspace(0.0, period * n_periods, n + 1)
