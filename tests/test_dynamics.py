"""Closed/open evolution against independent propagator oracles.

The open-system oracle builds the vectorized Liouvillian (row-major vec
convention: vec(A X B) = (A kron B^T) vec(X)) and exponentiates it with
scipy.linalg.expm.  It shares no code with the block-split propagator in
dynamics, which works in real, mirror-split coordinates with its own
Pade exponential.
"""

import contextlib

import numpy as np
import pytest
import scipy.linalg

from domechain.dynamics import (
    DecoherenceConfig,
    evolve_closed,
    evolve_lindblad,
    site_state,
)
from domechain.models import DomeParams, Grid2D, dome_hamiltonian, single_excitation_matrix


def vacuum_state(n_sites: int) -> np.ndarray:
    """The no-excitation state |0> on the (n_sites + 1)-dim space."""
    psi = np.zeros(n_sites + 1, dtype=complex)
    psi[0] = 1.0
    return psi


def lindblad_superoperator(H_site: np.ndarray, deco: DecoherenceConfig) -> np.ndarray:
    """Dense Liouvillian on the (D+1)-dim vacuum-plus-sites space."""
    D = H_site.shape[0]
    dim = D + 1
    H = np.zeros((dim, dim), dtype=complex)
    H[1:, 1:] = H_site
    eye = np.eye(dim)
    M = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    ops = []
    if deco.t1 is not None:
        for n in range(1, dim):
            L = np.zeros((dim, dim), dtype=complex)
            L[0, n] = 1.0
            ops.append((1.0 / deco.t1, L))
    if deco.t_phi is not None:
        for n in range(1, dim):
            z = -np.ones(dim)
            z[n] = 1.0
            ops.append((0.5 / deco.t_phi, np.diag(z).astype(complex)))
    for g, L in ops:
        LdL = L.conj().T @ L
        M += g * (
            np.kron(L, L.conj())
            - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T))
        )
    return M


def expm_evolve(H_site, rho0, t, deco):
    M = lindblad_superoperator(H_site, deco)
    return (scipy.linalg.expm(M * t) @ rho0.reshape(-1)).reshape(rho0.shape)


def exponentiated(calls) -> int:
    """Matrices exponentiated by recorded expm arguments (stacks count per slice)."""
    return sum(A.size // A.shape[-1] ** 2 for A in calls)


def test_lindblad_matches_superoperator_exponential(monkeypatch):
    # Small instances in units of J, N <= 3, both channels on; N = 5 at the
    # physical working point (5 MHz, T1 = 30 us, Tphi = 5 us) for the mild
    # m = 2 and the stiff m = 102 chain; and a 3x7 grid (D = 21), which
    # takes the expm_multiply branch once the dense threshold is held at 20.
    import domechain.dynamics as dynamics

    monkeypatch.setattr(dynamics, "DENSE_GENERATOR_MAX_SITES", 20)
    rng = np.random.default_rng(11)
    cases = []
    deco = DecoherenceConfig(t1=2.0, t_phi=3.0)
    for N in (1, 2, 3):
        if N == 1:
            H = np.array([[0.7]])
        else:
            H = dome_hamiltonian(DomeParams(N=N, m=2)).matrix()
        cases.append((H, deco, np.array([0.0, 0.4, 1.1, 2.0])))
    rate = 2 * np.pi * 5e6
    deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    for m in (2, 102):
        ham = dome_hamiltonian(DomeParams(N=5, m=m, J=rate))
        times = np.array([0.0, ham.period / 4, ham.period / 2])
        cases.append((ham.matrix(physical=True), deco, times))
    grid = Grid2D(3, 7, 2, 2, J=rate)
    assert grid.rows * grid.cols > dynamics.DENSE_GENERATOR_MAX_SITES
    times = np.array([0.0, grid.period / 4, grid.period / 2])
    cases.append((single_excitation_matrix(grid, physical=True), deco, times))
    for H, deco, times in cases:
        N = H.shape[0]
        c = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
        c /= np.linalg.norm(c)
        rho0 = np.outer(c, c.conj())
        traj = evolve_lindblad(H, rho0, times, deco)
        for k, t in enumerate(times):
            ref = expm_evolve(H, rho0, t, deco)
            assert np.max(np.abs(traj[k] - ref)) < 1e-12


def random_density(n_sites, rng):
    """A full-rank Hermitian unit-trace state on vacuum plus sites, with vacuum coherences."""
    shape = (n_sites + 1, n_sites + 1)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def shifted_chain(n_sites, m, rate):
    """A dome chain whose first site is detuned by J/10: no longer mirror-symmetric."""
    H = dome_hamiltonian(DomeParams(N=n_sites, m=m, J=rate)).matrix(physical=True)
    H[0, 0] += 0.1 * rate
    return H


def _oracle_systems():
    rate = 2 * np.pi * 5e6
    for N in range(2, 10):
        for m in (0, 2, 102):
            ham = dome_hamiltonian(DomeParams(N=N, m=m, J=rate))
            yield f"chain-{N}-{m}", ham.matrix(physical=True)
    for rows, cols in ((2, 2), (2, 3), (3, 4), (3, 7)):
        grid = Grid2D(rows, cols, 2, 2, J=rate)
        yield f"grid-{rows}x{cols}", single_excitation_matrix(grid, physical=True)
    yield "shifted-chain-7-2", shifted_chain(7, 2, rate)


@pytest.mark.parametrize("H", [pytest.param(H, id=name) for name, H in _oracle_systems()])
def test_real_propagator_matches_liouvillian(monkeypatch, H):
    # The real, mirror-split site-block propagator against the dense
    # (D+1)^2 Liouvillian at the working point (5 MHz, T1 = 30 us, Tphi =
    # 5 us), from a mixed state with vacuum coherences, at T/8, T/4 and T/2
    # of one call.  The 3x7 grid (21 sites) runs the dense branch and, with
    # the threshold held at 20, the expm_multiply branch.
    import domechain.dynamics as dynamics

    period = 1 / 5e6
    times = np.array([0.0, period / 8, period / 4, period / 2])
    deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    rho0 = random_density(H.shape[0], np.random.default_rng(H.shape[0]))
    refs = [expm_evolve(H, rho0, t, deco) for t in times]
    thresholds = [dynamics.DENSE_GENERATOR_MAX_SITES] + ([20] if H.shape[0] > 20 else [])
    for threshold in thresholds:
        monkeypatch.setattr(dynamics, "DENSE_GENERATOR_MAX_SITES", threshold)
        rhos = evolve_lindblad(H, rho0, times, deco)
        assert np.max(np.abs(rhos - refs)) <= 1e-12


@pytest.mark.parametrize("n_sites", [2, 5, 6, 9])
def test_mirror_symmetric_stacks_exponentiate_half_blocks(monkeypatch, n_sites):
    # A stack of dome chains (and a grid) equals its mirror image bit for
    # bit, so every exponentiated map is real with at most ceil(D^2/2)
    # coordinates, two per (chain, Tphi, step length).  One detuned chain in
    # the stack makes every map real and D^2 x D^2, one per (chain, Tphi,
    # step length).
    import domechain.dynamics as dynamics

    calls = []
    expm = dynamics._expm
    monkeypatch.setattr(dynamics, "_expm", lambda A: calls.append(A) or expm(A))
    rate = 2 * np.pi * 5e6
    chains = [dome_hamiltonian(DomeParams(N=n_sites, m=m, J=rate)).matrix(physical=True)
              for m in (0, 2, 102)]
    times = np.array([0.0, 1e-8, 2e-8, 5e-8])  # two step lengths
    decos = [DecoherenceConfig(t1=30e-6, t_phi=5e-6), DecoherenceConfig(t_phi=2e-6)]
    rho0 = random_density(n_sites, np.random.default_rng(0))
    detuned = np.array([*chains, shifted_chain(n_sites, 2, rate)])
    stacks = [(np.array(chains), True), (detuned, False)]
    if n_sites == 6:
        grid = single_excitation_matrix(Grid2D(2, 3, 2, 2, J=rate), physical=True)
        stacks.append((grid[None], True))
    for H, split in stacks:
        calls.clear()
        evolve_lindblad(H, rho0, times, decos)
        n = (n_sites**2 + 1) // 2 if split else n_sites**2
        assert {(A.dtype, A.shape[-1]) for A in calls} == {(np.dtype(float), n)}
        assert exponentiated(calls) == len(H) * len(decos) * 2 * (2 if split else 1)


def longdouble_site_block(H_site, deco, t, sites0):
    """exp(G t) vec(rho_S) in complex longdouble, by Taylor scaling and squaring.

    G is the site-block generator -i [H, .] - gamma1 - 4 gamma_phi on the
    coherences between sites, on row-major vecs.  A = G t is halved until
    ||A||_1 <= 1/4, its Taylor series summed until a term is below 1e-24,
    and the sum squared back.  In 80-bit arithmetic (eps 1.1e-19) its error
    is about eps ||G t||, far below the double-precision propagator's.
    """
    D = H_site.shape[0]
    n = D * D
    H = H_site.astype(np.longdouble)
    eye = np.eye(D, dtype=np.longdouble)
    gamma1, gamma_phi = 1 / np.longdouble(deco.t1), 1 / (2 * np.longdouble(deco.t_phi))
    A = -1j * (np.kron(H, eye) - np.kron(eye, H))
    A.reshape(-1)[:: n + 1] -= gamma1 + 4 * gamma_phi * (1 - eye).reshape(n)
    A *= np.longdouble(t)
    squarings = max(0, int(np.ceil(np.log2(float(np.abs(A).sum(axis=0).max()) * 4))))
    A /= np.longdouble(2) ** squarings
    E = term = np.eye(n, dtype=A.dtype)
    k = 0
    while np.max(np.abs(term)) >= 1e-24:
        k += 1
        term = term @ A / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E @ sites0.astype(A.dtype)


@pytest.mark.parametrize("N, bound", [(5, 5e-14), (9, 1.5e-13), (12, 2e-13), (15, 7e-13)])
def test_stiff_open_step_matches_extended_precision(N, bound):
    # One T/4 step of the stiff m = 102 chain at the physical working point
    # (5 MHz, T1 = 30 us, Tphi = 5 us; ||G t||_1 is about 1e4 at N = 12).
    # Measured: 1.4e-14, 5.9e-14, 9.7e-14 and 4.1e-13 from the
    # extended-precision oracle at N = 5, 9, 12 and 15; the scipy dense
    # Liouvillian sits 3.0e-14, 1.5e-13, 1.1e-13 and 1.1e-13 from it.  The
    # oracle takes about 3 s at N = 15.
    assert np.finfo(np.longdouble).eps < 1e-18
    ham = dome_hamiltonian(DomeParams(N=N, m=102, J=2 * np.pi * 5e6))
    deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    t = ham.period / 4
    rho0 = np.zeros((N + 1, N + 1), dtype=complex)
    rho0[1, 1] = 1.0
    block = evolve_lindblad(ham.matrix(physical=True), rho0, [0.0, t], deco)[1, 1:, 1:]
    ref = longdouble_site_block(ham.matrix(physical=True), deco, t, rho0[1:, 1:].reshape(-1))
    assert np.max(np.abs(block - ref.reshape(N, N))) <= bound


def test_lindblad_single_site_closed_forms():
    # One site: population decays at 1/T1, coherence at 1/(2T1) + 1/Tphi.
    t1, tphi = 1.5, 0.8
    deco = DecoherenceConfig(t1=t1, t_phi=tphi)
    H = np.array([[0.0]])
    psi = (vacuum_state(1) + site_state(1, 1)) / np.sqrt(2)
    rho0 = np.outer(psi, psi.conj())
    times = np.linspace(0.0, 2.0, 9)
    traj = evolve_lindblad(H, rho0, times, deco)
    for k, t in enumerate(times):
        pop = 0.5 * np.exp(-t / t1)
        coh = 0.5 * np.exp(-t * (0.5 / t1 + 1.0 / tphi))
        assert abs(traj[k][1, 1].real - pop) < 1e-8
        assert abs(abs(traj[k][0, 1]) - coh) < 1e-8


def test_lindblad_vacuum_is_fixed_point():
    deco = DecoherenceConfig(t1=1.0, t_phi=1.0)
    H = dome_hamiltonian(DomeParams(N=3, m=2)).matrix()
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    traj = evolve_lindblad(H, rho0, np.array([0.0, 5.0]), deco)
    assert np.max(np.abs(traj[-1] - rho0)) < 1e-9


def test_lindblad_trace_and_positivity():
    deco = DecoherenceConfig(t1=0.7, t_phi=0.9)
    H = dome_hamiltonian(DomeParams(N=4, m=2)).matrix()
    rho0 = np.zeros((5, 5), dtype=complex)
    rho0[1, 1] = 1.0
    times = np.linspace(0.0, 3.0, 7)
    traj = evolve_lindblad(H, rho0, times, deco)
    for rho in traj:
        assert abs(np.trace(rho).real - 1.0) < 1e-6
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-6


def test_lindblad_relaxation_fills_vacuum_monotonically():
    deco = DecoherenceConfig(t1=0.5)
    H = dome_hamiltonian(DomeParams(N=3, m=0)).matrix()
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0
    traj = evolve_lindblad(H, rho0, np.linspace(0.0, 4.0, 12), deco)
    vac = traj[:, 0, 0].real
    assert np.all(np.diff(vac) > -1e-9)
    assert vac[-1] > 0.99


def test_lindblad_input_validation():
    deco = DecoherenceConfig(t1=1.0)
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    bad = np.eye(3, dtype=complex)  # trace 3
    with pytest.raises(ValueError):
        evolve_lindblad(H, bad, np.array([0.0, 1.0]), deco)
    with pytest.raises(ValueError):
        evolve_lindblad(H, np.eye(3) / 3.0, np.array([0.5, 1.0]), deco)
    with pytest.raises(ValueError):
        evolve_lindblad(H, np.eye(3) / 3.0, np.array([0.0, 1.0, 0.5]), deco)
    with pytest.raises(ValueError):
        DecoherenceConfig(t1=-1.0)


def test_closed_evolution_matches_direct_exponential():
    ham = dome_hamiltonian(DomeParams(N=5, m=3))
    H = ham.matrix()
    psi0 = site_state(5, 2)
    times = np.array([0.0, 0.3, 1.7])
    traj = evolve_closed(H, psi0, times)
    for k, t in enumerate(times):
        U = scipy.linalg.expm(-1j * H * t)
        ref = psi0.copy()
        ref[1:] = U @ psi0[1:]
        assert np.max(np.abs(traj[k] - ref)) < 1e-10


def test_closed_evolution_preserves_norm_and_vacuum():
    ham = dome_hamiltonian(DomeParams(N=6, m=2))
    psi0 = (vacuum_state(6) + site_state(6, 1)) / np.sqrt(2)
    times = np.linspace(0.0, 2 * np.pi, 50)
    traj = evolve_closed(ham.matrix(), psi0, times)
    norms = np.linalg.norm(traj, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
    np.testing.assert_allclose(traj[:, 0], psi0[0], atol=1e-12)


def test_pst_identity_across_sizes():
    # |<N|U(T/2)|1>| = 1 for every PST-capable m.
    for N in range(2, 11):
        for m in (0, 2, 4, 6, 10):
            ham = dome_hamiltonian(DomeParams(N=N, m=m))
            psi = evolve_closed(ham.matrix(physical=True), site_state(N, 1), ham.period / 2)
            assert abs(abs(psi[0, N]) - 1.0) < 1e-8


def test_mirror_transfer_from_interior_sites():
    N = 7
    ham = dome_hamiltonian(DomeParams(N=N, m=2))
    H = ham.matrix(physical=True)
    for n in range(1, N + 1):
        psi = evolve_closed(H, site_state(N, n), ham.period / 2)[0]
        assert abs(abs(psi[N + 1 - n]) - 1.0) < 1e-8


def test_full_period_revival():
    for m in (0, 1, 2, 3):
        ham = dome_hamiltonian(DomeParams(N=5, m=m))
        psi0 = site_state(5, 1)
        psi = evolve_closed(ham.matrix(physical=True), psi0, ham.period)[0]
        assert abs(abs(np.vdot(psi0, psi)) - 1.0) < 1e-9


def test_evolve_closed_rejects_malformed_states():
    H = dome_hamiltonian(DomeParams(N=4, m=1)).matrix()
    with pytest.raises(ValueError, match="vacuum slot first"):
        evolve_closed(H, site_state(4, 1)[1:], [0.0, 1.0])
    with pytest.raises(ValueError, match="vacuum slot first"):
        evolve_closed(H, np.eye(5)[:, :1], [0.0, 1.0])
    with pytest.raises(ValueError, match="normalized"):
        evolve_closed(H, 2.0 * site_state(4, 1), [0.0, 1.0])


def test_evolve_closed_is_deterministic():
    H = dome_hamiltonian(DomeParams(N=6, m=3)).matrix()
    times = np.linspace(0.0, 2 * np.pi, 7)
    np.testing.assert_array_equal(evolve_closed(H, site_state(6, 2), times),
                                  evolve_closed(H.copy(), site_state(6, 2), times))


def test_closed_and_open_evolve_reject_asymmetric_blocks():
    # Symmetry is checked on the whole stack: one asymmetric block refuses it.
    H = dome_hamiltonian(DomeParams(N=4, m=1)).matrix()
    bad = H.copy()
    bad[0, 1] += 1e-6
    psi0 = site_state(4, 1)
    rho0 = np.outer(psi0, psi0.conj())
    for stack in (bad, np.array([H, bad, H])):
        with pytest.raises(ValueError, match="symmetric"):
            evolve_closed(stack, psi0, [0.0, 1.0])
        with pytest.raises(ValueError, match="symmetric"):
            evolve_lindblad(stack, rho0, [0.0, 1.0], DecoherenceConfig(t1=1.0))
    with pytest.raises(ValueError, match="symmetric"):
        evolve_closed(np.array([[0.0, 1.0], [2.0, 0.0]]), site_state(2, 1), [0.0])
    for shape in ((4,), (4, 5), (2, 4, 5), (1, 2, 4, 4)):
        with pytest.raises(ValueError, match="square"):
            evolve_closed(np.zeros(shape), psi0, [0.0])


@pytest.mark.parametrize("M", [1, 3])
def test_stacked_closed_evolve_equals_single_calls(M):
    # An (M, D, D) stack gives each block's single-call states bit for bit,
    # for chains (one of them detuned, so not mirror-symmetric) and grid
    # matrices, from a site state and from a random one with a vacuum part.
    rate = 2 * np.pi * 5e6
    rng = np.random.default_rng(M)
    chains = [dome_hamiltonian(DomeParams(N=6, m=m, J=rate)).matrix(physical=True)
              for m in (2, 102)] + [shifted_chain(6, 2, rate)]
    grids = [single_excitation_matrix(Grid2D(3, 4, 2, m_y, J=rate), physical=True)
             for m_y in (2, 1, 0)]
    times = np.linspace(0.0, 2 * np.pi / rate, 9)
    for stack in (np.array(chains[:M]), np.array(grids[:M])):
        D = stack.shape[-1]
        c = rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)
        for psi0 in (site_state(D, 1), c / np.linalg.norm(c)):
            states = evolve_closed(stack, psi0, times)
            assert states.shape == (M, times.size, D + 1)
            for h, got in zip(stack, states):
                np.testing.assert_array_equal(got, evolve_closed(h, psi0, times))


def test_site_state_validation():
    with pytest.raises(ValueError):
        site_state(3, 0)
    with pytest.raises(ValueError):
        site_state(3, 4)


@pytest.mark.parametrize("times", [[], [0.0, np.nan], [0.0, 1.0, np.inf]],
                         ids=["empty", "nan", "inf"])
def test_lindblad_refuses_empty_or_non_finite_times(times):
    # Refused as input errors before any propagation, not as an IndexError
    # or a trace drift after overflowing steps.
    with pytest.raises(ValueError, match="non-empty sequence of finite values"):
        evolve_lindblad(np.eye(2), np.diag([0.0, 1.0, 0.0]), times, DecoherenceConfig(t1=1.0))


def test_evolve_closed_matches_per_time_propagator():
    # The one-shot product against V exp(-iwt) V^T applied time by time, on
    # a chain, a grid and the stiff m = 102 chain, and in physical units on
    # the N = 128 chain and 10x10 grid of the large evolves.
    rate = 2 * np.pi * 5e6
    rng = np.random.default_rng(17)
    cases = [
        (dome_hamiltonian(DomeParams(N=9, m=2)).matrix(), 2 * np.pi),
        (single_excitation_matrix(Grid2D(3, 4, 2, 2)), 2 * np.pi),
        (dome_hamiltonian(DomeParams(N=5, m=102, J=rate)).matrix(physical=True),
         2 * np.pi / rate),
        (dome_hamiltonian(DomeParams(N=128, m=2, J=rate)).matrix(physical=True),
         2 * np.pi / rate),
        (single_excitation_matrix(Grid2D(10, 10, 2, 2, J=rate), physical=True),
         2 * np.pi / rate),
    ]
    for H, period in cases:
        c = rng.normal(size=H.shape[0] + 1) + 1j * rng.normal(size=H.shape[0] + 1)
        psi0 = c / np.linalg.norm(c)
        times = np.linspace(0.0, 2 * period, 803)
        traj = evolve_closed(H, psi0, times)
        w, V = np.linalg.eigh(H)
        ref = np.array([np.r_[psi0[0], V @ (np.exp(-1j * w * t) * (V.T @ psi0[1:]))]
                        for t in times])
        assert np.max(np.abs(traj - ref)) < 1e-13


def test_default_grid_shares_step_exponentials(monkeypatch):
    # The `domechain evolve` default grid has 5 true step lengths once T/4
    # and T/2 are marked; last-bit differences must not add exponentials.
    # One stacked expm call carries several maps, so matrices are counted:
    # 5 for each of the chain's two mirror blocks.
    import domechain.dynamics as dynamics
    from domechain.cli import _evolve_times

    calls = []
    expm = dynamics._expm
    monkeypatch.setattr(dynamics, "_expm", lambda A: calls.append(A) or expm(A))
    ham = dome_hamiltonian(DomeParams(N=5, m=2, J=2 * np.pi * 5e6))
    H = ham.matrix(physical=True)
    times, marked = _evolve_times(_resolved_evolve({}), ham.period)
    assert np.unique(np.diff(times)).size > 5
    deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    rho0 = np.outer(site_state(5, 1), site_state(5, 1))
    traj = evolve_lindblad(H, rho0, times, deco)
    assert exponentiated(calls) == 2 * 5
    for t in [*marked, times[-1]]:
        k = int(np.flatnonzero(times == t)[0])
        assert np.max(np.abs(traj[k] - expm_evolve(H, rho0, t, deco))) < 1e-12


def test_lindblad_positivity_failure_raises(monkeypatch):
    # A unit-trace output with a negative eigenvalue fails the stacked check.
    import domechain.dynamics as dynamics

    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    good = np.diag([1.0, 0.0, 0.0]).astype(complex)
    monkeypatch.setattr(
        dynamics, "_evolve_open",
        lambda H, rho0, times, decos: np.array([good, bad, good])[None, None],
    )
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(RuntimeError, match="positivity"):
        evolve_lindblad(H, good, np.array([0.0, 1.0, 2.0]), DecoherenceConfig(t1=1.0))


@pytest.mark.parametrize("low, fails", [(-0.9e-6, False), (-1.1e-6, True)])
def test_positivity_check_at_its_bound(monkeypatch, low, fails):
    # A rotated state with smallest eigenvalue just inside or just outside
    # -1e-6.  Inside, the Cholesky test passes and eigvalsh is not called;
    # outside, eigvalsh confirms the failure.
    import domechain.dynamics as dynamics

    U = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)) + 0j)[0]
    good = np.diag([1.0, 0.0, 0.0]).astype(complex)
    edge = U @ np.diag([0.6 - low, 0.4, low]) @ U.conj().T
    monkeypatch.setattr(
        dynamics, "_evolve_open",
        lambda H, rho0, times, decos: np.array([good, edge, good])[None, None],
    )
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    message = "^open evolution lost positivity beyond 1e-6$"
    with pytest.raises(RuntimeError, match=message) if fails else contextlib.nullcontext():
        evolve_lindblad(H, good, np.array([0.0, 1.0, 2.0]), DecoherenceConfig(t1=1.0))
    assert len(calls) == int(fails)


def test_healthy_default_grid_skips_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    ham = dome_hamiltonian(DomeParams(N=5, m=2, J=2 * np.pi * 5e6))
    times = _evolve_times_of({}, ham.period)
    rho0 = np.outer(site_state(5, 1), site_state(5, 1))
    evolve_lindblad(ham.matrix(physical=True), rho0, times, DecoherenceConfig(t1=30e-6, t_phi=5e-6))
    assert calls == []


def _resolved_evolve(cfg):
    """The resolved `evolve` config of a chain with the given grid keys."""
    from domechain.cli import resolve

    return resolve("evolve", {"N": 2, "m": 0, **cfg})


def _evolve_times_of(cfg, period):
    """The `domechain evolve` output grid for the given grid keys."""
    from domechain.cli import _evolve_times

    return _evolve_times(_resolved_evolve(cfg), period)[0]


def _repeated_times(period):
    # Zero-length steps at the start, mid-run and at the end.
    times = np.linspace(0.0, period / 2, 30)
    return np.sort(np.r_[0.0, times, times[10:14], times[-1]])


_GRIDS = {
    "points=2": lambda period: _evolve_times_of({"points": 2}, period),
    "points=3": lambda period: _evolve_times_of({"points": 3}, period),
    "points=11": lambda period: _evolve_times_of({"points": 11}, period),
    "default": lambda period: _evolve_times_of({}, period),
    "n_periods=4": lambda period: _evolve_times_of({"n_periods": 4}, period),
    "repeated": _repeated_times,
}


@pytest.mark.parametrize(
    "n_sites, m, grid",
    [pytest.param(5, m, g, id=f"5-{m}-{g}") for m in (2, 102) for g in _GRIDS]
    + [pytest.param(10, 2, g, id=f"10-2-{g}") for g in ("default", "n_periods=4")],
)
def test_runs_match_sequential_steps(monkeypatch, n_sites, m, grid):
    # Every run of one step map, filled by doubling (or, at N = 10 on the
    # default grid, one product per step), against one product per step of
    # the same maps.  The default grids place T/4 and T/2 mid-run.  The maps
    # act on the real coordinates of each mirror block; a random Hermitian
    # block is taken there and back by the coordinates' entry maps.
    import domechain.dynamics as dynamics

    maps = []
    expm = dynamics._expm
    monkeypatch.setattr(dynamics, "_expm", lambda A: maps.append(expm(A)) or maps[-1])
    ham = dome_hamiltonian(DomeParams(N=n_sites, m=m, J=2 * np.pi * 5e6))
    times = _GRIDS[grid](ham.period)
    steps = np.diff(times, prepend=0.0)
    rng = np.random.default_rng(7)
    c = rng.normal(size=(n_sites, n_sites)) + 1j * rng.normal(size=(n_sites, n_sites))
    sites0 = (c + c.conj().T).reshape(-1)
    sites0 /= np.linalg.norm(sites0)
    H = ham.matrix(physical=True)[None]
    block = dynamics._site_blocks(H, np.array([0.1e6]), sites0, steps, times[-1])[0, 0]
    lengths, _ = dynamics._step_runs(steps, times[-1])
    dephase, index, weight = dynamics._coordinates(n_sites, True)
    step_maps = maps[0].reshape(len(dephase), lengths.size, *maps[0].shape[1:])
    coords = np.zeros(dephase.size)
    np.add.at(coords, index, weight * sites0.view(float).reshape(-1, 2))
    ref = []
    for dt in steps:
        if dt > 0.0:
            g = np.argmin(np.abs(lengths - dt))
            blocks = coords.reshape(dephase.shape)
            coords = np.concatenate([A[g] @ r for A, r in zip(step_maps, blocks)])
        ref.append((coords[index] * weight).sum(axis=0) @ [1.0, 1j])
    assert np.max(np.abs(block - ref)) <= 1e-13


def merge_steps_by_unique(steps, tol):
    """Reference grouping: sort the distinct lengths, map back by inverse."""
    lengths, inverse = np.unique(steps, return_inverse=True)
    group = (np.cumsum(np.r_[True, np.diff(lengths) > tol]) - 1)[inverse]
    return group, np.bincount(group, weights=steps) / np.bincount(group)


def _merge_grids():
    rng = np.random.default_rng(11)
    for rate_MHz in (0.1, 1.0, 5.0, 17.0, 250.0):
        period = 1e-6 / rate_MHz
        for grid in _GRIDS.values():
            yield grid(period)
    for _ in range(100):
        end = 10.0 ** rng.uniform(-9, 1)
        yield np.linspace(0.0, end, int(rng.integers(2, 2000)))
        yield np.r_[0.0, np.sort(rng.uniform(0.0, end, int(rng.integers(1, 500))))]
    yield np.zeros(1)
    yield np.zeros(4)


def test_merge_steps_matches_unique_grouping():
    # The same groups and bitwise the same mean lengths as grouping by
    # np.unique, on default grids with T/4 and T/2 placed, linspaces and
    # random sorted times.
    import domechain.dynamics as dynamics

    for times in _merge_grids():
        steps = np.diff(times, prepend=0.0)
        tol = 4.0 * np.spacing(times[-1])
        group, lengths = dynamics._merge_steps(steps, tol)
        want_group, want_lengths = merge_steps_by_unique(steps, tol)
        np.testing.assert_array_equal(group, want_group)
        assert lengths.tobytes() == want_lengths.tobytes()


def test_stacked_lindblad_equals_single_calls(monkeypatch):
    # One call over a stack of site blocks (m = 2 twice) and a sequence of
    # configs, with each channel switched off and Tphi values repeated,
    # against one call per (H, config) and the dense Liouvillian; then the
    # same stack split into one generator per expm call.
    import domechain.dynamics as dynamics

    rng = np.random.default_rng(5)
    rate = 2 * np.pi * 5e6
    hams = [dome_hamiltonian(DomeParams(N=5, m=m, J=rate)) for m in (0, 2, 102, 2)]
    H = np.array([ham.matrix(physical=True) for ham in hams])
    decos = [
        DecoherenceConfig(t1=30e-6, t_phi=5e-6),
        DecoherenceConfig(t1=3e-6, t_phi=5e-6),
        DecoherenceConfig(t1=None, t_phi=0.5e-6),
        DecoherenceConfig(t1=10e-6, t_phi=None),
        DecoherenceConfig(),
        DecoherenceConfig(t1=300e-6, t_phi=0.5e-6),
    ]
    period = hams[0].period
    times = np.array([0.0, period / 8, period / 4, period / 4, period / 2])
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    rho0 = np.outer(c, c.conj()) / np.vdot(c, c).real
    rhos = evolve_lindblad(H, rho0, times, decos)
    assert rhos.shape == (4, 6, 5, 6, 6)
    for k in range(4):
        for p, deco in enumerate(decos):
            single = evolve_lindblad(H[k], rho0, times, deco)
            assert np.max(np.abs(rhos[k, p] - single)) <= 1e-13
            ref = expm_evolve(H[k], rho0, times[-1], deco)
            assert np.max(np.abs(rhos[k, p, -1] - ref)) <= 1e-12
    assert evolve_lindblad(H[1], rho0, times, decos).shape == (6, 5, 6, 6)
    assert evolve_lindblad(H, rho0, times, decos[0]).shape == (4, 5, 6, 6)
    monkeypatch.setattr(dynamics, "MAX_CHUNK_ENTRIES", 1)
    np.testing.assert_array_equal(evolve_lindblad(H, rho0, times, decos), rhos)


def test_sparse_branch_stack_equals_per_unit_calls_and_dense_branch(monkeypatch):
    # The expm_multiply branch through the shared work loop: an M = 2 stack
    # of N = 22 chains (m = 2 and the stiff m = 102) under two Tphi, on a
    # grid with a repeated time (a zero step) and a placed time that splits
    # one step into two odd lengths between runs of equal steps.  The dense
    # threshold is held at 20 so that N = 22 takes this branch, one unit
    # (chain, mirror block, Tphi) per filler.  The horizon is T/20: the
    # m = 102 chain's on-site energies reach 1.1e4 J, and expm_multiply's
    # work grows with them times the horizon.
    import domechain.dynamics as dynamics

    rate = 2 * np.pi * 5e6
    hams = [dome_hamiltonian(DomeParams(N=22, m=m, J=rate)) for m in (2, 102)]
    H = np.stack([ham.matrix(physical=True) for ham in hams])
    dt = hams[0].period / 120
    times = np.sort(np.r_[np.linspace(0.0, 6 * dt, 7), 2 * dt, 2.3 * dt])
    rho0 = random_density(22, np.random.default_rng(22))
    decos = [DecoherenceConfig(t1=30e-6, t_phi=5e-6), DecoherenceConfig(t1=10e-6, t_phi=0.5e-6)]
    monkeypatch.setattr(dynamics, "DENSE_GENERATOR_MAX_SITES", 20)
    units, sparse_runs = [], dynamics._sparse_runs
    monkeypatch.setattr(dynamics, "_sparse_runs", lambda *a: units.append(len(a[2])) or sparse_runs(*a))
    rhos = evolve_lindblad(H, rho0, times, decos)
    assert units == [1] * (2 * 2 * 2)
    for k in range(2):
        for p, deco in enumerate(decos):
            np.testing.assert_array_equal(rhos[k, p], evolve_lindblad(H[k], rho0, times, deco))
    # The dense branch draws nothing from numpy's global RNG, so it neither
    # saves nor restores its state.
    monkeypatch.setattr(dynamics, "DENSE_GENERATOR_MAX_SITES", 36)
    for name in ("get_state", "set_state"):
        monkeypatch.setattr(np.random, name, lambda *a: pytest.fail("dense branch touched the RNG"))
    assert np.max(np.abs(evolve_lindblad(H, rho0, times, decos) - rhos)) <= 1e-12


def test_sparse_branch_is_reproducible_and_leaves_global_rng_alone(monkeypatch):
    # expm_multiply's norm estimates draw from numpy's global RNG; reruns
    # must be bit-identical whatever that state is, and must not move it.
    # For this stiff chain and step, global seeds 0 and 1 gave results
    # 2.9e-14 apart before the estimates were seeded.  A run of three equal
    # steps takes one call over the run, the last step a call of its own.
    # The dense threshold is held at 20 so that N = 22 takes this branch.
    import domechain.dynamics as dynamics

    monkeypatch.setattr(dynamics, "DENSE_GENERATOR_MAX_SITES", 20)
    rate = 2 * np.pi * 5e6
    N = dynamics.DENSE_GENERATOR_MAX_SITES + 2
    ham = dome_hamiltonian(DomeParams(N=N, m=102, J=rate))
    H = ham.matrix(physical=True)
    times = np.r_[np.linspace(0.0, ham.period / 13, 4), ham.period / 13 + ham.period / 50]
    rho0 = np.outer(site_state(N, 1), site_state(N, 1))
    deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    runs = []
    for seed in (0, 1):
        np.random.seed(seed)
        before = np.random.get_state()
        runs.append(evolve_lindblad(H, rho0, times, deco))
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])
    np.testing.assert_array_equal(runs[0], runs[1])
    assert np.max(np.abs(runs[0][-1] - expm_evolve(H, rho0, times[-1], deco))) < 1e-12
