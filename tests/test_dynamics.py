"""Closed/open evolution against independent propagator oracles.

The open-system oracle builds the vectorized Liouvillian (row-major vec
convention: vec(A X B) = (A kron B^T) vec(X)) and exponentiates it with
scipy.linalg.expm.  It shares no code with the block-split propagator in
dynamics.
"""

import numpy as np
import pytest
import scipy.linalg

from domechain.dynamics import (
    DENSE_GENERATOR_MAX_SITES,
    ClosedPropagator,
    DecoherenceConfig,
    default_time_grid,
    eigendecompose,
    evolve_closed,
    evolve_lindblad,
    populations,
    site_state,
    vacuum_state,
)
from domechain.models import DomeParams, Grid2D, dome_hamiltonian, single_excitation_matrix


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


def test_lindblad_matches_superoperator_exponential():
    # Small instances in units of J, N <= 3, both channels on; N = 5 at the
    # physical working point (5 MHz, T1 = 30 us, Tphi = 5 us) for the mild
    # m = 2 and the stiff m = 102 chain; and a 3x7 grid (D = 21), which is
    # above DENSE_GENERATOR_MAX_SITES and takes the expm_multiply branch.
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
    assert grid.rows * grid.cols > DENSE_GENERATOR_MAX_SITES
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
            assert np.max(np.abs(traj.rhos[k] - ref)) < 1e-12


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
        assert abs(traj.rhos[k][1, 1].real - pop) < 1e-8
        assert abs(abs(traj.rhos[k][0, 1]) - coh) < 1e-8


def test_lindblad_vacuum_is_fixed_point():
    deco = DecoherenceConfig(t1=1.0, t_phi=1.0)
    H = dome_hamiltonian(DomeParams(N=3, m=2)).matrix()
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    traj = evolve_lindblad(H, rho0, np.array([0.0, 5.0]), deco)
    assert np.max(np.abs(traj.rhos[-1] - rho0)) < 1e-9


def test_lindblad_trace_and_positivity():
    deco = DecoherenceConfig(t1=0.7, t_phi=0.9)
    H = dome_hamiltonian(DomeParams(N=4, m=2)).matrix()
    rho0 = np.zeros((5, 5), dtype=complex)
    rho0[1, 1] = 1.0
    times = np.linspace(0.0, 3.0, 7)
    traj = evolve_lindblad(H, rho0, times, deco)
    for rho in traj.rhos:
        assert abs(np.trace(rho).real - 1.0) < 1e-6
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-6


def test_lindblad_relaxation_fills_vacuum_monotonically():
    deco = DecoherenceConfig(t1=0.5)
    H = dome_hamiltonian(DomeParams(N=3, m=0)).matrix()
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0
    traj = evolve_lindblad(H, rho0, np.linspace(0.0, 4.0, 12), deco)
    vac = traj.vacuum_population()
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
        assert np.max(np.abs(traj.states[k] - ref)) < 1e-10


def test_closed_evolution_preserves_norm_and_vacuum():
    ham = dome_hamiltonian(DomeParams(N=6, m=2))
    psi0 = (vacuum_state(6) + site_state(6, 1)) / np.sqrt(2)
    times = np.linspace(0.0, 2 * np.pi, 50)
    traj = evolve_closed(ham.matrix(), psi0, times)
    norms = np.linalg.norm(traj.states, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
    np.testing.assert_allclose(traj.states[:, 0], psi0[0], atol=1e-12)


def test_pst_identity_across_sizes():
    # |<N|U(T/2)|1>| = 1 for every PST-capable m.
    for N in range(2, 11):
        for m in (0, 2, 4, 6, 10):
            ham = dome_hamiltonian(DomeParams(N=N, m=m))
            prop = ClosedPropagator(ham.matrix(physical=True))
            psi = prop.apply(site_state(N, 1), ham.period / 2)
            assert abs(abs(psi[N]) - 1.0) < 1e-8


def test_mirror_transfer_from_interior_sites():
    N = 7
    ham = dome_hamiltonian(DomeParams(N=N, m=2))
    prop = ClosedPropagator(ham.matrix(physical=True))
    for n in range(1, N + 1):
        psi = prop.apply(site_state(N, n), ham.period / 2)
        assert abs(abs(psi[N + 1 - n]) - 1.0) < 1e-8


def test_full_period_revival():
    for m in (0, 1, 2, 3):
        ham = dome_hamiltonian(DomeParams(N=5, m=m))
        prop = ClosedPropagator(ham.matrix(physical=True))
        psi0 = site_state(5, 1)
        psi = prop.apply(psi0, ham.period)
        assert abs(abs(np.vdot(psi0, psi)) - 1.0) < 1e-9


def test_propagator_matches_evolve_closed():
    ham = dome_hamiltonian(DomeParams(N=4, m=1))
    H = ham.matrix()
    prop = ClosedPropagator(H)
    psi0 = site_state(4, 1)
    times = np.array([0.0, 0.9, 2.2])
    traj = evolve_closed(H, psi0, times)
    for k, t in enumerate(times):
        np.testing.assert_allclose(prop.apply(psi0, t), traj.states[k], atol=1e-12)


def test_eigendecompose_is_deterministic_and_sorted():
    H = dome_hamiltonian(DomeParams(N=6, m=3)).matrix()
    w1, V1 = eigendecompose(H)
    w2, V2 = eigendecompose(H.copy())
    assert np.all(np.diff(w1) > 0)
    np.testing.assert_array_equal(V1, V2)
    np.testing.assert_allclose(V1 @ np.diag(w1) @ V1.T, H, atol=1e-10)


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_populations_and_trajectory_accessors():
    ham = dome_hamiltonian(DomeParams(N=3, m=0))
    psi0 = site_state(3, 1)
    traj = evolve_closed(ham.matrix(), psi0, np.array([0.0, 1.0]))
    pops = populations(traj)
    assert pops.shape == (2, 3)
    np.testing.assert_allclose(pops.sum(axis=1) + traj.vacuum_population(), 1.0,
                               atol=1e-10)


def test_site_state_validation():
    with pytest.raises(ValueError):
        site_state(3, 0)
    with pytest.raises(ValueError):
        site_state(3, 4)


def test_default_time_grid_density():
    grid = default_time_grid(2 * np.pi, 1.0)
    assert grid.size == 402
    assert grid[0] == 0.0
    assert abs(grid[-1] - 2 * np.pi) < 1e-15


def test_evolve_closed_matches_per_time_propagator():
    # The one-shot product against ClosedPropagator.apply at each time, on
    # a chain, a grid and the stiff m = 102 chain in physical units.
    rate = 2 * np.pi * 5e6
    rng = np.random.default_rng(17)
    cases = [
        (dome_hamiltonian(DomeParams(N=9, m=2)).matrix(), 2 * np.pi),
        (single_excitation_matrix(Grid2D(3, 4, 2, 2)), 2 * np.pi),
        (dome_hamiltonian(DomeParams(N=5, m=102, J=rate)).matrix(physical=True),
         2 * np.pi / rate),
    ]
    for H, period in cases:
        c = rng.normal(size=H.shape[0] + 1) + 1j * rng.normal(size=H.shape[0] + 1)
        psi0 = c / np.linalg.norm(c)
        times = default_time_grid(period, 2.0)
        traj = evolve_closed(H, psi0, times)
        prop = ClosedPropagator(H)
        ref = np.array([prop.apply(psi0, t) for t in times])
        assert np.max(np.abs(traj.states - ref)) < 1e-13


def test_default_grid_shares_step_exponentials(monkeypatch):
    # The `domechain evolve` default grid has 5 true step lengths once T/4
    # and T/2 are marked; last-bit differences must not add exponentials.
    from domechain.cli import _evolve_times

    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: calls.append(A) or expm(A))
    ham = dome_hamiltonian(DomeParams(N=5, m=2, J=2 * np.pi * 5e6))
    H = ham.matrix(physical=True)
    times, marked = _evolve_times({}, ham.period)
    assert np.unique(np.diff(times)).size > 5
    deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    rho0 = np.outer(site_state(5, 1), site_state(5, 1))
    traj = evolve_lindblad(H, rho0, times, deco)
    assert len(calls) == 5
    for t in [*marked, times[-1]]:
        k = int(np.flatnonzero(times == t)[0])
        assert np.max(np.abs(traj.rhos[k] - expm_evolve(H, rho0, t, deco))) < 1e-12


def test_lindblad_positivity_failure_raises(monkeypatch):
    # A unit-trace output with a negative eigenvalue fails the stacked check.
    import domechain.dynamics as dynamics

    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    good = np.diag([1.0, 0.0, 0.0]).astype(complex)
    monkeypatch.setattr(
        dynamics, "_evolve_open_stack",
        lambda H, rhos0, times, deco: np.array([good, bad, good])[:, None],
    )
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(RuntimeError, match="positivity"):
        evolve_lindblad(H, good, np.array([0.0, 1.0, 2.0]), DecoherenceConfig(t1=1.0))
