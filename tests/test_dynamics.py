"""Closed/open evolution against independent propagator oracles.

The open-system oracle builds the vectorized Liouvillian (row-major vec
convention: vec(A X B) = (A kron B^T) vec(X)) and exponentiates it with
scipy.linalg.expm.  It shares no code with the block-split propagator in
dynamics.
"""

import contextlib

import numpy as np
import pytest
import scipy.linalg

from domechain.dynamics import (
    DENSE_GENERATOR_MAX_SITES,
    DecoherenceConfig,
    default_time_grid,
    eigendecompose,
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
    """Matrices exponentiated by recorded scipy.linalg.expm arguments (stacks count per slice)."""
    return sum(A.size // A.shape[-1] ** 2 for A in calls)


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
    vac = traj.rhos[:, 0, 0].real
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
            psi = evolve_closed(ham.matrix(physical=True), site_state(N, 1), ham.period / 2)
            assert abs(abs(psi.states[0, N]) - 1.0) < 1e-8


def test_mirror_transfer_from_interior_sites():
    N = 7
    ham = dome_hamiltonian(DomeParams(N=N, m=2))
    H = ham.matrix(physical=True)
    for n in range(1, N + 1):
        psi = evolve_closed(H, site_state(N, n), ham.period / 2).states[0]
        assert abs(abs(psi[N + 1 - n]) - 1.0) < 1e-8


def test_full_period_revival():
    for m in (0, 1, 2, 3):
        ham = dome_hamiltonian(DomeParams(N=5, m=m))
        psi0 = site_state(5, 1)
        psi = evolve_closed(ham.matrix(physical=True), psi0, ham.period).states[0]
        assert abs(abs(np.vdot(psi0, psi)) - 1.0) < 1e-9


def test_evolve_closed_rejects_malformed_states():
    H = dome_hamiltonian(DomeParams(N=4, m=1)).matrix()
    with pytest.raises(ValueError, match="vacuum slot first"):
        evolve_closed(H, site_state(4, 1)[1:], [0.0, 1.0])
    with pytest.raises(ValueError, match="vacuum slot first"):
        evolve_closed(H, np.eye(5)[:, :1], [0.0, 1.0])
    with pytest.raises(ValueError, match="normalized"):
        evolve_closed(H, 2.0 * site_state(4, 1), [0.0, 1.0])


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
    pops = traj.site_populations()
    assert pops.shape == (2, 3)
    np.testing.assert_allclose(pops.sum(axis=1) + np.abs(traj.states[:, 0]) ** 2, 1.0,
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
    # The one-shot product against V exp(-iwt) V^T applied time by time, on
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
        w, V = np.linalg.eigh(H)
        ref = np.array([np.r_[psi0[0], V @ (np.exp(-1j * w * t) * (V.T @ psi0[1:]))]
                        for t in times])
        assert np.max(np.abs(traj.states - ref)) < 1e-13


def test_default_grid_shares_step_exponentials(monkeypatch):
    # The `domechain evolve` default grid has 5 true step lengths once T/4
    # and T/2 are marked; last-bit differences must not add exponentials.
    # One stacked expm call carries several maps, so matrices are counted.
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
    assert exponentiated(calls) == 5
    for t in [*marked, times[-1]]:
        k = int(np.flatnonzero(times == t)[0])
        assert np.max(np.abs(traj.rhos[k] - expm_evolve(H, rho0, t, deco))) < 1e-12


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


def _evolve_times_of(cfg, period):
    from domechain.cli import _evolve_times

    return _evolve_times(cfg, period)[0]


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
    # the same maps.  The default grids place T/4 and T/2 mid-run.
    import domechain.dynamics as dynamics

    maps = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: maps.append(expm(A)) or maps[-1])
    ham = dome_hamiltonian(DomeParams(N=n_sites, m=m, J=2 * np.pi * 5e6))
    times = _GRIDS[grid](ham.period)
    steps = np.diff(times, prepend=0.0)
    rng = np.random.default_rng(7)
    sites0 = rng.normal(size=n_sites**2) + 1j * rng.normal(size=n_sites**2)
    sites0 /= np.linalg.norm(sites0)
    H = ham.matrix(physical=True)[None]
    block = dynamics._site_blocks(H, np.array([0.1e6]), sites0, steps, times[-1])[0, 0]
    lengths, _ = dynamics._step_runs(steps, times[-1])
    (step_maps,) = maps[0]
    sites, ref = sites0, []
    for dt in steps:
        if dt > 0.0:
            sites = step_maps[np.argmin(np.abs(lengths - dt))] @ sites
        ref.append(sites)
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
    traj = evolve_lindblad(H, rho0, times, decos)
    rhos = traj.rhos
    assert rhos.shape == (4, 6, 5, 6, 6)
    assert traj.site_populations().shape == (4, 6, 5, 5)
    for k in range(4):
        for p, deco in enumerate(decos):
            single = evolve_lindblad(H[k], rho0, times, deco).rhos
            assert np.max(np.abs(rhos[k, p] - single)) <= 1e-13
            ref = expm_evolve(H[k], rho0, times[-1], deco)
            assert np.max(np.abs(rhos[k, p, -1] - ref)) <= 1e-12
    assert evolve_lindblad(H[1], rho0, times, decos).rhos.shape == (6, 5, 6, 6)
    assert evolve_lindblad(H, rho0, times, decos[0]).rhos.shape == (4, 5, 6, 6)
    monkeypatch.setattr(dynamics, "MAX_CHUNK_ENTRIES", 1)
    np.testing.assert_array_equal(evolve_lindblad(H, rho0, times, decos).rhos, rhos)


def test_sparse_branch_is_reproducible_and_leaves_global_rng_alone():
    # expm_multiply's norm estimates draw from numpy's global RNG; reruns
    # must be bit-identical whatever that state is, and must not move it.
    # For this stiff chain and step, global seeds 0 and 1 gave results
    # 2.9e-14 apart before the estimates were seeded.  A run of three equal
    # steps takes one call over the run, the last step a call of its own.
    rate = 2 * np.pi * 5e6
    N = DENSE_GENERATOR_MAX_SITES + 2
    ham = dome_hamiltonian(DomeParams(N=N, m=102, J=rate))
    H = ham.matrix(physical=True)
    times = np.r_[np.linspace(0.0, ham.period / 13, 4), ham.period / 13 + ham.period / 50]
    rho0 = np.outer(site_state(N, 1), site_state(N, 1))
    deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    runs = []
    for seed in (0, 1):
        np.random.seed(seed)
        before = np.random.get_state()
        runs.append(evolve_lindblad(H, rho0, times, deco).rhos)
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])
    np.testing.assert_array_equal(runs[0], runs[1])
    assert np.max(np.abs(runs[0][-1] - expm_evolve(H, rho0, times[-1], deco))) < 1e-12
