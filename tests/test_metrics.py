"""Reductions, entanglement targets, and process tomography.

The reduction oracle embeds the (D+1)-dim vacuum-plus-excitation state
into the full 2^D qubit space (site 1 is the leftmost tensor factor) and
performs a dense partial trace by axis reordering.  It shares no code
with metrics.reduce_to_sites.
"""

import numpy as np
import pytest

from domechain.dynamics import (
    ClosedPropagator,
    DecoherenceConfig,
    evolve_closed,
    evolve_lindblad,
    site_state,
    vacuum_state,
)
from domechain.metrics import (
    ProcessMatrix,
    bell_fidelity,
    bell_state,
    chain_bell_target,
    corner_w_target,
    process_matrix,
    qpt_fiducials,
    quarter_period_phase,
    reduce_to_corners,
    reduce_to_pair,
    reduce_to_sites,
    simulate_qpt,
    state_fidelity,
    subset_fidelities,
    w_fidelity,
)
from domechain.models import (
    DomeParams,
    Grid2D,
    dome_hamiltonian,
    grid_2d,
    single_excitation_matrix,
)
from test_dynamics import expm_evolve

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def embed_full_hilbert(state: np.ndarray, n_sites: int) -> np.ndarray:
    """Map vacuum-plus-sites amplitudes onto the 2^N qubit space."""
    full = np.zeros(2**n_sites, dtype=complex)
    full[0] = state[0]
    for n in range(1, n_sites + 1):
        full[1 << (n_sites - n)] = state[n]
    return full


def brute_force_reduce(state: np.ndarray, n_sites: int, sites) -> np.ndarray:
    """Dense partial trace onto `sites` (first listed leftmost)."""
    full = embed_full_hilbert(state, n_sites)
    rho = np.outer(full, full.conj()).reshape((2,) * (2 * n_sites))
    keep = [s - 1 for s in sites]
    drop = [i for i in range(n_sites) if i not in keep]
    perm = keep + drop
    rho = np.transpose(rho, perm + [n_sites + p for p in perm])
    k = len(keep)
    rho = rho.reshape(2**k, 2 ** (n_sites - k), 2**k, 2 ** (n_sites - k))
    return np.einsum("ajbj->ab", rho)


def random_sector_state(rng: np.random.Generator, n_sites: int) -> np.ndarray:
    c = rng.normal(size=n_sites + 1) + 1j * rng.normal(size=n_sites + 1)
    return c / np.linalg.norm(c)


def test_reduce_matches_brute_force():
    rng = np.random.default_rng(3)
    subsets = {
        2: [(1,), (2,), (1, 2), (2, 1)],
        3: [(1, 3), (3, 1), (2,), (1, 2, 3)],
        4: [(1, 4), (2, 3), (4, 2, 1)],
        5: [(1, 5), (1, 2, 4, 5), (5, 3, 1), (2, 5)],
    }
    for n_sites, site_lists in subsets.items():
        for sites in site_lists:
            state = random_sector_state(rng, n_sites)
            got = reduce_to_sites(state, sites)
            ref = brute_force_reduce(state, n_sites, sites)
            assert np.max(np.abs(got - ref)) < 1e-10


def entrywise_reduce(rho: np.ndarray, sites) -> np.ndarray:
    """The partial trace written entry by entry over a density matrix."""
    k = len(sites)
    out = np.zeros((2**k, 2**k), dtype=complex)
    bit = [1 << (k - 1 - i) for i in range(k)]
    out[0, 0] = rho[0, 0] + sum(rho[n, n] for n in range(1, rho.shape[0]) if n not in sites)
    for i, si in enumerate(sites):
        out[0, bit[i]] = rho[0, si]
        out[bit[i], 0] = rho[si, 0]
        for j, sj in enumerate(sites):
            out[bit[i], bit[j]] = rho[si, sj]
    return out


def test_reduce_matches_entrywise_partial_trace():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n_sites = int(rng.integers(1, 12))
        k = int(rng.integers(1, min(n_sites, 4) + 1))
        sites = tuple(int(s) for s in rng.choice(np.arange(1, n_sites + 1), k, replace=False))
        psi = random_sector_state(rng, n_sites)
        a = rng.normal(size=(n_sites + 1,) * 2) + 1j * rng.normal(size=(n_sites + 1,) * 2)
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        for state, dense in ((psi, np.outer(psi, psi.conj())), (rho, rho)):
            assert np.max(np.abs(reduce_to_sites(state, sites) - entrywise_reduce(dense, sites))) < 1e-14


def test_reduce_accepts_density_matrices():
    rng = np.random.default_rng(4)
    a = random_sector_state(rng, 4)
    b = random_sector_state(rng, 4)
    rho = 0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj())
    got = reduce_to_sites(rho, (1, 4))
    ref = 0.3 * brute_force_reduce(a, 4, (1, 4)) + 0.7 * brute_force_reduce(b, 4, (1, 4))
    assert np.max(np.abs(got - ref)) < 1e-10


def test_reduced_states_are_physical():
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = random_sector_state(rng, 5)
        rho = reduce_to_sites(state, (2, 4, 5))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_reduce_validation():
    state = site_state(4, 1)
    with pytest.raises(ValueError):
        reduce_to_sites(state, (1, 1))
    with pytest.raises(ValueError):
        reduce_to_sites(state, (0,))
    with pytest.raises(ValueError):
        reduce_to_sites(state, (5,))
    with pytest.raises(ValueError):
        reduce_to_pair(state, 2, 2)


def test_quarter_period_phase_parity():
    assert quarter_period_phase(3) == 1j
    assert quarter_period_phase(5) == 1j
    assert quarter_period_phase(4) == -1j
    with pytest.raises(ValueError):
        quarter_period_phase(1)


def test_bell_targets_are_reached_by_the_dynamics():
    # The end-pair state at T/4 carries phase +i (odd N) or -i (even N)
    # on the transferred component; the targets must match exactly.
    for N in (3, 4, 5, 6):
        ham = dome_hamiltonian(DomeParams(N=N, m=2))
        prop = ClosedPropagator(ham.matrix(physical=True))
        psi = prop.apply(site_state(N, 1), ham.period / 4)
        rho = reduce_to_pair(psi, 1, N)
        assert abs(bell_fidelity(rho, chain_bell_target(N)) - 1.0) < 1e-9
        # The opposite parity phase is orthogonal, not merely off by phase.
        wrong = bell_state(-quarter_period_phase(N))
        assert bell_fidelity(rho, wrong) < 1e-9


def test_bell_state_structure():
    vec = bell_state(1j)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert vec[0] == 0 and vec[3] == 0
    assert abs(vec[2] - 1 / np.sqrt(2)) < 1e-12
    assert abs(vec[1] - 1j / np.sqrt(2)) < 1e-12


def test_corner_w_target_3x4_phases():
    vec = corner_w_target(3, 4)
    amps = [vec[8], vec[4], vec[2], vec[1]]
    np.testing.assert_allclose(amps, [0.5, -0.5j, 0.5j, 0.5], atol=1e-12)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_w_target_reached_on_grid():
    grid = grid_2d(3, 4, 2, 2)
    prop = ClosedPropagator(single_excitation_matrix(grid, physical=True))
    psi = prop.apply(site_state(12, 1), grid.period / 4)
    rho = reduce_to_corners(psi, grid)
    assert abs(w_fidelity(rho) - 1.0) < 1e-6
    assert abs(w_fidelity(rho, corner_w_target(3, 4)) - 1.0) < 1e-6


def test_fidelity_bounds_and_mixed_target():
    rng = np.random.default_rng(8)
    state = random_sector_state(rng, 4)
    rho = reduce_to_pair(state, 1, 4)
    f = bell_fidelity(rho, chain_bell_target(4))
    assert 0.0 <= f <= 1.0 + 1e-12
    # Mixed-target branch: Tr(rho sigma).
    assert abs(state_fidelity(rho, rho) - np.trace(rho @ rho).real) < 1e-12


def test_maximally_mixed_pair_fidelity():
    assert abs(bell_fidelity(np.eye(4) / 4.0) - 0.25) < 1e-12


def test_fidelity_shape_validation():
    with pytest.raises(ValueError):
        bell_fidelity(np.eye(3) / 3.0)
    with pytest.raises(ValueError):
        w_fidelity(np.eye(4) / 4.0)


def test_qpt_identity_channel():
    # t_end = 0 is the identity map: chi has a single unit entry at (I, I).
    ham = dome_hamiltonian(DomeParams(N=3, m=2))
    pm, fid = simulate_qpt(ham, t_end=0.0, target=1)
    ideal = np.zeros((4, 4))
    ideal[0, 0] = 1.0
    assert np.max(np.abs(pm.chi - ideal)) < 1e-8
    assert abs(fid - 1.0) < 1e-8
    assert pm.trace_error < 1e-8
    assert pm.hermiticity_error < 1e-8


def test_qpt_transfer_channel_parity():
    # Odd N transfers with phase 1 at T/2 (identity channel); the N=2
    # chain picks up a relative phase and drops to fidelity 1/2.
    pm5, fid5 = simulate_qpt(dome_hamiltonian(DomeParams(N=5, m=2)))
    assert abs(fid5 - 1.0) < 1e-6
    pm2, fid2 = simulate_qpt(dome_hamiltonian(DomeParams(N=2, m=0)))
    assert abs(fid2 - 0.5) < 1e-6
    assert abs(np.trace(pm2.chi).real - 1.0) < 1e-6


def test_qpt_open_system_matches_closed_at_long_coherence():
    ham = dome_hamiltonian(DomeParams(N=3, m=2, J=2 * np.pi * 5e6))
    deco = DecoherenceConfig(t1=1.0, t_phi=1.0)  # effectively noise free
    _, fid_open = simulate_qpt(ham, deco)
    _, fid_closed = simulate_qpt(ham)
    assert abs(fid_open - fid_closed) < 1e-6


def test_qpt_open_system_matches_dense_oracle():
    # The transfer channel keeps the vacuum, so its identity-process
    # fidelity is (1 + P + 2 Re c)/4 with P = rho_NN(T/2) from input |1>
    # and c = 2 rho_N0(T/2) from input |+>, both from the dense oracle.
    rate = 2 * np.pi * 5e6
    deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    for m in (2, 102):
        ham = dome_hamiltonian(DomeParams(N=5, m=m, J=rate))
        H = ham.matrix(physical=True)
        t = ham.period / 2
        one = site_state(5, 1)
        plus = (vacuum_state(5) + one) / np.sqrt(2)
        P = expm_evolve(H, np.outer(one, one.conj()), t, deco)[5, 5].real
        c = 2 * expm_evolve(H, np.outer(plus, plus.conj()), t, deco)[5, 0]
        _, fid = simulate_qpt(ham, deco)
        assert abs(fid - (1 + P + 2 * c.real) / 4) < 1e-12


def test_qpt_fidelity_against_explicit_ideal():
    ham = dome_hamiltonian(DomeParams(N=3, m=2))
    pm, _ = simulate_qpt(ham, t_end=0.0, target=1)
    ideal = np.zeros((4, 4), dtype=complex)
    ideal[0, 0] = 1.0
    assert abs(pm.fidelity(ideal) - pm.fidelity()) < 1e-12


def test_process_matrix_recovers_pauli_rotation():
    # Channel rho -> X rho X has chi concentrated at (X, X).
    outputs = []
    for a, b in qpt_fiducials():
        rho_in = np.outer((a, b), np.conj((a, b)))
        outputs.append(PAULI_X @ rho_in @ PAULI_X.conj().T)
    pm = process_matrix(outputs)
    ideal = np.zeros((4, 4))
    ideal[1, 1] = 1.0
    assert np.max(np.abs(pm.chi - ideal)) < 1e-10
    assert pm.residual < 1e-10


def test_process_matrix_validation():
    with pytest.raises(ValueError):
        process_matrix([np.eye(2)] * 3)
    with pytest.raises(ValueError):
        process_matrix([np.eye(3)] * 4)


def test_simulate_qpt_validation():
    ham = dome_hamiltonian(DomeParams(N=3, m=2))
    with pytest.raises(ValueError):
        simulate_qpt(ham, source=0)
    with pytest.raises(ValueError):
        simulate_qpt(ham, target=4)


def test_process_matrix_dataclass_fields():
    pm = ProcessMatrix(chi=np.eye(4) / 4.0, residual=0.0,
                       hermiticity_error=0.0, trace_error=0.0)
    assert abs(pm.fidelity() - 0.25) < 1e-12


def test_subset_fidelities_match_reduced_state_fidelity():
    # The stacked readout against reduce_to_sites + state_fidelity frame by
    # frame: closed and open frames, the chain Bell and grid W targets, a
    # target with a vacuum component and a mixed target.
    rng = np.random.default_rng(21)
    deco = DecoherenceConfig(t1=3.0, t_phi=2.0)
    chain = dome_hamiltonian(DomeParams(N=5, m=2)).matrix()
    grid = Grid2D(3, 4, 2, 2)
    corners = tuple(i + 1 for i in grid.corner_indices())
    grid_H = single_excitation_matrix(grid)
    vac = rng.normal(size=4) + 1j * rng.normal(size=4)
    cases = [
        (chain, (1, 5), chain_bell_target(5)),
        (chain, (5, 2), vac / np.linalg.norm(vac)),
        (chain, (3,), np.diag([0.3, 0.7]).astype(complex)),
        (grid_H, corners, corner_w_target(3, 4)),
    ]
    times = np.linspace(0.0, 2.0, 9)
    for H, sites, target in cases:
        c = rng.normal(size=H.shape[0] + 1) + 1j * rng.normal(size=H.shape[0] + 1)
        psi0 = c / np.linalg.norm(c)
        closed = evolve_closed(H, psi0, times).states
        opened = evolve_lindblad(H, np.outer(psi0, psi0.conj()), times, deco).rhos
        for frames in (closed, opened):
            got = subset_fidelities(frames, sites, target)
            ref = [state_fidelity(reduce_to_sites(f, sites), target) for f in frames]
            assert np.max(np.abs(got - ref)) < 1e-14


def test_subset_fidelities_validation():
    frames = np.eye(4, dtype=complex)[None]
    with pytest.raises(ValueError):
        subset_fidelities(frames, (1, 1), bell_state(1j))
    with pytest.raises(ValueError):
        subset_fidelities(frames, (1, 4), bell_state(1j))
    with pytest.raises(ValueError):
        subset_fidelities(frames, (1, 2, 3), bell_state(1j))
    with pytest.raises(ValueError):
        subset_fidelities(np.ones((2, 3, 4)), (1, 2), bell_state(1j))
