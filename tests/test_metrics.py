"""Readout scoring, entanglement targets, and the transfer-channel fidelity.

The readout scorer `metrics._readout_fidelity` is checked against the two
partial-trace oracles of `dense_oracles`: the 2^N embedding
`brute_force_reduce` for kets and `entrywise_reduce` for density
matrices, each scored by the plain overlap `target_overlap`.  The two
oracles are checked against each other.

The transfer-fidelity oracle is the emulated single-qubit process
tomography `dense_oracles.simulate_qpt`.  It shares no code with the
closed form `metrics.transfer_fidelity` or the propagators feeding it.
"""

import numpy as np
import pytest

from domechain.chain import TridiagonalHamiltonian
from domechain.dynamics import (
    DecoherenceConfig,
    evolve_closed,
    evolve_lindblad,
    site_state,
)
from domechain.metrics import (
    _quarter_period_ket,
    _readout_fidelity,
    transfer_fidelity,
)
from domechain.models import (
    DomeParams,
    Grid2D,
    dome_hamiltonian,
    single_excitation_matrix,
)
from dense_oracles import (
    PAULI_X,
    ProcessMatrix,
    brute_force_reduce,
    corner_indices,
    entrywise_reduce,
    expm_evolve,
    process_matrix,
    qpt_fiducials,
    quarter_period_ket,
    random_density,
    random_excited_state,
    random_sector_state,
    random_sector_target,
    readout_target,
    simulate_qpt,
    target_overlap,
    vacuum_state,
)


def test_reduce_matches_brute_force():
    # The two partial-trace oracles agree on kets and on two-ket mixtures,
    # reduced entry by entry and through the 2^N embedding.
    rng = np.random.default_rng(3)
    subsets = {
        2: [(1,), (2,), (1, 2), (2, 1)],
        3: [(1, 3), (3, 1), (2,), (1, 2, 3)],
        4: [(1, 4), (2, 3), (4, 2, 1)],
        5: [(1, 5), (1, 2, 4, 5), (5, 3, 1), (2, 5)],
    }
    for n_sites, site_lists in subsets.items():
        for sites in site_lists:
            kets = np.array([random_sector_state(rng, n_sites) for _ in range(n_sites + 1)])
            dense = np.einsum("ti,tj->tij", kets, kets.conj())
            mixes = 0.3 * dense + 0.7 * np.roll(dense, 1, axis=0)
            ref = np.array([brute_force_reduce(k, n_sites, sites) for k in kets])
            got = np.array([entrywise_reduce(rho, sites) for rho in dense])
            assert np.max(np.abs(got - ref)) < 1e-10
            got = np.array([entrywise_reduce(rho, sites) for rho in mixes])
            assert np.max(np.abs(got - (0.3 * ref + 0.7 * np.roll(ref, 1, axis=0)))) < 1e-10


def test_reduce_matches_entrywise_partial_trace():
    # The scorer reads the reduction off the readout sites alone.  On random
    # sizes, subsets, frame counts and targets with a vacuum weight, kets
    # scored by their readout amplitudes and density matrices by their
    # readout blocks match <t|.|t> of the entrywise partial trace.  No state
    # has a vacuum coherence, as none reached from one excitation does.
    rng = np.random.default_rng(11)
    for _ in range(100):
        n_sites = int(rng.integers(1, 12))
        k = int(rng.integers(1, min(n_sites, 4) + 1))
        sites = tuple(int(s) for s in rng.choice(np.arange(1, n_sites + 1), k, replace=False))
        T = int(rng.choice([1, 3, n_sites + 1]))
        kets = np.array([random_excited_state(rng, n_sites) for _ in range(T)])
        rhos = np.array([random_density(rng, n_sites) for _ in range(T)])
        rhos[:, 0, 1:] = rhos[:, 1:, 0] = 0.0
        target = random_sector_target(rng, k)
        ket, weight = readout_target(target)
        idx = np.array(sites)
        cases = ((kets[:, idx], np.einsum("ti,tj->tij", kets, kets.conj()), False),
                 (rhos[:, idx[:, None], idx], rhos, True))
        for readout, dense, block in cases:
            got = _readout_fidelity(readout, ket, weight, block=block)
            ref = [target_overlap(entrywise_reduce(rho, sites), target) for rho in dense]
            assert np.max(np.abs(got - ref)) < 1e-14


def test_reduce_accepts_density_matrices():
    # The readout block of a two-ket mixture scores the mixture of the two
    # kets' brute-force overlaps.
    rng = np.random.default_rng(4)
    a = random_excited_state(rng, 4)
    b = random_excited_state(rng, 4)
    rho = 0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj())
    target = random_sector_target(rng, 2)
    idx = np.array([1, 4])
    got = _readout_fidelity(rho[idx[:, None], idx], *readout_target(target), block=True)
    ref = (0.3 * target_overlap(brute_force_reduce(a, 4, (1, 4)), target)
           + 0.7 * target_overlap(brute_force_reduce(b, 4, (1, 4)), target))
    assert abs(got - ref) < 1e-10


def test_reduced_states_are_physical():
    # The reduction the scorer reads is a state: scored against the vacuum
    # and each single-excitation bitstring it sums to 1, and against any
    # unit target it lies in [0, 1]; for kets and for mixed readout blocks.
    rng = np.random.default_rng(5)
    idx = np.array([2, 4, 5])
    kets = np.array([random_excited_state(rng, 5) for _ in range(20)])
    dense = np.einsum("ti,tj->tij", kets, kets.conj())
    mixes = 0.4 * dense + 0.6 * np.roll(dense, 1, axis=0)
    for readout, block in ((kets[:, idx], False), (mixes[:, idx[:, None], idx], True)):
        total = _readout_fidelity(readout, np.zeros(3), 1.0, block=block)
        total += sum(_readout_fidelity(readout, e, 0.0, block=block) for e in np.eye(3))
        assert np.max(np.abs(total - 1.0)) < 1e-12
        for _ in range(20):
            f = _readout_fidelity(readout, *readout_target(random_sector_target(rng, 3)),
                                  block=block)
            assert -1e-12 <= f.min() and f.max() <= 1.0 + 1e-12


def test_quarter_period_phase_parity():
    # The far end's phase relative to the source: +i for odd, -i for even lengths.
    for length, phase in ((3, 1j), (5, 1j), (4, -1j)):
        amps = _quarter_period_ket(length)
        assert amps[1] == phase * amps[0]
    for lengths in ((1,), (1, 4), (4, 1)):
        with pytest.raises(ValueError):
            _quarter_period_ket(*lengths)


def test_quarter_period_amplitudes_match_the_oracle_kets():
    # The readout amplitudes production scores against are the oracle ket's
    # single-excitation entries, and the oracle ket has no vacuum weight.
    for lengths in [(L,) for L in range(2, 10)] + [(R, C) for R in range(2, 6) for C in range(2, 6)]:
        ket = quarter_period_ket(*lengths)
        amps, weight = readout_target(ket)
        assert weight == 0.0
        np.testing.assert_allclose(_quarter_period_ket(*lengths), amps, rtol=0, atol=1e-15)


def test_bell_targets_are_reached_by_the_dynamics():
    # The end-pair state at T/4 carries phase +i (odd N) or -i (even N)
    # on the transferred component; the targets must match exactly.
    for N in (3, 4, 5, 6):
        params = DomeParams(N=N, m=2)
        H = single_excitation_matrix(params, physical=True)
        psi = evolve_closed(H, site_state(N, 1), params.period / 4)[0]
        rho = brute_force_reduce(psi, N, (1, N))
        assert abs(target_overlap(rho, quarter_period_ket(N)) - 1.0) < 1e-9
        # The opposite parity phase is orthogonal, not merely off by phase.
        wrong = quarter_period_ket(N + 1)
        assert target_overlap(rho, wrong) < 1e-9


def test_bell_state_structure():
    amps = _quarter_period_ket(3)
    assert amps.shape == (2,)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
    assert abs(amps[0] - 1 / np.sqrt(2)) < 1e-12
    assert abs(amps[1] - 1j / np.sqrt(2)) < 1e-12


def test_corner_w_target_3x4_phases():
    amps = _quarter_period_ket(3, 4)
    np.testing.assert_allclose(amps, [0.5, -0.5j, 0.5j, 0.5], atol=1e-12)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_w_target_reached_on_grid():
    grid = Grid2D(3, 4, 2, 2)
    H = single_excitation_matrix(grid, physical=True)
    psi = evolve_closed(H, site_state(12, 1), grid.period / 4)[0]
    rho = entrywise_reduce(np.outer(psi, psi.conj()), tuple(i + 1 for i in corner_indices(3, 4)))
    assert abs(target_overlap(rho, quarter_period_ket(3, 4)) - 1.0) < 1e-6


def test_maximally_mixed_pair_fidelity():
    # The maximally mixed state of the vacuum and N sites scores 1/(N+1)
    # against the Bell target, read off its end-pair block.
    for N in (3, 5):
        rho = np.eye(N + 1) / (N + 1)
        idx = np.array([1, N])
        target = quarter_period_ket(N)
        got = _readout_fidelity(rho[idx[:, None], idx], *readout_target(target), block=True)
        assert abs(got - 1 / (N + 1)) < 1e-12
        assert abs(target_overlap(entrywise_reduce(rho, (1, N)), target) - 1 / (N + 1)) < 1e-12


def test_qpt_identity_channel():
    # t_end = 0 is the identity map: chi has a single unit entry at (I, I).
    H = dome_hamiltonian(DomeParams(N=3, m=2)).matrix()
    pm, fid = simulate_qpt(H, 0.0, target=1)
    ideal = np.zeros((4, 4))
    ideal[0, 0] = 1.0
    assert np.max(np.abs(pm.chi - ideal)) < 1e-8
    assert abs(fid - 1.0) < 1e-8
    assert pm.trace_error < 1e-8
    assert pm.hermiticity_error < 1e-8


def test_qpt_transfer_channel_parity():
    # Odd N transfers with phase 1 at T/2 (identity channel); the N=2
    # chain picks up a relative phase and drops to fidelity 1/2.
    pm5, fid5 = simulate_qpt(dome_hamiltonian(DomeParams(N=5, m=2)).matrix(), np.pi)
    assert abs(fid5 - 1.0) < 1e-6
    pm2, fid2 = simulate_qpt(dome_hamiltonian(DomeParams(N=2, m=0)).matrix(), np.pi)
    assert abs(fid2 - 0.5) < 1e-6
    assert abs(np.trace(pm2.chi).real - 1.0) < 1e-6


def test_qpt_open_system_matches_closed_at_long_coherence():
    rate = 2 * np.pi * 5e6
    params = DomeParams(N=3, m=2, J=rate)
    H, t = dome_hamiltonian(params).matrix() * rate, params.period / 2
    deco = DecoherenceConfig(t1=1.0, t_phi=1.0)  # effectively noise free
    _, fid_open = simulate_qpt(H, t, deco)
    _, fid_closed = simulate_qpt(H, t)
    assert abs(fid_open - fid_closed) < 1e-6


def test_qpt_open_system_matches_dense_oracle():
    # The transfer channel keeps the vacuum, so the tomographed fidelity is
    # transfer_fidelity(P, c) with P = rho_NN(T/2) from input |1> and
    # c = 2 rho_N0(T/2) from input |+>, both from the dense oracle.
    rate = 2 * np.pi * 5e6
    deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    for m in (2, 102):
        params = DomeParams(N=5, m=m, J=rate)
        H = single_excitation_matrix(params, physical=True)
        t = params.period / 2
        one = site_state(5, 1)
        plus = (vacuum_state(5) + one) / np.sqrt(2)
        P = expm_evolve(H, np.outer(one, one.conj()), t, deco)[5, 5].real
        c = 2 * expm_evolve(H, np.outer(plus, plus.conj()), t, deco)[5, 0]
        _, fid = simulate_qpt(dome_hamiltonian(params).matrix() * rate, t, deco)
        assert abs(fid - transfer_fidelity(P, c)) < 1e-12


def test_qpt_fidelity_against_explicit_ideal():
    pm, _ = simulate_qpt(dome_hamiltonian(DomeParams(N=3, m=2)).matrix(), 0.0, target=1)
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
    H = dome_hamiltonian(DomeParams(N=3, m=2)).matrix()
    with pytest.raises(ValueError):
        simulate_qpt(H, np.pi, source=0)
    with pytest.raises(ValueError):
        simulate_qpt(H, np.pi, target=4)


def test_process_matrix_dataclass_fields():
    pm = ProcessMatrix(chi=np.eye(4) / 4.0, residual=0.0,
                       hermiticity_error=0.0, trace_error=0.0)
    assert abs(pm.fidelity() - 0.25) < 1e-12


def closed_form_transfer(H, times, deco):
    """transfer_fidelity at `times` (from 0), composed as `domechain evolve` does:
    p from the open trajectory of |1>, c from the closed amplitude psi_N(t)
    times the decay of vacuum coherences."""
    N = H.shape[0]
    psi0 = site_state(N, 1)
    u = evolve_closed(H, psi0, times)[:, N]
    if deco is None:
        return transfer_fidelity(np.abs(u) ** 2, u)
    p = evolve_lindblad(H, np.outer(psi0, psi0), times, deco)[:, N, N]
    return transfer_fidelity(p, np.exp(-deco.vacuum_coherence_rate * times) * u)


def test_transfer_fidelity_matches_tomography_oracle():
    # Dome chains (m = 0, 2, 102) and random chains at 5 MHz, closed and
    # under T1/Tphi, at T/4, T/2 and a random time: the closed form agrees
    # with the emulated tomography.
    rng = np.random.default_rng(17)
    rate = 2 * np.pi * 5e6
    decos = [None, DecoherenceConfig(t1=30e-6, t_phi=5e-6), DecoherenceConfig(t1=3e-6),
             DecoherenceConfig(t_phi=0.5e-6)]
    chains = [dome_hamiltonian(DomeParams(N=N, m=m, J=rate))
              for N in (2, 3, 5, 8) for m in (0, 2, 102)]
    for N in (2, 4, 7):
        chains.append(TridiagonalHamiltonian(rng.normal(size=N) * 3, rng.uniform(0.2, 2.0, N - 1)))
    worst = 0.0
    for ham in chains:
        T = 2.0 * np.pi / rate
        times = np.array([0.0, T / 4, T / 2, T / 2 + rng.uniform(0, T)])
        for deco in decos:
            got = closed_form_transfer(ham.matrix() * rate, times, deco)
            for t, fid in zip(times[1:], got[1:]):
                worst = max(worst, abs(fid - simulate_qpt(ham.matrix() * rate, t, deco)[1]))
    assert worst < 1e-12


def test_transfer_fidelity_is_elementwise():
    p = np.array([1.0, 0.5, 0.0])
    c = np.array([1.0, 0.25j, -0.5 + 0.1j])
    np.testing.assert_array_equal(transfer_fidelity(p, c), [1.0, 0.375, 0.0])
    assert transfer_fidelity(1.0, -1.0) == 0.0


def test_state_fidelity_matches_per_frame_trace():
    # The scorer on propagated frames against np.trace of the entrywise
    # reduction frame by frame: closed frames read as readout amplitudes and
    # open ones as readout blocks; the chain Bell and grid W targets and a
    # target with a vacuum component.
    rng = np.random.default_rng(21)
    deco = DecoherenceConfig(t1=3.0, t_phi=2.0)
    chain = dome_hamiltonian(DomeParams(N=5, m=2)).matrix()
    grid = Grid2D(3, 4, 2, 2)
    corners = tuple(i + 1 for i in corner_indices(3, 4))
    grid_H = single_excitation_matrix(grid)
    cases = [
        (chain, (1, 5), quarter_period_ket(5)),
        (chain, (5, 2), random_sector_target(rng, 2)),
        (grid_H, corners, quarter_period_ket(3, 4)),
    ]
    times = np.linspace(0.0, 2.0, 9)
    for H, sites, target in cases:
        sigma = np.outer(target, target.conj())
        ket, weight = readout_target(target)
        idx = np.array(sites)
        psi0 = random_excited_state(rng, H.shape[0])
        closed = evolve_closed(H, psi0, times)
        opened = evolve_lindblad(H, np.outer(psi0, psi0.conj()), times, deco)
        forms = ((closed[:, idx], np.einsum("ti,tj->tij", closed, closed.conj()), False),
                 (opened[:, idx[:, None], idx], opened, True))
        for readout, dense, block in forms:
            got = _readout_fidelity(readout, ket, weight, block=block)
            ref = [np.trace(entrywise_reduce(rho, sites) @ sigma).real for rho in dense]
            assert got.shape == (times.size,)
            assert np.max(np.abs(got - ref)) < 1e-14
            # Any leading shape: a (3, 3) grid of frames gives a (3, 3) grid.
            grid_of = _readout_fidelity(readout.reshape(3, 3, *readout.shape[1:]), ket, weight,
                                        block=block)
            np.testing.assert_allclose(grid_of, got.reshape(3, 3), rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_readout_scorer_matches_the_full_reduction_and_ignores_row_count(k):
    # Readout blocks of random states without vacuum coherence, scored as
    # blocks and (for pure states) as amplitudes, against <t|.|t> of the
    # 2^k reduction, entrywise for the blocks and brute force for the kets;
    # a row's bits do not depend on the rows beside it.
    rng = np.random.default_rng(k)
    D, rows = 6, 7
    sites = tuple(rng.choice(np.arange(1, D + 1), size=k, replace=False).tolist())
    psi = rng.normal(size=(rows, D + 1)) + 1j * rng.normal(size=(rows, D + 1))
    psi[:, 0] = 0.0
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    kets = np.einsum("ti,tj->tij", psi, psi.conj())
    q = rng.random(rows)[:, None, None]
    rhos = 0.8 * (q * kets + (1.0 - q) * np.roll(kets, 1, axis=0))
    rhos[:, 0, 0] = 0.2  # vacuum population, no vacuum coherence
    target = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
    target[[i for i in range(2**k) if bin(i).count("1") > 1]] = 0.0
    target /= np.linalg.norm(target)
    ket, weight = target[1 << np.arange(k)[::-1]], abs(target[0]) ** 2
    idx = np.array(sites)

    block = _readout_fidelity(rhos[:, idx[:, None], idx], ket, weight, block=True)
    amps = _readout_fidelity(psi[:, idx], ket, weight)
    np.testing.assert_allclose(
        block, [target_overlap(entrywise_reduce(rho, sites), target) for rho in rhos],
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        amps, [target_overlap(brute_force_reduce(p, D, sites), target) for p in psi],
        rtol=0, atol=1e-15)
    for part in (slice(0, 1), slice(2, 5), slice(6, 7)):
        np.testing.assert_array_equal(
            _readout_fidelity(rhos[part][:, idx[:, None], idx], ket, weight, block=True), block[part])
        np.testing.assert_array_equal(_readout_fidelity(psi[part][:, idx], ket, weight), amps[part])
    # Leading axes and per-row targets broadcast.
    grid = _readout_fidelity(rhos[:6, idx[:, None], idx].reshape(2, 3, k, k),
                             np.broadcast_to(ket, (2, 1, k)), weight, block=True)
    np.testing.assert_array_equal(grid.ravel(), block[:6])
