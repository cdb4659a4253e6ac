"""Reductions, entanglement targets, and the transfer-channel fidelity.

The reduction oracle embeds the (D+1)-dim vacuum-plus-excitation state
into the full 2^D qubit space (site 1 is the leftmost tensor factor) and
performs a dense partial trace by axis reordering.  It shares no code
with metrics.reduce_to_sites.

The transfer-fidelity oracle is an emulated single-qubit process
tomography (`simulate_qpt`): four fiducial inputs on the source qubit,
dense propagation (`expm(-iHt)` when closed, the dense Liouvillian
exponential `expm_evolve` when open), Pauli readout of the target qubit
and a 16x16 linear inversion for chi.  It shares no code with the closed
form `metrics.transfer_fidelity` or the propagators feeding it.
"""

import functools
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from domechain.chain import TridiagonalHamiltonian
from domechain.dynamics import (
    DecoherenceConfig,
    evolve_closed,
    evolve_lindblad,
    site_state,
)
from domechain.metrics import (
    _quarter_period_ket,
    chain_bell_target,
    corner_w_target,
    reduce_to_sites,
    state_fidelity,
    transfer_fidelity,
)
from domechain.models import (
    DomeParams,
    Grid2D,
    dome_hamiltonian,
    single_excitation_matrix,
)
from test_dynamics import expm_evolve, vacuum_state

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


@dataclass(frozen=True)
class ProcessMatrix:
    """Single-qubit chi matrix in the Pauli basis {I, X, Y, Z}.

    Diagnostics report how physical the linear-inversion result is;
    nothing is projected or renormalized.
    """

    chi: np.ndarray
    residual: float
    hermiticity_error: float
    trace_error: float

    def fidelity(self, ideal: np.ndarray | None = None) -> float:
        """Tr(chi chi_ideal); the default ideal is the identity process."""
        if ideal is None:
            return float(np.real(self.chi[0, 0]))
        return float(np.real(np.trace(self.chi @ ideal)))


def qpt_fiducials() -> tuple[tuple[complex, complex], ...]:
    """Source-qubit input amplitudes (a, b) for a|down> + b|up>."""
    s = 1 / np.sqrt(2)
    return ((1, 0), (0, 1), (s, s), (s, 1j * s))


def _pauli_expectations(rho2: np.ndarray) -> tuple[float, float, float]:
    """<X>, <Y>, <Z> via the Z readout after {I, X_pi/2, Y_pi/2} rotations."""
    rx = (PAULI_I - 1j * PAULI_X) / np.sqrt(2)
    ry = (PAULI_I - 1j * PAULI_Y) / np.sqrt(2)

    def z_of(r: np.ndarray) -> float:
        return float(np.real(np.trace(PAULI_Z @ r)))

    ex = -z_of(ry @ rho2 @ ry.conj().T)
    ey = z_of(rx @ rho2 @ rx.conj().T)
    ez = z_of(rho2)
    return ex, ey, ez


@functools.cache
def _tomography_matrix() -> np.ndarray:
    """A[4j + beta, 4m + n] = Tr(sigma_beta E_m rho_j E_n) over the fiducials."""
    inputs = [np.outer((a, b), np.conj((a, b))) for a, b in qpt_fiducials()]
    A = np.zeros((16, 16), dtype=complex)
    for j, rho_in in enumerate(inputs):
        for beta in range(4):
            for m in range(4):
                for n in range(4):
                    A[4 * j + beta, 4 * m + n] = np.trace(
                        PAULIS[beta] @ PAULIS[m] @ rho_in @ PAULIS[n]
                    )
    A.flags.writeable = False
    return A


def process_matrix(output_rhos) -> ProcessMatrix:
    """Linear-inversion chi from the four fiducial output states.

    `output_rhos` are the 2x2 reduced channel outputs for the fiducial
    inputs in qpt_fiducials order.  The outputs are first collapsed to
    Pauli expectation values (the tomographic readout), then the 16x16
    linear system Tr(sigma_b sum_mn chi_mn E_m rho_j E_n) = Tr(sigma_b
    rho_out,j) is solved for chi.
    """
    output_rhos = [np.asarray(r, dtype=complex) for r in output_rhos]
    if len(output_rhos) != 4 or any(r.shape != (2, 2) for r in output_rhos):
        raise ValueError("expected four 2x2 channel outputs")
    A = _tomography_matrix()
    b = np.zeros(16, dtype=complex)
    for j, rho_out in enumerate(output_rhos):
        ex, ey, ez = _pauli_expectations(rho_out)
        b[4 * j : 4 * j + 4] = (np.real(np.trace(rho_out)), ex, ey, ez)
    x = np.linalg.solve(A, b)
    chi = x.reshape(4, 4)
    return ProcessMatrix(
        chi=chi,
        residual=float(np.linalg.norm(A @ x - b)),
        hermiticity_error=float(np.max(np.abs(chi - chi.conj().T))),
        trace_error=float(abs(np.trace(chi) - 1.0)),
    )


def simulate_qpt(ham, deco=None, t_end=None, source=1, target=None, *, J=1.0):
    """Tomograph the source-to-target transfer channel of a chain.

    Prepares {|down>, |up>, |+>, |+i>} on the source qubit as vacuum
    superpositions, evolves each to t_end (default: half the chain period
    2 pi / J) under J times the chain's matrix with a dense propagator,
    reduces to the target qubit and inverts for chi.  Returns
    (ProcessMatrix, fidelity against the identity process).
    """
    N = ham.n
    if target is None:
        target = N
    if not (1 <= source <= N and 1 <= target <= N):
        raise ValueError("source/target out of range")
    if t_end is None:
        t_end = 2.0 * np.pi / J / 2
    H = ham.matrix() * J
    fiducials = [a * vacuum_state(N) + b * site_state(N, source) for a, b in qpt_fiducials()]
    if deco is None:
        U = np.eye(N + 1, dtype=complex)
        U[1:, 1:] = scipy.linalg.expm(-1j * H * t_end)
        finals = [np.outer(U @ psi, (U @ psi).conj()) for psi in fiducials]
    else:
        finals = [expm_evolve(H, np.outer(psi, psi.conj()), t_end, deco) for psi in fiducials]
    pm = process_matrix([entrywise_reduce(rho, (target,)) for rho in finals])
    return pm, pm.fidelity()


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


def random_density_matrix(rng: np.random.Generator, n_sites: int) -> np.ndarray:
    a = rng.normal(size=(n_sites + 1,) * 2) + 1j * rng.normal(size=(n_sites + 1,) * 2)
    return a @ a.conj().T / np.trace(a @ a.conj().T)


def test_reduce_matches_brute_force():
    # Stacks of kets and of two-ket mixtures, T == D + 1 frames each, so a
    # ket stack is as square as a single density matrix.
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
            mixes = [0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj())
                     for a, b in zip(kets, np.roll(kets, 1, axis=0))]
            ref = np.array([brute_force_reduce(k, n_sites, sites) for k in kets])
            assert np.max(np.abs(reduce_to_sites(kets, sites) - ref)) < 1e-10
            got = reduce_to_sites(np.array(mixes), sites)
            assert np.max(np.abs(got - (0.3 * ref + 0.7 * np.roll(ref, 1, axis=0)))) < 1e-10


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
        T = int(rng.choice([1, 3, n_sites + 1]))
        kets = np.array([random_sector_state(rng, n_sites) for _ in range(T)])
        rhos = np.array([random_density_matrix(rng, n_sites) for _ in range(T)])
        for frames, dense in ((kets, [np.outer(k, k.conj()) for k in kets]), (rhos, rhos)):
            ref = np.array([entrywise_reduce(rho, sites) for rho in dense])
            assert np.max(np.abs(reduce_to_sites(frames, sites) - ref)) < 1e-14


def test_reduce_accepts_density_matrices():
    rng = np.random.default_rng(4)
    a = random_sector_state(rng, 4)
    b = random_sector_state(rng, 4)
    rho = 0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj())
    got = reduce_to_sites(rho[None], (1, 4))[0]
    ref = 0.3 * brute_force_reduce(a, 4, (1, 4)) + 0.7 * brute_force_reduce(b, 4, (1, 4))
    assert np.max(np.abs(got - ref)) < 1e-10


def test_reduced_states_are_physical():
    rng = np.random.default_rng(5)
    kets = np.array([random_sector_state(rng, 5) for _ in range(20)])
    for rho in reduce_to_sites(kets, (2, 4, 5)):
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_reduce_validation():
    frames = site_state(4, 1)[None]
    with pytest.raises(ValueError):
        reduce_to_sites(frames, (1, 1))
    with pytest.raises(ValueError):
        reduce_to_sites(frames, (0,))
    with pytest.raises(ValueError):
        reduce_to_sites(frames, (5,))
    with pytest.raises(ValueError):
        reduce_to_sites(site_state(4, 1), (1, 4))  # one ket, not a stack
    with pytest.raises(ValueError):
        reduce_to_sites(np.ones((2, 3, 4)), (1, 2))


def test_quarter_period_phase_parity():
    # The far end's phase relative to the source: +i for odd, -i for even lengths.
    for length, phase in ((3, 1j), (5, 1j), (4, -1j)):
        ket = _quarter_period_ket(length)
        assert ket[1] == phase * ket[2]
    for lengths in ((1,), (1, 4), (4, 1)):
        with pytest.raises(ValueError):
            _quarter_period_ket(*lengths)


def test_bell_targets_are_reached_by_the_dynamics():
    # The end-pair state at T/4 carries phase +i (odd N) or -i (even N)
    # on the transferred component; the targets must match exactly.
    for N in (3, 4, 5, 6):
        params = DomeParams(N=N, m=2)
        H = single_excitation_matrix(params, physical=True)
        psi = evolve_closed(H, site_state(N, 1), params.period / 4)
        rho = reduce_to_sites(psi, (1, N))
        assert abs(state_fidelity(rho, chain_bell_target(N))[0] - 1.0) < 1e-9
        # The opposite parity phase is orthogonal, not merely off by phase.
        wrong = _quarter_period_ket(N + 1)
        assert state_fidelity(rho, wrong)[0] < 1e-9


def test_bell_state_structure():
    vec = _quarter_period_ket(3)
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
    grid = Grid2D(3, 4, 2, 2)
    H = single_excitation_matrix(grid, physical=True)
    psi = evolve_closed(H, site_state(12, 1), grid.period / 4)
    rho = reduce_to_sites(psi, tuple(i + 1 for i in grid.corner_indices()))
    assert abs(state_fidelity(rho, corner_w_target(3, 4))[0] - 1.0) < 1e-6


def test_fidelity_bounds_and_mixed_target():
    rng = np.random.default_rng(8)
    state = random_sector_state(rng, 4)
    rho = reduce_to_sites(state[None], (1, 4))[0]
    f = state_fidelity(rho, chain_bell_target(4))
    assert 0.0 <= f <= 1.0 + 1e-12
    # Mixed-target branch: Tr(rho sigma).
    assert abs(state_fidelity(rho, rho) - np.trace(rho @ rho).real) < 1e-12


def test_maximally_mixed_pair_fidelity():
    assert abs(state_fidelity(np.eye(4) / 4.0, chain_bell_target(5)) - 0.25) < 1e-12


def test_fidelity_shape_validation():
    with pytest.raises(ValueError):
        state_fidelity(np.eye(3) / 3.0, chain_bell_target(5))
    with pytest.raises(ValueError):
        state_fidelity(np.eye(4) / 4.0, corner_w_target(3, 4))
    with pytest.raises(ValueError):
        state_fidelity(np.eye(4)[None] / 4.0, np.eye(4)[:, :2])
    with pytest.raises(ValueError):
        state_fidelity(chain_bell_target(3), chain_bell_target(3))  # a ket is not a density matrix


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
    rate = 2 * np.pi * 5e6
    ham = dome_hamiltonian(DomeParams(N=3, m=2, J=rate))
    deco = DecoherenceConfig(t1=1.0, t_phi=1.0)  # effectively noise free
    _, fid_open = simulate_qpt(ham, deco, J=rate)
    _, fid_closed = simulate_qpt(ham, J=rate)
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
        _, fid = simulate_qpt(dome_hamiltonian(params), deco, J=rate)
        assert abs(fid - transfer_fidelity(P, c)) < 1e-12


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
                worst = max(worst, abs(fid - simulate_qpt(ham, deco, t_end=t, J=rate)[1]))
    assert worst < 1e-12


def test_transfer_fidelity_is_elementwise():
    p = np.array([1.0, 0.5, 0.0])
    c = np.array([1.0, 0.25j, -0.5 + 0.1j])
    np.testing.assert_array_equal(transfer_fidelity(p, c), [1.0, 0.375, 0.0])
    assert transfer_fidelity(1.0, -1.0) == 0.0


def test_state_fidelity_matches_per_frame_trace():
    # The stacked reduction and overlap against np.trace frame by frame:
    # closed and open frames, the chain Bell and grid W targets, a target
    # with a vacuum component and a mixed target.
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
        sigma = np.outer(target, target.conj()) if target.ndim == 1 else target
        c = rng.normal(size=H.shape[0] + 1) + 1j * rng.normal(size=H.shape[0] + 1)
        psi0 = c / np.linalg.norm(c)
        closed = evolve_closed(H, psi0, times)
        opened = evolve_lindblad(H, np.outer(psi0, psi0.conj()), times, deco)
        for frames in (closed, opened):
            rhos = reduce_to_sites(frames, sites)
            got = state_fidelity(rhos, target)
            ref = [np.trace(rho @ sigma).real for rho in rhos]
            assert got.shape == (times.size,)
            assert np.max(np.abs(got - ref)) < 1e-14
            # Any leading shape: a (3, 3) grid of frames gives a (3, 3) grid.
            grid_of = state_fidelity(rhos.reshape(3, 3, *rhos.shape[1:]), target)
            np.testing.assert_allclose(grid_of, got.reshape(3, 3), rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_readout_scorer_matches_the_full_reduction_and_ignores_row_count(k):
    # Readout blocks of random states without vacuum coherence, scored as
    # blocks and (for pure states) as amplitudes, against state_fidelity of
    # the 2^k reduction; a row's bits do not depend on the rows beside it.
    from domechain.metrics import _readout_fidelity

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
    np.testing.assert_allclose(block, state_fidelity(reduce_to_sites(rhos, sites), target),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(amps, state_fidelity(reduce_to_sites(psi, sites), target),
                               rtol=0, atol=1e-15)
    for part in (slice(0, 1), slice(2, 5), slice(6, 7)):
        np.testing.assert_array_equal(
            _readout_fidelity(rhos[part][:, idx[:, None], idx], ket, weight, block=True), block[part])
        np.testing.assert_array_equal(_readout_fidelity(psi[part][:, idx], ket, weight), amps[part])
    # Leading axes and per-row targets broadcast.
    grid = _readout_fidelity(rhos[:6, idx[:, None], idx].reshape(2, 3, k, k),
                             np.broadcast_to(ket, (2, 1, k)), weight, block=True)
    np.testing.assert_array_equal(grid.ravel(), block[:6])
