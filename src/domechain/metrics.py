"""Reduced end-qubit states, entanglement targets, and process tomography.

Reductions exploit the vacuum-plus-one-excitation structure: tracing a
global state down to a k-qubit subset leaves support only on the all-down
bitstring and the k single-excitation bitstrings, so the exact partial
trace is an entry relabeling.  Subset basis order is {down, up}^k with the
first listed site as the leftmost (most significant) tensor factor.

Phase conventions.  Starting from an excitation on site 1, a transfer
chain of length L reaches (|1> + p(L)|L>)/sqrt(2) at t = T/4, where
p(L) = +i for odd L and -i for even L; the sign alternation comes from
the e^{-i pi/2 (L-1)} mirror phase of the quarter-period propagator.
`chain_bell_target` and `corner_w_target` build exactly these reachable
states (the 2D corner state factorizes into a row transfer times a
column transfer, so its relative phases are products of the 1D ones).
Fidelities are insensitive to the remaining global phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TridiagonalHamiltonian
from .dynamics import (
    ClosedPropagator,
    DecoherenceConfig,
    _evolve_open_stack,
    site_state,
    vacuum_state,
)
from .models import Grid2D

__all__ = [
    "ProcessMatrix",
    "reduce_to_sites",
    "reduce_to_pair",
    "reduce_to_corners",
    "quarter_period_phase",
    "bell_state",
    "chain_bell_target",
    "corner_w_target",
    "state_fidelity",
    "subset_fidelities",
    "bell_fidelity",
    "w_fidelity",
    "qpt_fiducials",
    "process_matrix",
    "simulate_qpt",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def _as_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    if state.ndim == 2 and state.shape[0] == state.shape[1]:
        return state
    raise ValueError("expected a state vector or a square density matrix")


def reduce_to_sites(state, sites) -> np.ndarray:
    """Exact partial trace onto a subset of sites.

    `state` is a (D+1)-vector or (D+1)x(D+1) density matrix with the
    vacuum at index 0; `sites` are distinct 1-based site indices.  The
    result is 2^k x 2^k.  Only the all-down entry, the single-excitation
    block, and the vacuum coherences into it are nonzero; coherences
    between the subset and excitations elsewhere trace to zero.
    """
    state = np.asarray(state, dtype=complex)
    # Subset entries are read one by one: no (D+1)^2 outer product, no loop over all sites.
    if state.ndim == 1:
        amp = state.tolist()
        entry = lambda a, b: amp[a] * amp[b].conjugate()
        total = np.vdot(state, state)
    elif state.ndim == 2 and state.shape[0] == state.shape[1]:
        entry = state.item
        total = sum(state.diagonal().tolist())
    else:
        raise ValueError("expected a state vector or a square density matrix")
    sites = tuple(map(int, sites))
    k = len(sites)
    if len(set(sites)) != k:
        raise ValueError("subset sites must be distinct")
    if sites and not (1 <= min(sites) and max(sites) < state.shape[0]):
        raise ValueError("site index out of range")
    out = np.zeros((2**k, 2**k), dtype=complex)
    bit = [1 << (k - 1 - i) for i in range(k)]
    out[0, 0] = total - sum(entry(s, s) for s in sites)
    for i, si in enumerate(sites):
        out[0, bit[i]] = entry(0, si)
        out[bit[i], 0] = entry(si, 0)
        for j, sj in enumerate(sites):
            out[bit[i], bit[j]] = entry(si, sj)
    return out


def reduce_to_pair(state, site_a: int, site_b: int) -> np.ndarray:
    """Two-qubit reduced state of (site_a, site_b), site_a leftmost."""
    if site_a == site_b:
        raise ValueError("pair sites must differ")
    return reduce_to_sites(state, (site_a, site_b))


def reduce_to_corners(state, grid: Grid2D) -> np.ndarray:
    """Four-corner reduced state in order (1,1), (1,C), (R,1), (R,C)."""
    return reduce_to_sites(state, tuple(i + 1 for i in grid.corner_indices()))


def quarter_period_phase(length: int) -> complex:
    """Relative phase acquired by the far end at t = T/4: +i odd, -i even."""
    if length < 2:
        raise ValueError("transfer needs at least two sites")
    return 1j if length % 2 else -1j


def bell_state(phase: complex) -> np.ndarray:
    """(|down.up> + phase * |up.down>)/sqrt(2) on two qubits."""
    vec = np.zeros(4, dtype=complex)
    vec[1] = phase / np.sqrt(2)
    vec[2] = 1 / np.sqrt(2)
    return vec / np.linalg.norm(vec)


def chain_bell_target(n_sites: int) -> np.ndarray:
    """End-pair state reached at T/4 from an excitation on site 1.

    Equals (|up.down> + p|down.up>)/sqrt(2) with p = quarter_period_phase;
    for odd chains this is (|down.up> - i|up.down>)/sqrt(2) up to a global
    phase.
    """
    return bell_state(quarter_period_phase(n_sites))


def corner_w_target(rows: int, cols: int) -> np.ndarray:
    """Four-corner state reached at T/4 from an excitation at (1,1).

    (|e1> + p(C)|e2> + p(R)|e3> + p(R)p(C)|e4>)/2 in corner order (1,1),
    (1,C), (R,1), (R,C); for a 3x4 grid the phases are (1, -i, +i, 1).
    """
    pc = quarter_period_phase(cols)
    pr = quarter_period_phase(rows)
    vec = np.zeros(16, dtype=complex)
    for pos, amp in enumerate((1.0, pc, pr, pr * pc)):
        vec[1 << (3 - pos)] = amp / 2.0
    return vec


def state_fidelity(rho, target) -> float:
    """Tr(rho |t><t|) for a pure target, or Tr(rho sigma) if both mixed."""
    rho = _as_density(rho)
    target = np.asarray(target, dtype=complex)
    if target.ndim == 1:
        return float(np.real(target.conj() @ rho @ target))
    return float(np.real(np.trace(rho @ target)))


def subset_fidelities(frames, sites, target) -> np.ndarray:
    """state_fidelity(reduce_to_sites(f, sites), target) for every frame f.

    `frames` is a (T, D+1) stack of state vectors or a (T, D+1, D+1) stack
    of density matrices; `target` is a 2^k ket or density matrix on the
    subset.  A reduction is nonzero only on the all-down bitstring and the
    k single-excitation bitstrings, so each overlap needs just the
    (k+1) x (k+1) block of the frame on (vacuum, sites), with its vacuum
    entry replaced by the trace minus the subset populations.
    """
    frames = np.asarray(frames, dtype=complex)
    sites = [int(s) for s in sites]
    k = len(sites)
    if len(set(sites)) != k:
        raise ValueError("subset sites must be distinct")
    if sites and not (1 <= min(sites) and max(sites) < frames.shape[-1]):
        raise ValueError("site index out of range")
    idx = [0, *sites]
    if frames.ndim == 2:
        amp = frames[:, idx]
        block = amp[:, :, None] * amp[:, None, :].conj()
        total = np.einsum("ti,ti->t", frames.conj(), frames)
    elif frames.ndim == 3 and frames.shape[1] == frames.shape[2]:
        block = frames[:, idx][:, :, idx]
        total = np.einsum("tii->t", frames)
    else:
        raise ValueError("expected a stack of state vectors or square density matrices")
    block[:, 0, 0] = total - np.einsum("tii->t", block[:, 1:, 1:])
    target = np.asarray(target, dtype=complex)
    if target.shape[0] != 2**k:
        raise ValueError("target dimension must be 2^k for k subset sites")
    pos = [0] + [1 << (k - 1 - i) for i in range(k)]
    if target.ndim == 1:
        t = target[pos]
        return np.real(np.einsum("a,tab,b->t", t.conj(), block, t))
    return np.real(np.einsum("tab,ba->t", block, target[np.ix_(pos, pos)]))


def bell_fidelity(rho_pair, target: np.ndarray | None = None) -> float:
    """Overlap of a 4x4 end-pair state with a Bell target.

    The default target is chain_bell_target for an odd chain (the N=5
    working point); even chains carry the opposite relative phase, so
    pass chain_bell_target(n_sites) explicitly there.
    """
    rho_pair = _as_density(rho_pair)
    if rho_pair.shape != (4, 4):
        raise ValueError("expected a two-qubit reduced state")
    if target is None:
        target = bell_state(1j)
    return state_fidelity(rho_pair, target)


def w_fidelity(rho_corners, target: np.ndarray | None = None) -> float:
    """Overlap of a 16x16 corner state with a four-corner W target.

    The default target is corner_w_target(3, 4); pass corner_w_target(R, C)
    for other geometries, since the relative phases depend on the side
    parities.
    """
    rho_corners = _as_density(rho_corners)
    if rho_corners.shape != (16, 16):
        raise ValueError("expected a four-qubit reduced state")
    if target is None:
        target = corner_w_target(3, 4)
    return state_fidelity(rho_corners, target)


# ---------------------------------------------------------------------------
# Process tomography


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
    return A


# Depends only on the fiducials and the Pauli basis, so it is built once.
_TOMOGRAPHY_MATRIX = _tomography_matrix()


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
    A = _TOMOGRAPHY_MATRIX
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


def simulate_qpt(
    ham: TridiagonalHamiltonian,
    deco: DecoherenceConfig | None = None,
    t_end: float | None = None,
    source: int = 1,
    target: int | None = None,
) -> tuple[ProcessMatrix, float]:
    """Tomograph the source-to-target transfer channel of a chain.

    Prepares {|down>, |up>, |+>, |+i>} on the source qubit as vacuum
    superpositions, evolves to t_end (default: half the chain period,
    i.e. the transfer time), reduces to the target qubit, and inverts for
    chi.  Returns (ProcessMatrix, fidelity against the identity process).
    Open evolution sends all four fiducials through one stacked linear map.
    """
    N = ham.n
    if target is None:
        target = N
    if not (1 <= source <= N and 1 <= target <= N):
        raise ValueError("source/target out of range")
    if t_end is None:
        t_end = ham.period / 2
    H = ham.matrix(physical=True)
    fiducial_states = [
        a * vacuum_state(N) + b * site_state(N, source) for a, b in qpt_fiducials()
    ]
    if deco is None or t_end == 0.0:
        prop = ClosedPropagator(H)
        finals = [
            np.outer(v := prop.apply(psi, t_end), v.conj()) for psi in fiducial_states
        ]
    else:
        stack = np.stack([np.outer(psi, psi.conj()) for psi in fiducial_states])
        finals = _evolve_open_stack(H, stack, np.array([0.0, t_end]), deco)[-1]
    outputs = [reduce_to_sites(rho, (target,)) for rho in finals]
    pm = process_matrix(outputs)
    return pm, pm.fidelity()
