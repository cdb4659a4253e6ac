"""Reduced end-qubit states, entanglement targets, and transfer fidelity.

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

Transfer channel.  Under uniform site-local T1/Tphi an excitation-conserving
chain keeps the vacuum, so the source-to-target map of one qubit is
amplitude-damping-like (Bose, PRL 91, 207901, 2003): it sends |up><up| to
p|up><up| + (1 - p)|down><down| and |up><down| to c|up><down|.  Its
process fidelity with the identity, (1 + p + 2 Re c)/4, therefore needs
one open population and one closed amplitude, not a tomography.
"""

from __future__ import annotations

import numpy as np

from .models import Grid2D

__all__ = [
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
    "transfer_fidelity",
]


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


def bell_fidelity(rho_pair, target: np.ndarray) -> float:
    """Overlap of a 4x4 end-pair state with a Bell target.

    The reachable target depends on the chain parity: pass
    chain_bell_target(n_sites).
    """
    rho_pair = _as_density(rho_pair)
    if rho_pair.shape != (4, 4):
        raise ValueError("expected a two-qubit reduced state")
    return state_fidelity(rho_pair, target)


def w_fidelity(rho_corners, target: np.ndarray) -> float:
    """Overlap of a 16x16 corner state with a four-corner W target.

    The relative phases depend on the side parities: pass
    corner_w_target(R, C).
    """
    rho_corners = _as_density(rho_corners)
    if rho_corners.shape != (16, 16):
        raise ValueError("expected a four-qubit reduced state")
    return state_fidelity(rho_corners, target)


def transfer_fidelity(p, c):
    """Identity-process fidelity (1 + p + 2 Re c)/4 of the transfer channel.

    p is the target population reached from an excitation on the source,
    and c = e^{-r t} <target|U(t)|source> its coherence with the vacuum,
    with r = `DecoherenceConfig.vacuum_coherence_rate` (0 when closed).
    Elementwise on arrays.
    """
    return (1.0 + np.real(p) + 2.0 * np.real(c)) / 4.0
