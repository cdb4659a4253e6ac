"""Readout-site fidelities, entanglement targets, and transfer fidelity.

Every figure of merit is read off its readout sites only.  A state reached
from one site excitation has no vacuum coherence, so its reduction to the
k readout qubits is (1 - p)|vac><vac| plus a k x k block on the
single-excitation bitstrings: a a^dagger for a closed ket with readout
amplitudes a, the readout block B of rho for an open state, with p its
trace.  `_readout_fidelity` scores either form against a target of vacuum
weight w and readout amplitudes t as w (1 - p) + <t|.|t>, and
`transfer_fidelity` scores the transfer channel.  Targets are k-qubit kets
in the basis {down, up}^k with the first readout site as the leftmost
(most significant) tensor factor.

Phase conventions.  Starting from an excitation on site 1, a transfer
chain of length L reaches (|1> + p(L)|L>)/sqrt(2) at t = T/4, where
p(L) = +i for odd L and -i for even L; the sign alternation comes from
the e^{-i pi/2 (L-1)} mirror phase of the quarter-period propagator.
`_quarter_period_ket` gives the readout amplitudes of exactly these
reachable states, with no vacuum weight (the 2D corner state factorizes
into a row transfer times a column transfer, so its relative phases are
products of the 1D ones).  Fidelities are insensitive to the remaining
global phase.

Transfer channel.  Under uniform site-local T1/Tphi an excitation-conserving
chain keeps the vacuum, so the source-to-target map of one qubit is
amplitude-damping-like (Bose, PRL 91, 207901, 2003): it sends |up><up| to
p|up><up| + (1 - p)|down><down| and |up><down| to c|up><down|.  Its
process fidelity with the identity (`transfer_fidelity`) therefore needs
one population and one amplitude, not a tomography.
"""

from __future__ import annotations

import numpy as np

__all__ = ["transfer_fidelity"]


def _quarter_period_ket(*lengths: int) -> np.ndarray:
    """Readout amplitudes, first readout site first, of the state reached at
    T/4 from the first site: the two ends of a chain of length L (lengths =
    (L,)) or the four corners (1,1), (1,C), (R,1), (R,C) of a grid (rows,
    cols).  A transfer over L sites gives its far end the relative phase +i
    for odd L and -i for even L; grid corners take products of these, so a
    3x4 grid's are (1, -i, +i, 1)/2.
    """
    if min(lengths) < 2:
        raise ValueError("transfer needs at least two sites")
    amps = np.ones(1, dtype=complex)
    for length in lengths:
        amps = np.outer(amps, (1.0, 1j if length % 2 else -1j)).ravel()
    amps /= np.sqrt(amps.size)
    return amps / np.linalg.norm(amps)


def transfer_fidelity(p, c):
    """Identity-process fidelity (1 + p + 2 Re c)/4 of the transfer channel.

    p is the target population reached from an excitation on the source,
    and c = e^{-r t} <target|U(t)|source> its coherence with the vacuum,
    with r = `DecoherenceConfig.vacuum_coherence_rate` (0 when closed).
    Elementwise on arrays.
    """
    return (1.0 + np.real(p) + 2.0 * np.real(c)) / 4.0


def _readout_fidelity(readout, target, vacuum_weight, block: bool = False) -> np.ndarray:
    """Overlap w (1 - p) + <t|.|t> of the reduced readout state with a target
    of vacuum weight w and readout amplitudes t, (..., k), broadcast against
    the readout's leading shape.

    `readout` holds closed amplitudes a, (..., k), reduced state
    (1 - p)|vac><vac| + |a><a| with p = |a|^2, or with `block` the open
    readout blocks B of rho, (..., k, k), with p = tr B.  Sums run entry by
    entry: numpy's row reductions take another path for one row, so bits
    would depend on the row count.
    """
    a, t = np.asarray(readout), np.asarray(target)
    k = range(t.shape[-1])
    if block:
        p = sum(a[..., i, i].real for i in k)
        overlap = sum(np.conj(t[..., i]) * sum(a[..., i, j] * t[..., j] for j in k) for i in k).real
    else:
        p = sum(np.abs(a[..., i]) ** 2 for i in k)
        overlap = np.abs(sum(a[..., i] * np.conj(t[..., i]) for i in k)) ** 2
    return vacuum_weight * (1.0 - p) + overlap
