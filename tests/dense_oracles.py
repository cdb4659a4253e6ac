"""Dense reference computations the tests check the package against.

Every oracle here works on plain numpy arrays in the vacuum-plus-sites
basis (index 0 the vacuum, index n site n) and imports nothing from
domechain, so no bug in the package can reach the numbers it is checked
against.  The module is not named `oracles`: pytest puts both `tests/`
and `perfbench/` on sys.path, and perfbench has its own `oracles`.

- Partial traces: `brute_force_reduce` embeds a ket into the full 2^N
  qubit space (site 1 the leftmost tensor factor) and traces by axis
  reordering; `entrywise_reduce` writes the reduction of a density matrix
  entry by entry.  Use the first for kets up to N = 8 and the second for
  density matrices and for kets too large to embed.  `target_overlap`
  scores a reduction against a ket target, <t|rho|t>.
- T/4 targets: `quarter_period_ket` is the k-qubit state a transfer from
  the first site reaches at T/4 on the chain ends or the grid corners,
  which `corner_indices` lists row major.
- Open evolution: `lindblad_superoperator` is the vectorized Liouvillian
  (row-major vec: vec(A X B) = (A kron B^T) vec(X)), which `expm_evolve`
  exponentiates with scipy.linalg.expm; `longdouble_site_block` is the
  site-block generator's exponential in extended precision.
- Transfer channel: `simulate_qpt` emulates single-qubit process
  tomography: four fiducial inputs on the source qubit, dense propagation,
  Pauli readout of the target qubit and a 16x16 linear inversion for chi.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def vacuum_state(n_sites: int) -> np.ndarray:
    """The no-excitation state |0> on the (n_sites + 1)-dim space."""
    psi = np.zeros(n_sites + 1, dtype=complex)
    psi[0] = 1.0
    return psi


def excitation_state(n_sites: int, site: int) -> np.ndarray:
    """One excitation on 1-based `site` of the (n_sites + 1)-dim space."""
    psi = np.zeros(n_sites + 1, dtype=complex)
    psi[site] = 1.0
    return psi


def random_sector_state(rng: np.random.Generator, n_sites: int) -> np.ndarray:
    """A random unit ket on vacuum plus sites."""
    c = rng.normal(size=n_sites + 1) + 1j * rng.normal(size=n_sites + 1)
    return c / np.linalg.norm(c)


def random_excited_state(rng: np.random.Generator, n_sites: int) -> np.ndarray:
    """A random unit ket on the sites alone, with no vacuum amplitude."""
    psi = random_sector_state(rng, n_sites)
    psi[0] = 0.0
    return psi / np.linalg.norm(psi)


def random_sector_target(rng: np.random.Generator, k: int) -> np.ndarray:
    """A random unit k-qubit ket on the all-down and the k single-excitation
    bitstrings: a readout target with a vacuum weight."""
    target = np.zeros(2**k, dtype=complex)
    target[[0, *(1 << np.arange(k))]] = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
    return target / np.linalg.norm(target)


def readout_target(target: np.ndarray) -> tuple[np.ndarray, float]:
    """A k-qubit target as readout amplitudes on the single-excitation
    bitstrings (first site leftmost) and its vacuum weight |t_0|^2."""
    k = target.size.bit_length() - 1
    return target[1 << np.arange(k)[::-1]], abs(target[0]) ** 2


def random_density(rng: np.random.Generator, n_sites: int) -> np.ndarray:
    """A full-rank Hermitian unit-trace state on vacuum plus sites, with vacuum coherences."""
    shape = (n_sites + 1, n_sites + 1)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def embed_full_hilbert(state: np.ndarray, n_sites: int) -> np.ndarray:
    """Map vacuum-plus-sites amplitudes onto the 2^N qubit space."""
    full = np.zeros(2**n_sites, dtype=complex)
    full[0] = state[0]
    for n in range(1, n_sites + 1):
        full[1 << (n_sites - n)] = state[n]
    return full


def brute_force_reduce(state: np.ndarray, n_sites: int, sites) -> np.ndarray:
    """Dense partial trace of a ket onto `sites` (first listed leftmost)."""
    full = embed_full_hilbert(state, n_sites)
    rho = np.outer(full, full.conj()).reshape((2,) * (2 * n_sites))
    keep = [s - 1 for s in sites]
    drop = [i for i in range(n_sites) if i not in keep]
    perm = keep + drop
    rho = np.transpose(rho, perm + [n_sites + p for p in perm])
    k = len(keep)
    rho = rho.reshape(2**k, 2 ** (n_sites - k), 2**k, 2 ** (n_sites - k))
    return np.einsum("ajbj->ab", rho)


def entrywise_reduce(rho: np.ndarray, sites) -> np.ndarray:
    """The partial trace onto `sites` written entry by entry over a density matrix."""
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


def target_overlap(rhos, target) -> np.ndarray:
    """<t|rho|t> of a (..., d, d) stack of density matrices and a d-dim ket t."""
    return np.real(np.einsum("a,...ab,b->...", np.conj(target), rhos, target))


def corner_indices(rows: int, cols: int) -> list[int]:
    """0-based row-major site indices of a grid's corners (1,1), (1,C), (R,1), (R,C)."""
    return [0, cols - 1, (rows - 1) * cols, rows * cols - 1]


def quarter_period_ket(*lengths: int) -> np.ndarray:
    """The state reached at T/4 from the first site, as a k-qubit ket (first
    readout site leftmost): (|10> + p(L)|01>)/sqrt(2) on the ends of a chain
    of length L, (|1000> + p(C)|0100> + p(R)|0010> + p(R)p(C)|0001>)/2 on the
    corners of an R x C grid, with p(L) = +i for odd L and -i for even L."""
    p = [1j if length % 2 else -1j for length in lengths]
    amps = [1, p[0]] if len(lengths) == 1 else [1, p[1], p[0], p[0] * p[1]]
    ket = np.zeros(2 ** len(amps), dtype=complex)
    for i, amp in enumerate(amps):
        ket[1 << (len(amps) - 1 - i)] = amp
    return ket / np.linalg.norm(ket)


def lindblad_superoperator(H_site: np.ndarray, deco) -> np.ndarray:
    """Dense Liouvillian on the (D+1)-dim vacuum-plus-sites space.

    `deco` carries `t1` and `t_phi` (None for a channel that is off): decay
    L = |0><n| at rate 1/t1 and dephasing L = diag(-1, .., +1 at n, .., -1)
    at rate 1/(2 t_phi), for every site n.
    """
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
    """rho(t) from rho0 by the exponential of the dense Liouvillian."""
    M = lindblad_superoperator(H_site, deco)
    return (scipy.linalg.expm(M * t) @ rho0.reshape(-1)).reshape(rho0.shape)


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


def simulate_qpt(H, t_end, deco=None, source=1, target=None):
    """Tomograph the source-to-target transfer channel of the site block H.

    Prepares {|down>, |up>, |+>, |+i>} on the source qubit as vacuum
    superpositions, evolves each to t_end with a dense propagator
    (expm(-i H t) when `deco` is None, else `expm_evolve`), reduces to the
    target qubit (default: the last site) and inverts for chi.  H and
    t_end share units (rad/s and s, or units of J).  Returns
    (ProcessMatrix, fidelity against the identity process).
    """
    N = H.shape[0]
    if target is None:
        target = N
    if not (1 <= source <= N and 1 <= target <= N):
        raise ValueError("source/target out of range")
    fiducials = [a * vacuum_state(N) + b * excitation_state(N, source) for a, b in qpt_fiducials()]
    if deco is None:
        U = np.eye(N + 1, dtype=complex)
        U[1:, 1:] = scipy.linalg.expm(-1j * H * t_end)
        finals = [np.outer(U @ psi, (U @ psi).conj()) for psi in fiducials]
    else:
        finals = [expm_evolve(H, np.outer(psi, psi.conj()), t_end, deco) for psi in fiducials]
    pm = process_matrix([entrywise_reduce(rho, (target,)) for rho in finals])
    return pm, pm.fidelity()
