"""Closed and open dynamics in the vacuum-plus-one-excitation subspace.

States live in dimension D + 1 where D is the site count: index 0 is the
vacuum (all qubits down) and index n >= 1 is the single excitation on
site n.  Excitation-conserving Hamiltonians act on the site block only,
so closed evolution reads every amplitude off e^{-iHt} in the eigenbasis
of the D x D block and leaves the vacuum amplitude untouched.

Open dynamics solves the master equation

    drho/dt = -i [H, rho] + sum_n (1/T1) D[|0><n|] rho
                          + sum_n (1/(2 Tphi)) D[Z_n] rho

with D[L] rho = L rho L+ - {L+ L, rho}/2 and Z_n the qubit-n parity
operator (diagonal, +1 on site n, -1 elsewhere including vacuum).  Per
site this reproduces the usual rates: populations relax at 1/T1 and
single-qubit coherences dephase at 1/Tphi on top of the 1/(2 T1)
relaxation contribution.

With gamma1 = 1/T1 and gamma_phi = 1/(2 Tphi) the equation splits into
three exactly solvable parts:

    rho_S0(t) = exp(-(gamma1/2 + 2 gamma_phi) t) U(t) rho_S0(0)
    rho_S'    = -i [H, rho_S] - gamma1 rho_S - 4 gamma_phi (rho_S - diag rho_S)
    rho_00    = tr rho(0) - tr rho_S

The vacuum coherences are one closed propagation of rho0[1:, 0] under the
whole stack; when rho0 has none they stay zero and no H is diagonalized.
T1 enters the site block only as the scalar e^{-gamma1 t}, so the block
is propagated under G_phi (the commutator and dephasing) once per distinct
Tphi and scaled per T1.

The site block is propagated in real coordinates.  H is real symmetric,
so with rho_S = X + iY (X real symmetric, Y real antisymmetric) the
equation reads X' = [H, Y] - Gamma o X and Y' = -[H, X] - Gamma o Y.  In
the orthonormal coordinates x_ii, sqrt(2) x_ij and sqrt(2) y_ij (i < j)
the commutator is a real skew D^2 x D^2 matrix and dephasing is diagonal.
Noise-free chains and grids commute with the reversal of all site indices,
bit for bit (Christandl et al., PRL 92, 187902, 2004).  When every H in a
stack equals H[::-1, ::-1], the coordinates split into reversal-even and
reversal-odd blocks of ceil(D^2/2) and floor(D^2/2), which evolve on their
own.  The generator is assembled from per-size index maps, linear in the
entries of H, with no D^2 x D^2 basis.

`evolve_lindblad` takes a stack of site blocks and a sequence of configs,
so a whole decoherence scan is one call.  Steps within a few ulps of the
end time count as one length, and consecutive steps of one length form a
run.  Marked times do not split a run: `_open_parts` takes a sorted grid
and {row: time} marks, propagates the grid as if unmarked, and branches
each marked state off it from the last grid time at or before its own,
with one step map of that offset, into its row.  The `domechain evolve`
grid, a linspace with T/4 and T/2 marked, is so one uniform run and two
branches: 3 step maps per mirror block, where placing the marks in the
grid splits it into 5 step lengths.  One work loop, `_site_blocks`, walks
every (site block, mirror block, Tphi) unit, every run and every marked
branch, and subtracts the dephasing for both the dense and the sparse
path; a path only builds the filler of a run.  Up to
DENSE_GENERATOR_MAX_SITES sites the step maps of a chunk of units, branch
offsets included, come from one stacked Pade scaling-and-squaring call
(`_expm`), and a run is filled by doubling: with k states known, the next
k are those times the k-th power of the step map, squared once per round,
where squaring is cheaper than stepping.  Larger systems apply each
unit's sparse generator with scipy's expm_multiply, one seeded call per
run and per branch.

Open results stay in parts: the site block, the vacuum column (None when
rho0 has none) and the vacuum population.  The site block comes off the
real coordinates in one product with a cached entry matrix (CSR past
DENSE_GENERATOR_MAX_SITES), e^{-gamma1 t} scaling the coordinates on the
way, and its T1-free trace is the coordinates times a cached vector.
`_open_parts` checks every state on the parts, and raises
NumericalBreakdownError when one fails: that trace against its start and
the whole trace, each to 1e-6, and positivity by one stacked
Cholesky factorization of the D x D Schur complement of the vacuum entry
of rho + 1e-6 I; eigvalsh of the whole state decides only when that
fails.  The CLI and the decoherence scans read the site block;
`evolve_lindblad` alone assembles the (D+1) x (D+1) density matrices.
Both propagators take one site block or an (M, D, D) stack, check its
symmetry at once and return plain arrays led by an M axis for a stack:
`evolve_closed` the (T, D+1) states, `evolve_lindblad` the density
matrices.  The one closed propagator, `_amplitudes` (one stacked `eigh`,
the phases e^{-i w t} V^T psi, one real GEMM), serves `evolve_closed`, the
sweeps in `noise`, the QPT column of an open `evolve` and the vacuum
coherences above.  A closed `evolve` makes one call per distinct axis of
its chain or grid, so a grid's D x D matrix is never built.

scipy is imported only by the sparse branch of the open propagator, on its
first call, so closed evolution and open evolution up to
DENSE_GENERATOR_MAX_SITES sites run on numpy alone, and only that branch
touches numpy's global RNG (see `_sparse_runs`).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecoherenceConfig",
    "NumericalBreakdownError",
    "site_state",
    "evolve_closed",
    "evolve_lindblad",
]

# Largest site count whose site-block generator is exponentiated densely.
# The dense cost grows as D^6 but only logarithmically with the coupling
# scale; expm_multiply grows as D^2 times the coupling scale.  Timed on the
# `domechain evolve` default grid (402 points, 5 MHz, T1 = 30 us, Tphi = 5 us,
# one BLAS thread) when it cost 5 dense exponentials per mirror block; with
# T/4 and T/2 branched off one uniform run it costs 3, and the crossovers
# were not timed again.  With 5, for the m = 2 chain dense was 8x faster
# than sparse at D = 24, 1.8x at 32 and 1.1x at 36, and 1.3x slower at 40;
# for grids 2.6x faster at 5x6 and 1.3x at 6x6, and 1.1x slower at 6x7.
# The stiff m = 102 chain ran 250-700x faster dense at D = 16-24.  Peak
# memory at D = 36 was 130-160 MB dense against 90 MB sparse; the sparse
# path is what lets large grids run at all.
DENSE_GENERATOR_MAX_SITES = 36

# Matrix entries per stacked LAPACK call: site matrices per `eigh` in the
# disorder sweeps, generator entries per dense `expm` of the open propagator.
MAX_CHUNK_ENTRIES = 1 << 20

# A run of L equal dense steps with an n x n map (n = ceil(D^2/2) when the
# block is mirror-split, D^2 otherwise) is filled by doubling when its
# log2(L) squarings, n^3 multiply-adds each, cost at most this many
# multiply-adds per step; otherwise it takes one matrix-vector product per
# step.  Timed on one BLAS thread with both mirror blocks in one stack,
# runs of 99 and 397 steps: doubling took 0.1-0.6x the time of stepping up
# to D = 12, 0.9x at D = 14 and 2x at D = 16 on 99 steps, and 0.66x at
# D = 20 and 0.9x at D = 24 on 397.  This bound doubles up to D = 15 on 99
# steps and up to D = 18 on 397.
DOUBLING_MACS_PER_STEP = 1 << 17


class NumericalBreakdownError(RuntimeError):
    """An open evolution failed its trace, drift or positivity check."""


def site_state(n_sites: int, site: int) -> np.ndarray:
    """Single excitation on 1-based site index."""
    if not 1 <= site <= n_sites:
        raise ValueError("site index out of range")
    psi = np.zeros(n_sites + 1, dtype=complex)
    psi[site] = 1.0
    return psi


@dataclass(frozen=True)
class DecoherenceConfig:
    """Uniform per-site relaxation and pure-dephasing times in seconds.

    None disables the corresponding channel.
    """

    t1: float | None = None
    t_phi: float | None = None

    def __post_init__(self) -> None:
        for name, val in (("t1", self.t1), ("t_phi", self.t_phi)):
            if val is not None and not val > 0:
                raise ValueError(f"{name} must be positive when given")

    @property
    def gamma1(self) -> float:
        return 0.0 if self.t1 is None else 1.0 / self.t1

    @property
    def gamma_phi(self) -> float:
        return 0.0 if self.t_phi is None else 0.5 / self.t_phi

    @property
    def vacuum_coherence_rate(self) -> float:
        """Decay rate gamma1/2 + 2 gamma_phi of every coherence with the vacuum."""
        return 0.5 * self.gamma1 + 2.0 * self.gamma_phi


def _check_symmetric(H: np.ndarray) -> np.ndarray:
    """H as floats: one finite symmetric D x D site block or an (M, D, D) stack, checked at once."""
    H = np.asarray(H, dtype=float)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2]:
        raise ValueError("H must be a square matrix or a stack of them")
    peak = np.abs(H).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(peak).all():  # NaN or inf fails every comparison below
        raise ValueError("H must be finite")
    scale = np.maximum(1.0, peak)
    if (np.abs(H - H.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0) > 1e-10 * scale).any():
        raise ValueError("H must be symmetric")
    return H


def _amplitudes(H: np.ndarray, source: np.ndarray, times: np.ndarray, rows=None) -> np.ndarray:
    """(M, D, T) site amplitudes exp(-i H_m t) source of an (M, D, D) stack,
    or (M, r, T) at the r 0-based sites `rows` only.

    source holds D complex site amplitudes.  One stacked `eigh` gives
    H = V diag(w) V^T with V real, so V^T source is one real GEMM on the
    (re, im) pairs of source, and V (e^{-i w t} V^T source) one real GEMM on
    those of the phases, on V's `rows` alone when given.  The phases are
    cos(w t) - i sin(w t) of the real angles, cheaper than the complex exp
    and bit-equal to it with numpy 2.4 on AVX-512; sin goes in place into
    the angle buffer.  Each matrix of a stack gets the bits it gets alone,
    and each named row the bits of the full product.
    """
    w, V = np.linalg.eigh(H)
    pairs = np.ascontiguousarray(source, dtype=complex).view(float).reshape(-1, 2)
    coeffs = (V.swapaxes(-1, -2) @ pairs).view(complex)
    angles = w[..., None] * times
    phases = np.empty(angles.shape, complex)
    np.cos(angles, out=phases.real)
    np.negative(np.sin(angles, out=angles), out=phases.imag)
    del angles  # lowers the peak: the GEMM allocates its output next
    phases *= coeffs
    n = V.shape[-1] if rows is None else len(rows)
    if rows is not None:  # one row twice: numpy hands a one-row product to GEMV, with other bits
        V = np.take(V, [*rows, *rows][: max(2, n)], axis=-2)
    return (V @ phases.view(float)).view(complex)[..., :n, :]


def evolve_closed(H: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The (T, D+1) states psi0 reaches under the site block H at `times`,
    or (M, T, D+1) under an (M, D, D) stack.

    H is in physical units (rad/s when times are in seconds); psi0 has
    D + 1 entries with index 0 the vacuum amplitude, which no H changes.
    Times must be finite; no times give T = 0 states.
    """
    H = _check_symmetric(H)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.isfinite(times).all():
        raise ValueError("times must be finite values")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (H.shape[-1] + 1,):
        raise ValueError("psi0 must have length D + 1 (vacuum slot first)")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    amps = _amplitudes(H.reshape(-1, *H.shape[-2:]), psi0[1:], times)
    states = np.empty((amps.shape[0], times.size, psi0.size), dtype=complex)  # C order
    states[..., 0] = psi0[0]
    states[..., 1:] = amps.swapaxes(1, 2)
    return states if H.ndim == 3 else states[0]


def _merge_steps(steps: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group index of each step and the mean length of each group.

    Sorted step lengths that differ from their neighbour by at most tol
    share a group.  Taking the mean keeps the summed time of a group's
    steps equal to the sum of their exact lengths.
    """
    order = np.argsort(steps, kind="stable")
    ranked = steps[order]
    group = np.empty(steps.size, dtype=np.intp)
    group[order[0]] = 0
    group[order[1:]] = np.cumsum(ranked[1:] - ranked[:-1] > tol)
    return group, np.bincount(group, weights=steps) / np.bincount(group)


def _step_runs(steps: np.ndarray, t_end: float) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Step lengths to propagate by, and the runs of steps that share one.

    Each run is (start, stop, slot): steps start..stop-1 all advance by
    lengths[slot], or stay put when slot is -1.  The steps of a linspace
    grid differ in their last bits; steps within a few ulps of the end time
    share one length (see _merge_steps).
    """
    tol = 4.0 * np.spacing(t_end)
    body = steps[1:]
    if steps[0] == 0.0 and body.size and body.min() > tol and body.max() - body.min() <= tol:
        # A uniform grid: one group, its mean summed in index order as bincount sums it.
        return np.cumsum(body)[-1:] / body.size, [(0, 1, -1), (1, steps.size, 0)]
    group, lengths = _merge_steps(steps, tol)
    # Group 0 holds the zero steps (steps[0] is one); it needs no length
    # unless steps within the tolerance of 0 joined it.
    skip = int(lengths[0] == 0.0)
    slot = np.where(steps > 0.0, group - skip, -1)
    bounds = (np.flatnonzero(slot[1:] != slot[:-1]) + 1).tolist()
    starts = [0, *bounds]
    return lengths[skip:], list(zip(starts, [*bounds, steps.size], slot[starts].tolist()))


def _fill_run(block: np.ndarray, A: np.ndarray, prev: np.ndarray) -> None:
    """block[:, i] = A^(i+1) prev for every row i, per leading index.

    block is (P, L, n), A (P, n, n) and prev (P, n).  With A^k known and the
    first i >= k rows filled, the next k rows are block[:, i-k : i] @
    (A^k)^T.  When doubling pays (see DOUBLING_MACS_PER_STEP), A^k is
    squared after every such product, so a run of L rows takes about
    2 log2(L) products; otherwise k stays 1.
    """
    np.matmul(A, prev[..., None], out=block[:, :1].swapaxes(1, 2))
    L, n = block.shape[1], A.shape[-1]
    double = n**3 * L.bit_length() <= DOUBLING_MACS_PER_STEP * L
    i, k, power = 1, 1, A
    while i < L:
        m = min(k, L - i)
        np.matmul(block[:, i - k : i - k + m], power.swapaxes(1, 2), out=block[:, i : i + m])
        i += m
        if double and i < L:
            power = power @ power
            k *= 2


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, read-only: cached results are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _coordinates(D: int, split: bool) -> tuple[np.ndarray, ...]:
    """Real coordinates of a Hermitian D x D site block, in B = 1 or 2 blocks.

    rho_S = X + iY has the orthonormal coordinates x_ii, sqrt(2) x_ij and
    sqrt(2) y_ij (i < j).  Site reversal i -> D-1-i sends x_ij to
    x_{D-1-j,D-1-i} and y_ij to -y_{D-1-j,D-1-i}.  With `split` each orbit
    {u, v} of that map gives (r_u + s_u r_v)/sqrt(2) to the even block and
    (r_u - s_u r_v)/sqrt(2) to the odd one (s_u the sign of the map), and a
    fixed coordinate joins the block of its own sign: ceil(D^2/2) and
    floor(D^2/2) coordinates.  Without it all D^2 form one block.  Blocks
    are padded to n = ceil(D^2/2) or D^2 coordinates; a padding coordinate
    is coupled to nothing and stays 0.

    Returns (dephase, index, weight): the (B, n) dephasing factors (0 on
    x_ii and padding, 4 elsewhere), and (B, D^2, 2) arrays that give, for
    the real (last index 0) and the imaginary part (1) of every row-major
    entry e, the flat index b n + c of its coordinate c in block b and its
    weight: Re rho_e = sum_b weight[b, e, 0] r[index[b, e, 0]].
    """
    size = D * D
    u = np.arange(size)
    upper, strict = np.triu_indices(D), np.triu_indices(D, 1)
    nx = upper[0].size
    xid, yid = np.zeros((D, D), dtype=np.intp), np.zeros((D, D), dtype=np.intp)
    xid[upper] = xid[upper[::-1]] = u[:nx]
    yid[strict] = yid[strict[::-1]] = u[nx:]
    first, second = np.r_[upper[0], strict[0]], np.r_[upper[1], strict[1]]
    if split:
        sign = np.where(u < nx, 1.0, -1.0)
        mirror = (D - 1 - second, D - 1 - first)
        partner = np.where(u < nx, xid[mirror], yid[mirror])
        parities = (1.0, -1.0)
    else:
        sign, partner, parities = np.ones(size), u, (1.0,)
    rep, fixed = np.minimum(u, partner), partner == u
    n = (size + 1) // 2 if split else size
    dephase = np.zeros((len(parities), n))
    col, weight = np.empty((len(parities), size), dtype=np.intp), np.empty((len(parities), size))
    for b, parity in enumerate(parities):
        member = ~fixed | (sign == parity)
        owner = member & (rep == u)
        col[b] = b * n + (np.cumsum(owner) - 1)[rep]
        norm = np.where(fixed, 1.0, np.sqrt(0.5))
        weight[b] = member * np.where(rep == u, 1.0, parity * sign) * norm
        dephase[b, : owner.sum()] = np.where(first == second, 0.0, 4.0)[owner]
    i, j = np.divmod(u, D)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    parts = np.stack([xid[lo, hi], yid[lo, hi]], axis=1)
    scale = np.stack([np.where(i == j, 1.0, np.sqrt(0.5)), np.sign(j - i) * np.sqrt(0.5)], axis=1)
    return _frozen(dephase, col[:, parts], weight[:, parts] * scale)


@functools.lru_cache(maxsize=64)
def _generator_terms(D: int, split: bool, support: bytes) -> tuple:
    """The commutator part of the real generator, as a linear function of H.

    `support` marks the nonzero entries of H.  On row-major vecs the
    commutator is -i C with C = H kron 1 - 1 kron H, which has H_ik at
    ((i, j), (k, j)) and -H_lj at ((i, j), (i, l)).  With W = W_r + i W_i
    the entry maps of `_coordinates`, the block generator W^H (-i C) W is
    real and equals S - S^T with S = W_r^T C W_i; the terms between mirror
    blocks vanish and are not formed.  Returns (index p n + q into its
    (n, n) block, row-major index into H, coefficient), with repeated (block
    entry, H entry) pairs merged, sorted by block, and each block's (start,
    stop) in them.
    """
    dephase, index, weight = _coordinates(D, split)
    B, n = dephase.shape
    row, col = np.divmod(np.flatnonzero(np.frombuffer(support, dtype=bool)), D)
    j = np.arange(D)
    e = np.concatenate([row[:, None] * D + j, j * D + col[:, None]]).ravel()
    f = np.concatenate([col[:, None] * D + j, j * D + row[:, None]]).ravel()
    h = np.repeat(np.r_[row, row] * D + np.r_[col, col], D)
    s = np.repeat([1.0, -1.0], row.size * D)
    coef = (s * weight[:, e, 0] * weight[:, f, 1]).ravel()
    keep = coef != 0.0
    (blk, p), q = np.divmod(index[:, e, 0].ravel()[keep], n), index[:, f, 1].ravel()[keep] % n
    h, coef = np.tile(h, B)[keep], coef[keep]
    # S at b n^2 + p n + q and -S^T at b n^2 + q n + p.
    key, inverse = np.unique(
        np.r_[blk * n * n + p * n + q, blk * n * n + q * n + p] * (D * D) + np.r_[h, h],
        return_inverse=True,
    )
    flat = key // (D * D)
    bounds = flat.searchsorted(np.arange(B + 1) * (n * n)).tolist()
    terms = _frozen(flat % (n * n), key % (D * D), np.bincount(inverse, np.r_[coef, -coef]))
    return *terms, tuple(zip(bounds, bounds[1:]))


# Pade degrees m below 13, each with the 1-norm up to which it is accurate
# to unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 2005) and its
# coefficients b_0..b_m as rows (b_m, b_{m-2}, ..., b_1) and (b_{m-1}, ...,
# b_0): U = A (row 0 . (A^(m-1), ..., A^2, I)) and V = row 1 . (same).
# Degree 13 is evaluated as U = A (A6 R0 + R1), V = A6 R2 + R3, with R0..R3
# the combinations of (A6, A4, A2, I) in _PADE13_TERMS.
_PADE = {
    m: (theta, np.array([b[::-2], b[-2::-2]]))
    for m, theta, b in (
        (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
        (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
        (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                                   1512.0, 56.0, 1.0)),
        (9, 2.097847961257068, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                                30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    )
}
_PADE13_TERMS = np.array([
    [1.0, 16380.0, 40840800.0, 0.0],
    [33522128640.0, 10559470521600.0, 1187353796428800.0, 32382376266240000.0],
    [182.0, 960960.0, 1323241920.0, 0.0],
    [670442572800.0, 129060195264000.0, 7771770303897600.0, 64764752532480000.0],
])
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of a (P, n, n) stack of real matrices by scaling and squaring.

    The lowest Pade degree of 3, 5, 7 and 9 whose bound covers the largest
    1-norm in the stack is taken unscaled.  Beyond that, degree 13 with the
    scaling of Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31, 2009): each
    matrix is halved s times, with s set by max(||A^6||^(1/6),
    ||A^8||^(1/8)) <= 5.37, and squared back.  One batched evaluation serves
    the stack.  scipy.linalg.expm is not used: on real input its degree-13
    approximant loses up to a few hundred ulps (scipy 1.17: a plane rotation
    by 4 rad is 3.7e-14 off, 1.1e-16 here), and squaring amplifies that
    (4.3e-12 at 500 rad).
    """
    P, n = A.shape[:2]
    norms = _onenorm(A)
    top = norms.max(initial=0.0)
    squarings = None
    degree = next((m for m, (theta, _) in _PADE.items() if top <= theta), 13)
    if degree < 13:
        terms = _PADE[degree][1]
        half = degree // 2
        powers = np.empty((half, P, n, n))  # A^(m-1), ..., A^4, A^2
        np.matmul(A, A, out=powers[-1])
        for i in range(half - 2, -1, -1):
            np.matmul(powers[i + 1], powers[-1], out=powers[i])
        r = (terms[:, :-1] @ powers.reshape(half, -1)).reshape(2, P, n, n)
        r.reshape(2, P, n * n)[:, :, :: n + 1] += terms[:, -1:, None]
        U, V = A @ r[0], r[1]
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed powers are redone below
            A2 = A @ A
            A4 = A2 @ A2
            A6 = A4 @ A2
            if top > _THETA13:
                alpha = np.maximum(_onenorm(A6) ** (1 / 6), _onenorm(A4 @ A4) ** (1 / 8))
                # An overflowed power leaves alpha inf or NaN: the 1-norm, which also bounds
                # alpha, sets the scaling, and the powers are formed again from the scaled A.
                squarings = np.ceil(np.log2(np.maximum(np.fmin(alpha, norms), _THETA13) / _THETA13))
                squarings = squarings.astype(int)
                c = np.ldexp(1.0, -squarings)[:, None, None]
                A, A2, A4, A6 = A * c, A2 * c**2, A4 * c**4, A6 * c**6
                if not np.isfinite(alpha).all():  # scaling by 2^-s is exact: the rest keep their bits
                    A2 = A @ A
                    A4 = A2 @ A2
                    A6 = A4 @ A2
        powers = np.stack([A6, A4, A2])
        r = (_PADE13_TERMS[:, :3] @ powers.reshape(3, -1)).reshape(4, P, n, n)
        r.reshape(4, P, n * n)[:, :, :: n + 1] += _PADE13_TERMS[:, 3, None, None]
        U = A @ (A6 @ r[0] + r[1])
        V = A6 @ r[2] + r[3]
    # (V - U)^-1 (V + U) = 1 + 2 (V - U)^-1 U: the correction to 1 carries
    # the rounding, not the whole map.
    E = 2.0 * np.linalg.solve(V - U, U)
    E.reshape(P, n * n)[:, :: n + 1] += 1.0
    for k in range(1, 0 if squarings is None else squarings.max() + 1):
        if squarings.min() >= k:
            E = E @ E
        else:
            more = squarings >= k
            E[more] = E[more] @ E[more]
    return E


def _onenorm(A: np.ndarray) -> np.ndarray:
    return np.abs(A).sum(axis=-2).max(axis=-1)


def _site_blocks(
    H: np.ndarray,
    split: bool,
    gamma_phi: np.ndarray,
    sites0: np.ndarray,
    steps: np.ndarray,
    t_end: float,
    branches: list[tuple[int, int, float]],
) -> np.ndarray:
    """(M, F, T, B n) real coordinates of the site block without relaxation.

    sites0 is the Hermitian site block of rho0, flattened.  Unit (m, b, f)
    evolves mirror block b of it under -i [H_m, .] minus 4 gamma_phi[f] on
    the coherences between sites, in the real coordinates of
    `_coordinates`, split by mirror parity when `split` (every H_m equals
    H_m[::-1, ::-1]).  This is the one loop over units and runs of equal
    steps.  Each branch (row, source, offset) gives `row`, once the runs
    are filled, the state of row `source` advanced by `offset`, with one
    step map of that length per distinct offset; every branch leaves the
    filled run, so none starts from a row another one replaced.  Each
    chunk of units gets its generator entries here and a run filler from
    its path: `_dense_runs` for as many units as keep the step maps within
    MAX_CHUNK_ENTRIES, or above DENSE_GENERATOR_MAX_SITES sites
    `_sparse_runs` for one; a branch is filled as a run of one step.
    """
    M, D = H.shape[:2]
    dephase, index, weight = _coordinates(D, split)
    entry, h, coef, cuts = _generator_terms(D, split, (H != 0).any(axis=0).tobytes())
    (B, n), F, T = dephase.shape, gamma_phi.size, steps.size
    values = H.reshape(M, -1)[:, h] * coef
    start = np.bincount(index.ravel(), (weight * sites0.view(float).reshape(-1, 2)).ravel(),
                        minlength=B * n).reshape(B, n)
    lengths, runs = _step_runs(steps, t_end)
    offsets = sorted({dt for _, _, dt in branches if dt > 0.0})
    slot = {dt: lengths.size + k for k, dt in enumerate(offsets)}
    lengths = np.concatenate((lengths, offsets))
    if D <= DENSE_GENERATOR_MAX_SITES:
        per_call, filler = max(1, MAX_CHUNK_ENTRIES // (max(1, lengths.size) * n * n)), _dense_runs
    else:
        per_call, filler = 1, _sparse_runs
    # The terms are sorted by block, so each block's entries and values are one slice.
    entries = [entry[i:j] for i, j in cuts]
    vals = [[values[k, i:j] for i, j in cuts] for k in range(M)]
    coords = np.empty((M, F, T, B, n))
    for first in range(0, M * B * F, per_call):
        ks, bs, fs = np.unravel_index(np.arange(first, min(first + per_call, M * B * F)), (M, B, F))
        # Each unit's block slice of the commutator entries, at flat indices of
        # a (P, n, n) stack, and its dephasing, subtracted on the diagonal.
        units = bs.tolist()
        at = np.concatenate([entries[b] for b in units])
        at += (np.arange(len(units)) * (n * n)).repeat([entries[b].size for b in units])
        fill = filler(at, np.concatenate([vals[k][b] for k, b in zip(ks.tolist(), units)]),
                      -gamma_phi[fs, None] * dephase[bs], lengths)
        traj, prev = np.empty((len(ks), T, n)), start[bs]
        for i, stop, g in runs:
            if g < 0:
                traj[:, i:stop] = prev[:, None]
            else:
                fill(traj[:, i:stop], g, prev)
            prev = traj[:, stop - 1]
        branched = np.empty((len(ks), len(branches), n))
        for k, (_, j, dt) in enumerate(branches):
            if dt > 0.0:
                fill(branched[:, k : k + 1], slot[dt], traj[:, j])
            else:  # a zero offset copies its source row
                branched[:, k] = traj[:, j]
        traj[:, [row for row, _, _ in branches]] = branched
        coords[ks, fs, :, bs] = traj
    return coords.reshape(M, F, T, B * n)


@functools.lru_cache(maxsize=64)
def _entry_maps(D: int, split: bool, sparse: bool) -> tuple:
    """The (B n, 2 D^2) matrix that takes the coordinates of `_coordinates`
    to the (Re, Im) pairs of the row-major site block, and the (B n,) vector
    that takes them to its trace.

    Each column has at most B nonzeros, so the dense product does about
    D^2 / 2 times the work that matters; when `sparse` (past
    DENSE_GENERATOR_MAX_SITES, where the sparse path has loaded scipy) the
    matrix is CSR instead.
    """
    dephase, index, weight = _coordinates(D, split)
    rows, vals = index.ravel(), weight.ravel()
    cols = np.tile(np.arange(2 * D * D), dephase.shape[0])
    # Re rho_ii is column 2 (D + 1) i.
    trace = np.bincount(rows, vals * (cols % (2 * D + 2) == 0), minlength=dephase.size)
    if sparse:
        import scipy.sparse

        entries = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(dephase.size, 2 * D * D))
        _frozen(entries.data, entries.indices, entries.indptr)
    else:  # a (row, column) pair repeats only with weight 0, so summing is exact
        flat = np.bincount(rows * (2 * D * D) + cols, vals, minlength=dephase.size * 2 * D * D)
        entries = flat.reshape(dephase.size, 2 * D * D)
        _frozen(entries)
    return entries, *_frozen(trace)


def _dense_runs(at: np.ndarray, values: np.ndarray, diagonal: np.ndarray, lengths: np.ndarray):
    """Run filler of a chunk of P units: `values` at the flat indices `at`
    of a (P, n, n) stack plus `diagonal` (P, n) is its generator, one
    stacked _expm call gives every step map, and `_fill_run` fills a run."""
    P, n = diagonal.shape
    G = np.bincount(at, values, minlength=P * n * n).astype(float, copy=False).reshape(P, n, n)
    G.reshape(P, -1)[:, :: n + 1] += diagonal
    maps = _expm((G[:, None] * lengths[:, None, None]).reshape(-1, n, n)).reshape(P, -1, n, n)
    return lambda block, g, prev: _fill_run(block, maps[:, g], prev)


def _sparse_runs(at: np.ndarray, values: np.ndarray, diagonal: np.ndarray, lengths: np.ndarray):
    """Run filler of one unit, with the generator entries of `_dense_runs`.

    The CSR generator is built from those triplets, never as an n x n
    array, which keeps large grids inside memory.  A run of L steps of
    length dt is one expm_multiply call.  Its onenormest draws from numpy's
    global RNG, so each call is seeded, and the caller's state restored,
    to make every run a function of its inputs.  The dense branch draws
    nothing and skips that save and restore (66 us a pair).
    """
    import scipy.sparse
    from scipy.sparse.linalg import expm_multiply

    n = diagonal.shape[-1]
    G = scipy.sparse.csr_matrix((values, np.divmod(at, n)), shape=(n, n)) + scipy.sparse.diags(diagonal[0])

    def fill(block: np.ndarray, g: int, prev: np.ndarray) -> None:
        L, dt = block.shape[1], lengths[g]
        state = np.random.get_state()
        try:
            np.random.seed(0)
            block[0] = (expm_multiply(G * dt, prev[0]) if L == 1 else
                        expm_multiply(G, prev[0], start=dt, stop=L * dt, num=L, endpoint=True))
        finally:
            np.random.set_state(state)

    return fill


_TRACE_DRIFT = "open evolution drifted in trace beyond 1e-6"


def _evolve_open(
    H: np.ndarray,
    rho0: np.ndarray,
    times: np.ndarray,
    decos: tuple[DecoherenceConfig, ...],
    marks: dict[int, float],
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Exact open evolution of a Hermitian (D+1) x (D+1) density matrix, in parts.

    H is an (M, D, D) stack of site blocks.  Returns, per site block, config
    and time, the (M, P, T, D, D) site block rho_S, the (M, P, T, D) vacuum
    column rho[1:, 0] or None when rho0 has none, and the (M, P, T) vacuum
    population tr rho0 - tr rho_S.  Each {row: time} of `marks` places that
    time in that row: the run over `times` is propagated as if unmarked, and
    the marked state branches off it from the last time at or before its
    own.  The site block is propagated once per (H, distinct gamma_phi),
    checked to keep its trace, and scaled by e^{-gamma1 t} per config on the
    way from its coordinates; the vacuum column is evaluated at all times
    at once.
    """
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    steps = np.zeros_like(times)  # steps[0] = times[0] - 0
    np.subtract(times[1:], times[:-1], out=steps[1:])
    if (steps < 0).any():
        raise ValueError("times must be non-decreasing")
    if not all(0.0 <= t < np.inf for t in marks.values()):
        raise ValueError("marked times must be finite and not before 0")
    source = [int(times.searchsorted(t, "right")) - 1 for t in marks.values()]
    branches = [(row, j, t - times[j]) for (row, t), j in zip(marks.items(), source)]
    M, D = H.shape[:2]
    dephasing: dict[float, int] = {}  # distinct gamma_phi -> its block index
    phi_of = [dephasing.setdefault(d.gamma_phi, len(dephasing)) for d in decos]
    split = bool((H == H[:, ::-1, ::-1]).all())
    coords = _site_blocks(H, split, np.array(list(dephasing)), rho0[1:, 1:].reshape(D * D),
                          steps, times[-1], branches)
    entries, trace = _entry_maps(D, split, D > DENSE_GENERATOR_MAX_SITES)
    # The commutator and dephasing conserve the trace of the site block, so
    # without T1 it stays at its start; this is the check that can fail.
    free = coords @ trace
    if not (np.abs(free - np.einsum("ii->", rho0[1:, 1:]).real) <= 1e-6).all():
        raise NumericalBreakdownError(_TRACE_DRIFT)
    if marks:  # relaxation and the vacuum column take the marked times
        times = times.copy()
        times[list(marks)] = list(marks.values())
    rates = np.array([(d.gamma1, d.vacuum_coherence_rate) for d in decos]).T
    relax, decay = np.exp(-rates[..., None] * times)
    sites = np.empty((M, len(decos), times.size, D, D), dtype=complex)
    parts = sites.view(float).reshape(M, len(decos), times.size, 2 * D * D)
    for p, f in enumerate(phi_of):
        scaled = (coords[:, f] * relax[p, :, None]).reshape(-1, coords.shape[-1])
        parts[:, p] = (scaled @ entries).reshape(M, times.size, -1)
    # Vacuum coherences that start at zero stay zero: no H is diagonalized.
    col = None
    if rho0[1:, 0].any():
        cols = _amplitudes(H, rho0[1:, 0], times).swapaxes(1, 2)  # (M, T, D)
        col = decay[..., None] * cols[:, None]
    return sites, col, np.einsum("ii->", rho0) - free[:, phi_of] * relax


def _states(sites: np.ndarray, col: np.ndarray | None, rho00: np.ndarray) -> np.ndarray:
    """The (..., D+1, D+1) density matrices of `_evolve_open`'s parts."""
    D = sites.shape[-1]
    out = np.empty((*sites.shape[:-2], D + 1, D + 1), dtype=complex)
    out[..., 1:, 1:] = sites
    out[..., 1:, 0] = 0.0 if col is None else col
    np.conjugate(out[..., 1:, 0], out=out[..., 0, 1:])
    out[..., 0, 0] = rho00
    return out


def _open_parts(
    H: np.ndarray,
    rho0: np.ndarray,
    times: np.ndarray,
    decos: Sequence[DecoherenceConfig],
    marks: dict[int, float] | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """`_evolve_open`'s parts for one site block or an (M, D, D) stack (M = 1
    for one block) and P configs, with the inputs and every state checked.
    `marks` places {row: time} on the sorted `times` (see `_evolve_open`).

    Each state must keep unit trace within 1e-6 and have no eigenvalue below
    -1e-6, or NumericalBreakdownError is raised.  rho + 1e-6 I = [[a, c^H],
    [c, S]] with a = rho_00 + 1e-6, c the vacuum column and S = rho_S +
    1e-6 I is positive definite exactly when a > 0 and the D x D Schur
    complement S - c c^H / a is (just S when c = 0): the first step of its
    Cholesky factorization, which succeeds only when no eigenvalue of rho
    is below -1e-6 (up to rounding).  When it fails, eigvalsh of the whole
    state decides.
    """
    H = _check_symmetric(H)
    stack = H if H.ndim == 3 else H[None]
    decos = tuple(decos)
    if not (stack.size and decos):
        raise ValueError("need at least one site block and one DecoherenceConfig")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not (times.size and np.isfinite(times).all()):
        raise ValueError("times must be a non-empty sequence of finite values")
    rho0 = np.asarray(rho0, dtype=complex)
    dim = stack.shape[1] + 1
    if rho0.shape != (dim, dim):
        raise ValueError("rho0 must be (D+1) x (D+1)")
    if abs(np.trace(rho0).real - 1.0) > 1e-9 or np.max(np.abs(rho0 - rho0.conj().T)) > 1e-9:
        raise ValueError("rho0 must be Hermitian with unit trace")
    sites, col, rho00 = _evolve_open(stack, rho0, times, decos, marks or {})
    if not (np.abs((rho00 + np.einsum("...ii->...", sites)).real - 1.0) <= 1e-6).all():
        raise NumericalBreakdownError(_TRACE_DRIFT)
    pivot = rho00.real + 1e-6
    positive = bool((pivot > 0).all())
    if positive:
        schur = sites + 1e-6 * np.eye(dim - 1)
        if col is not None:
            schur -= col[..., :, None] * col[..., None, :].conj() / pivot[..., None, None]
        try:
            np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            positive = False
    if not (positive or np.linalg.eigvalsh(_states(sites, col, rho00)).min() >= -1e-6):
        raise NumericalBreakdownError("open evolution lost positivity beyond 1e-6")
    return sites, col, rho00


def evolve_lindblad(
    H: np.ndarray,
    rho0: np.ndarray,
    times: np.ndarray,
    deco: DecoherenceConfig | Sequence[DecoherenceConfig],
) -> np.ndarray:
    """The density matrices rho0 reaches under H with uniform T1 and Tphi
    channels at `times`.

    rho0 is (D+1) x (D+1) on the vacuum-plus-sites basis; times are
    finite, start at 0 and do not decrease.  H is one D x D site block or
    an (M, D, D) stack, and deco one DecoherenceConfig or a sequence of P
    of them: the result has shape (T, D+1, D+1), led by an M axis for a
    stack and then a P axis for a sequence, so (M, P, T, D+1, D+1) when
    both are given.  Trace and positivity of every state are validated to
    1e-6 on its parts (see `_open_parts`), which only this function
    assembles into (D+1) x (D+1) matrices.
    """
    single = isinstance(deco, DecoherenceConfig)
    rhos = _states(*_open_parts(H, rho0, times, (deco,) if single else deco))
    if np.ndim(H) == 2:
        rhos = rhos[0]
    if single:
        rhos = rhos[..., 0, :, :, :]
    return rhos
