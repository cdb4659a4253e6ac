"""Independent output oracles for the benchmark's CLI jobs.

Nothing here imports domechain.  Each oracle rebuilds the physics from the
documented model and checks the CLI's output file:

- open dynamics: a dense (D+1)^2 Liouvillian exponentiated with
  scipy.linalg.expm (the exact propagator, not an integrator);
- closed dynamics: dense eigh or expm(-iHt) of the site block;
- disorder sweeps: the documented Philox (seed, sample) draw order,
  recomputed with batched dense eigh;
- synthesis: re-diagonalisation against the requested spectrum;
- cascades: the closed-form segment plan.

An oracle raises OracleMiss when the output disagrees, is incomplete, or
holds a NaN.  Chains are built from the dome closed forms and, as a check
on the oracle itself, required to reproduce the dome spectrum.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import scipy.linalg

POINTS_PER_PERIOD = 401
OPEN_TOL = 1e-6
MC_TOL = 1e-9
CLOSED_TOL = 1e-6


class OracleMiss(Exception):
    """The output disagrees with the oracle."""


def _require(ok, message: str) -> None:
    if not ok:
        raise OracleMiss(message)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(math.isfinite(got), f"{what}: non-finite output {got!r}")
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, oracle {want!r}")


# ---------------------------------------------------------------------------
# Physics rebuilt from the documented model


def dome_spectrum(N: int, m: int) -> np.ndarray:
    s = np.arange(1, N + 1, dtype=float)
    return s - (N + 1) / 2.0 + (s - 2.0) * (s - 1.0) * m / 2.0


def dome_chain(N: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, couplings) of the dome chain in units of J."""
    n = np.arange(1, N + 1, dtype=float)
    omegas = (n - 1.0) * (N - n) * m
    k = np.arange(1, N, dtype=float)
    couplings = 0.5 * np.sqrt((k * (N - k - 1.0) * m + k) * ((k - 1.0) * (N - k) * m + N - k))
    ev = scipy.linalg.eigh_tridiagonal(omegas, couplings, eigvals_only=True)
    spec = dome_spectrum(N, m)
    if np.max(np.abs(ev - spec)) > 1e-9 * max(1.0, np.max(np.abs(spec))):
        raise AssertionError("oracle dome chain does not reproduce the dome spectrum")
    return omegas, couplings


def chain_matrix(omegas, couplings) -> np.ndarray:
    return np.diag(omegas) + np.diag(couplings, 1) + np.diag(couplings, -1)


def dome_matrix(N: int, m: int) -> np.ndarray:
    return chain_matrix(*dome_chain(N, m))


def grid_matrix(rows: int, cols: int, m_x: int, m_y: int) -> np.ndarray:
    """Kronecker-sum site matrix, row-major site order r * cols + c."""
    return np.kron(np.eye(rows), dome_matrix(cols, m_x)) + np.kron(dome_matrix(rows, m_y), np.eye(cols))


def corners(rows: int, cols: int) -> list[int]:
    return [0, cols - 1, (rows - 1) * cols, rows * cols - 1]


def quarter_phase(length: int) -> complex:
    return 1j if length % 2 else -1j


def rate_rad(cfg: dict) -> float:
    return 2 * np.pi * cfg["rate_MHz"] * 1e6 if "rate_MHz" in cfg else 1.0


def liouvillian(H_site: np.ndarray, t1: float, tphi: float) -> np.ndarray:
    """Dense generator on column-stacked (D+1)x(D+1) density matrices.

    Jumps |vac><n| at 1/t1 and Z_n = diag(2 delta_n - 1) at 0.5/tphi.
    vec(A X B) = (B^T kron A) vec(X) for column stacking.
    """
    dim = H_site.shape[0] + 1
    H = np.zeros((dim, dim), dtype=complex)
    H[1:, 1:] = H_site
    eye = np.eye(dim)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for n in range(1, dim):
        down = np.zeros((dim, dim))
        down[0, n] = 1.0
        ldl = down.T @ down
        L += (np.kron(down, down) - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))) / t1
        z = np.diag(np.where(np.arange(dim) == n, 1.0, -1.0))
        L += (0.5 / tphi) * (np.kron(z, z) - np.eye(dim * dim))
    return L


def open_propagate(H_site, t1, tphi, t, rho0) -> np.ndarray:
    dim = rho0.shape[0]
    vec = scipy.linalg.expm(liouvillian(H_site, t1, tphi) * t) @ rho0.reshape(-1, order="F")
    return vec.reshape(dim, dim, order="F")


def pair_block(rho: np.ndarray, a: int, b: int) -> np.ndarray:
    """Two-qubit reduced state in basis |00>,|01>,|10>,|11>, site a leftmost."""
    out = np.zeros((4, 4), dtype=complex)
    idx = {0: 0, b: 1, a: 2}
    for src_i, dst_i in idx.items():
        for src_j, dst_j in idx.items():
            out[dst_i, dst_j] = rho[src_i, src_j]
    out[0, 0] = np.trace(rho) - rho[a, a] - rho[b, b]
    return out


def qubit_block(rho: np.ndarray, site: int) -> np.ndarray:
    return np.array([[np.trace(rho) - rho[site, site], rho[0, site]],
                     [rho[site, 0], rho[site, site]]])


PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))


def identity_process_fidelity(channel) -> float:
    """chi_00 of a qubit channel: sum_P Tr(P E(P)) / 8, E linear on 2x2."""
    return float(np.real(sum(np.trace(P @ channel(P)) for P in PAULIS)) / 8.0)


def open_transfer_fidelity(H_site, t1, tphi, t) -> float:
    """Process fidelity of the site-1 -> site-N transfer channel at t."""
    N = H_site.shape[0]
    M = scipy.linalg.expm(liouvillian(H_site, t1, tphi) * t)
    lift = [0, 1]  # qubit |0> -> vacuum, |1> -> excitation on site 1

    def channel(P):
        rho0 = np.zeros((N + 1, N + 1), dtype=complex)
        for i in range(2):
            for j in range(2):
                rho0[lift[i], lift[j]] = P[i, j]
        rho = (M @ rho0.reshape(-1, order="F")).reshape(N + 1, N + 1, order="F")
        return qubit_block(rho, N)

    return identity_process_fidelity(channel)


def bell_target(N: int) -> np.ndarray:
    vec = np.zeros(4, dtype=complex)
    vec[1] = quarter_phase(N) / np.sqrt(2)
    vec[2] = 1 / np.sqrt(2)
    return vec


def w_target(rows: int, cols: int) -> np.ndarray:
    pc, pr = quarter_phase(cols), quarter_phase(rows)
    return np.array([1.0, pc, pr, pr * pc]) / 2.0


# ---------------------------------------------------------------------------
# Output parsing


def _csv(data: bytes) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    _require(rows, "empty CSV output")
    return rows


def _num(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise OracleMiss(f"{what}: not a number {text!r}") from exc
    _require(math.isfinite(value), f"{what}: non-finite {text!r}")
    return value


def _json_out(data: bytes) -> dict:
    def refuse(token):
        raise OracleMiss(f"non-finite JSON value {token}")

    return json.loads(data.decode(), parse_constant=refuse)


def _sweep_rows(data: bytes, kind: str, metric: str) -> list[dict]:
    rows = _csv(data)
    for r in rows:
        _require(r["sweep_kind"] == kind and r["metric"] == metric, "wrong sweep kind/metric")
        _require(int(r["failures"]) == 0, f"{r['failures']} failed samples at m={r['m']}")
    return rows


# ---------------------------------------------------------------------------
# Oracles per command


def decoherence_scan(cfg: dict):
    """Every scan point against the dense Liouvillian exponential."""
    N, J = cfg["N"], rate_rad(cfg)
    period = 2 * np.pi / J
    want_points = {(m, "t1_us", float(v)) for m in cfg["m_values"] for v in cfg["t1_us_values"]}
    want_points |= {(m, "tphi_us", float(v)) for m in cfg["m_values"] for v in cfg["tphi_us_values"]}

    def check(data: bytes) -> None:
        rows = _sweep_rows(data, "decoherence", cfg["metric"])
        got = {(int(r["m"]), r["axis_name"], _num(r["axis_value"], "axis")) for r in rows}
        _require(got == want_points, f"scan points {sorted(got)} != {sorted(want_points)}")
        for r in rows:
            m = int(r["m"])
            if r["axis_name"] == "t1_us":
                t1, tphi = _num(r["axis_value"], "t1"), _num(r["fixed_tphi_us"], "tphi")
            else:
                t1, tphi = _num(r["fixed_t1_us"], "t1"), _num(r["axis_value"], "tphi")
            H = dome_matrix(N, m) * J
            if cfg["metric"] == "qpt_at_half_t":
                want = open_transfer_fidelity(H, t1 * 1e-6, tphi * 1e-6, period / 2)
            else:
                rho0 = np.zeros((N + 1, N + 1), dtype=complex)
                rho0[1, 1] = 1.0
                rho = open_propagate(H, t1 * 1e-6, tphi * 1e-6, period / 4, rho0)
                w, V = np.linalg.eigh(H)
                psi = np.zeros(N + 1, dtype=complex)
                psi[1:] = V @ (np.exp(-1j * w * period / 4) * V[0])
                ideal = pair_block(np.outer(psi, psi.conj()), 1, N)
                want = float(np.real(np.trace(pair_block(rho, 1, N) @ ideal)))
            _close(_num(r["mean"], "mean"), want, OPEN_TOL, f"m={m} T1={t1} Tphi={tphi}")

    return check


def _marked_rows(rows: list[dict], period_fractions) -> dict[float, dict]:
    found = {}
    for r in rows:
        x = _num(r["t_over_T"], "t_over_T")
        for f in period_fractions:
            if abs(x - f) < 1e-12:
                found[f] = r
    _require(len(found) == len(period_fractions), "marked T/4 or T/2 row missing")
    return found


def evolve_open(cfg: dict):
    """Marked T/4 and T/2 rows of an open evolve against the Liouvillian exponential."""
    N, J = cfg["N"], rate_rad(cfg)
    period = 2 * np.pi / J
    t1 = cfg["decoherence__t1_us"] * 1e-6
    tphi = cfg["decoherence__tphi_us"] * 1e-6
    H = dome_matrix(N, cfg["m"]) * J

    marked = [f for f in (0.25, 0.5) if f <= cfg.get("n_periods", 1)]

    def check(data: bytes) -> None:
        rows = _csv(data)
        for r in rows:
            for key, value in r.items():
                if value:
                    _num(value, key)
        for frac, r in _marked_rows(rows, marked).items():
            rho0 = np.zeros((N + 1, N + 1), dtype=complex)
            rho0[1, 1] = 1.0
            rho = open_propagate(H, t1, tphi, frac * period, rho0)
            for n in range(1, N + 1):
                _close(_num(r[f"P_{n}"], "P"), rho[n, n].real, OPEN_TOL, f"P_{n} at {frac}T")
            target = bell_target(N)
            bell = float(np.real(target.conj() @ pair_block(rho, 1, N) @ target))
            _close(_num(r["bell_fidelity"], "bell"), bell, OPEN_TOL, f"bell at {frac}T")
            qpt = open_transfer_fidelity(H, t1, tphi, frac * period)
            _close(_num(r["qpt_fidelity"], "qpt"), qpt, OPEN_TOL, f"qpt at {frac}T")

    return check


def _philox(seed: int, k: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, k]))


def _draws(cfg: dict, n_sites: int, edges, coupling_shapes, sigma: float, seed: int):
    """Per-sample offsets in the documented order: targeted site
    frequencies in ascending site order, then each coupling table.

    Returns (n, n_sites) frequency offsets and one (n, *shape) array per
    coupling table (all zero unless the target includes couplings).
    """
    n, target = cfg["samples"], cfg["target"]
    sites = {"middle_frequencies": np.setdiff1d(np.arange(n_sites), edges),
             "edge_frequencies": np.asarray(edges), "all": np.arange(n_sites),
             "couplings": np.arange(0)}[target]
    df = np.zeros((n, n_sites))
    dcs = [np.zeros((n, *shape)) for shape in coupling_shapes]
    for k in range(n):
        rng = _philox(seed, k)
        if sites.size:
            df[k, sites] = rng.normal(0.0, sigma, sites.size)
        if target in ("couplings", "all"):
            for dc in dcs:
                dc[k] = rng.normal(0.0, sigma, dc.shape[1:])
    return df, dcs


def _evolve_batch(H: np.ndarray, phase_t: float, start: int) -> np.ndarray:
    """Amplitudes (n, D) of exp(-i H phase_t) e_start for a stack of H."""
    w, V = np.linalg.eigh(H)
    return np.einsum("kij,kj->ki", V, np.exp(-1j * w * phase_t) * V[:, start, :])


def _mc_fidelities(cfg: dict, m: int, sigma: float, seed: int) -> np.ndarray:
    n = cfg["samples"]
    metric = cfg["metric"]
    if metric == "w_at_quarter_t":
        R, C = cfg["rows"], cfg["cols"]
        base = grid_matrix(R, C, m, m)
        df, (dx, dy) = _draws(cfg, R * C, corners(R, C), [(R, C - 1), (R - 1, C)], sigma, seed)
        H = np.repeat(base[None], n, axis=0)
        H[:, np.arange(R * C), np.arange(R * C)] += df
        for r in range(R):
            for c in range(C):
                i = r * C + c
                if c + 1 < C:
                    H[:, i, i + 1] += dx[:, r, c]
                    H[:, i + 1, i] += dx[:, r, c]
                if r + 1 < R:
                    H[:, i, i + C] += dy[:, r, c]
                    H[:, i + C, i] += dy[:, r, c]
        sel = corners(R, C)
        ideal = _evolve_batch(base[None], np.pi / 2, 0)[0, sel]
        amps = _evolve_batch(H, np.pi / 2, 0)[:, sel]
    else:
        N = cfg["N"]
        om, cp = dome_chain(N, m)
        df, (dc,) = _draws(cfg, N, [0, N - 1], [(N - 1,)], sigma, seed)
        H = np.zeros((n, N, N))
        H[:, np.arange(N), np.arange(N)] = om + df
        H[:, np.arange(N - 1), np.arange(1, N)] = cp + dc
        H[:, np.arange(1, N), np.arange(N - 1)] = cp + dc
        if metric == "qpt_at_half_t":
            f = _evolve_batch(H, np.pi, 0)[:, N - 1]
            return np.abs(1.0 + f) ** 2 / 4.0
        sel = [0, N - 1]
        ideal = _evolve_batch(chain_matrix(om, cp)[None], np.pi / 2, 0)[0, sel]
        amps = _evolve_batch(H, np.pi / 2, 0)[:, sel]
    # Reduced states are |phi><phi| + (1 - |phi|^2)|vac><vac|, so
    # Tr(rho sigma) = |<phi0|phi>|^2 + (1 - |phi0|^2)(1 - |phi|^2).
    overlap = np.abs(amps @ ideal.conj()) ** 2
    vac = (1 - np.sum(np.abs(ideal) ** 2)) * (1 - np.sum(np.abs(amps) ** 2, axis=1))
    return overlap + vac


def coherent_sweep(cfg: dict, seed: int):
    """Every row's mean against the Philox draws and batched dense eigh."""
    want_points = {(m, float(s)) for m in cfg["m_values"] for s in cfg["sigmas"]}

    def check(data: bytes) -> None:
        rows = _sweep_rows(data, "coherent", cfg["metric"])
        got = {(int(r["m"]), _num(r["axis_value"], "sigma")) for r in rows}
        _require(got == want_points, f"sweep points {sorted(got)} != {sorted(want_points)}")
        for r in rows:
            m, sigma = int(r["m"]), _num(r["axis_value"], "sigma")
            _require(int(r["samples"]) == cfg["samples"], "sample count differs")
            want = float(np.mean(_mc_fidelities(cfg, m, sigma, seed)))
            _close(_num(r["mean"], "mean"), want, MC_TOL, f"m={m} sigma={sigma}")

    return check


def synth(cfg: dict):
    """Re-diagonalise the synthesized chain against the requested spectrum."""
    spec = np.array(cfg["spectrum"], float) if "spectrum" in cfg else dome_spectrum(cfg["N"], cfg["m"])

    def check(data: bytes) -> None:
        out = _json_out(data)
        scale = max(1.0, float(np.max(np.abs(spec))))
        om, cp = np.array(out["omegas"]), np.array(out["couplings"])
        _require(om.shape == spec.shape and cp.size == spec.size - 1, "chain size differs")
        _require(np.all(cp > 0), "couplings must be positive")
        _require(np.allclose(om, om[::-1], atol=1e-9 * scale) and np.allclose(cp, cp[::-1], atol=1e-9 * scale),
                 "chain is not mirror symmetric")
        ev = scipy.linalg.eigh_tridiagonal(om, cp, eigvals_only=True)
        _close(float(np.max(np.abs(ev - spec))) / scale, 0.0, 1e-8, "re-diagonalised spectrum")
        _close(float(np.max(np.abs(np.array(out["spectrum"]) - spec))) / scale, 0.0, 1e-12, "spectrum")
        W = np.array(out["eigenvectors"])
        _close(float(np.max(np.abs(W @ W.T - np.eye(spec.size)))), 0.0, 1e-8, "eigenvector orthonormality")
        resid = np.max(np.abs(chain_matrix(om, cp) @ W.T - W.T * spec[None, :])) / scale
        _close(float(resid), 0.0, 1e-8, "eigen-residual")

    return check


def evolve_closed(cfg: dict, seed: int):
    """Marked rows plus three seeded rows against expm(-iHt) |site 1>."""
    J = rate_rad(cfg)
    period = 2 * np.pi / J
    n_periods = cfg.get("n_periods", 1)
    if "N" in cfg:
        H, n_sites = dome_matrix(cfg["N"], cfg["m"]), cfg["N"]
    else:
        H, n_sites = grid_matrix(cfg["rows"], cfg["cols"], cfg["m_x"], cfg["m_y"]), cfg["rows"] * cfg["cols"]
    times = np.linspace(0.0, n_periods, int(np.ceil(POINTS_PER_PERIOD * n_periods)) + 1)
    for f in (0.25, 0.5):
        times[int(np.argmin(np.abs(times - f)))] = f
    picks = np.random.default_rng(seed).choice(times.size, 3, replace=False)

    def check(data: bytes) -> None:
        rows = _csv(data)
        _require(len(rows) == times.size, f"{len(rows)} rows, expected {times.size}")
        for r in rows:
            for key, value in r.items():
                if value:
                    _num(value, key)
        marked = _marked_rows(rows, (0.25, 0.5))
        for i in list(picks) + [int(np.argmin(np.abs(times - f))) for f in marked]:
            r, x = rows[i], times[i]
            _close(_num(r["t_over_T"], "t_over_T"), x, 1e-9, "time grid")
            psi = scipy.linalg.expm(-1j * H * (2 * np.pi * x)) [:, 0]
            for n in range(1, n_sites + 1):
                _close(_num(r[f"P_{n}"], "P"), abs(psi[n - 1]) ** 2, CLOSED_TOL, f"P_{n} at {x}T")
            if "N" in cfg:
                N = cfg["N"]
                amp = psi[0] + np.conj(quarter_phase(N)) * psi[N - 1]
                _close(_num(r["bell_fidelity"], "bell"), abs(amp) ** 2 / 2, CLOSED_TOL, f"bell at {x}T")
                if r["qpt_fidelity"]:
                    _close(_num(r["qpt_fidelity"], "qpt"), abs(1 + psi[N - 1]) ** 2 / 4, CLOSED_TOL,
                           f"qpt at {x}T")
            else:
                sel = corners(cfg["rows"], cfg["cols"])
                amp = w_target(cfg["rows"], cfg["cols"]).conj() @ psi[sel]
                _close(_num(r["w_fidelity"], "w"), abs(amp) ** 2, CLOSED_TOL, f"w at {x}T")

    return check


def cascade(cfg: dict):
    """Segment lengths, rates, and durations from the closed-form plan."""
    N, k, m = cfg["N"], cfg["k"], cfg["m"]
    j_max = 2 * np.pi * cfg["j_max_MHz"] * 1e6
    q, r = divmod(N - 1, k)
    lengths = [q + 2 if i < r else q + 1 for i in range(k)]
    rates = [j_max / float(np.max(dome_chain(L, m)[1])) for L in lengths]
    durations = [np.pi / x for x in rates]

    def check(data: bytes) -> None:
        out = _json_out(data)
        _require(out["feasible"] is True and out["segment_lengths"] == lengths, "segment plan differs")
        for got, want, what in ((out["segment_rates_rad_per_s"], rates, "rate"),
                                (out["segment_durations_s"], durations, "duration")):
            for g, w in zip(got, want, strict=True):
                _close(g / w, 1.0, 1e-9, what)
        _close(out["total_duration_s"] / sum(durations), 1.0, 1e-9, "total duration")

    return check
