"""Top-level acceptance gate.

One test per shipping criterion; each prints a single PASS/FAIL line
(run with -s to see them) before asserting, so a red run still reports
every criterion's verdict and measured numbers.
"""

import time

import numpy as np

from domechain import (
    CouplingBudget,
    DecoherenceConfig,
    DisorderConfig,
    DisorderTarget,
    DomeParams,
    Grid2D,
    SweepMetric,
    TransferMode,
    check_pst_spacing,
    dome_hamiltonian,
    dome_spectrum,
    evolve_closed,
    evolve_lindblad,
    feasible_N,
    plan_cascade,
    single_excitation_matrix,
    site_state,
    solve_fst_phase,
    sweep_coherent,
    sweep_decoherence,
    synthesize,
)
from domechain.cli import resolve
from domechain.metrics import _readout_fidelity
from dense_oracles import (
    brute_force_reduce,
    corner_indices,
    entrywise_reduce,
    expm_evolve,
    quarter_period_ket,
    random_excited_state,
    random_sector_state,
    random_sector_target,
    readout_target,
    simulate_qpt,
    target_overlap,
)
from test_noise import scan_chains, scan_configs

SYNTH_SIZES = range(2, 17)
SYNTH_CURVATURES = (0, 1, 2, 3, 4, 6, 10)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def pooled_gain(res_low, res_high, i: int = 0):
    gain = res_high.mean[i] - res_low.mean[i]
    se = float(np.sqrt(res_low.stderr[i] ** 2 + res_high.stderr[i] ** 2))
    return gain, se


def edge_resolution(systems, sigma, seed, samples, metric, high) -> str:
    """What an edge clause can resolve, printed beside it and gating nothing:
    the m gain (second system minus first) from `high` paired samples at the
    clause's seed, with the std error of the paired differences, and the
    share of seeds 0-99 on which the clause, |gain| < 2 SE from `samples`
    samples, holds."""
    def sweep(seed, samples):
        cfg = DisorderConfig(DisorderTarget.EDGE_FREQUENCIES, (sigma,), seed, samples)
        return sweep_coherent(systems, cfg, metric)

    diff = np.subtract(*sweep(seed, high).fidelities[::-1, 0])
    holds = [abs(r.mean[1, 0] - r.mean[0, 0]) < 2.0 * np.hypot(*r.stderr[:, 0])
             for r in (sweep(s, samples) for s in range(100))]
    return (f"; edge gain {diff.mean():+.4f} +- {diff.std(ddof=1) / np.sqrt(high):.4f} "
            f"from {high} paired samples, clause holds for {sum(holds)}% of seeds 0-99")


def test_criterion_1_synthesis_matches_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for N in SYNTH_SIZES:
        for m in SYNTH_CURVATURES:
            built = synthesize(dome_spectrum(N, m))[0]
            closed = dome_hamiltonian(DomeParams(N=N, m=m))
            scale_w = max(float(np.abs(closed.omegas).max()), 1.0)
            scale_j = float(np.abs(closed.couplings).max())
            worst = max(
                worst,
                float(np.abs(built.omegas - closed.omegas).max()) / scale_w,
                float(np.abs(built.couplings - closed.couplings).max()) / scale_j,
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(1, ok, f"max relative deviation {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_transfer_certificates_at_n5():
    t0 = time.perf_counter()
    failures = []
    for m in (2, 6, 10):
        params = DomeParams(N=5, m=m)
        ham = dome_hamiltonian(params)
        psi = evolve_closed(ham.matrix(), site_state(5, 1), params.period / 4)[0]
        bell = target_overlap(brute_force_reduce(psi, 5, (1, 5)), quarter_period_ket(5))
        if abs(bell - 1.0) >= 1e-8:
            failures.append(f"m={m} bell {bell:.3e}")
        _, qpt = simulate_qpt(ham.matrix(), params.period / 2)
        if abs(qpt - 1.0) >= 1e-6:
            failures.append(f"m={m} qpt {qpt:.3e}")

    line = DomeParams(N=5, m=0)
    ham0 = dome_hamiltonian(line)
    half = evolve_closed(ham0.matrix(), site_state(5, 1), line.period / 2)
    pst_pop = abs(half[0, 5]) ** 2
    quarter = evolve_closed(ham0.matrix(), site_state(5, 1), line.period / 4)
    bell0 = target_overlap(brute_force_reduce(quarter[0], 5, (1, 5)), quarter_period_ket(5))
    if abs(pst_pop - 1.0) >= 1e-8:
        failures.append(f"m=0 pst {pst_pop:.3e}")
    if not bell0 < 0.99:
        failures.append(f"m=0 bell {bell0:.4f} not < 0.99")

    odd = DomeParams(N=5, m=3)
    spec3 = dome_spectrum(5, 3)
    ham3 = dome_hamiltonian(odd)
    ret = abs(evolve_closed(ham3.matrix(), site_state(5, 1), odd.period)[0, 1]) ** 2
    if abs(ret - 1.0) >= 1e-8:
        failures.append(f"m=3 return {ret:.3e}")
    if check_pst_spacing(spec3, np.pi):
        failures.append("m=3 unexpectedly mirror-periodic at T/2")
    if solve_fst_phase(spec3, np.pi / 2) is not None:
        failures.append("m=3 unexpectedly splits at T/4")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report(2, ok, "; ".join(failures) or f"all N=5 certificates hold in {elapsed:.2f}s")


def test_criterion_3_effective_pair_limits_and_scaling():
    t0 = time.perf_counter()
    failures = []
    from domechain import schrieffer_wolff_reduce

    for N in (3, 4, 5):
        ham = dome_hamiltonian(DomeParams(N=N, m=1000))
        eff = schrieffer_wolff_reduce(ham)
        j_dev = abs(eff.j_eff - (-1.0) ** N * 0.5)
        shift_dev = abs((eff.omega1_eff - ham.omegas[0]) + (N - 2) * 0.5)
        if j_dev >= 2e-2:
            failures.append(f"N={N} j_eff dev {j_dev:.3e}")
        if shift_dev >= 2e-2:
            failures.append(f"N={N} shift dev {shift_dev:.3e}")

    slopes = []
    ms = np.array([100, 1000, 10000])
    for N in (3, 4, 5):
        devs = []
        for m in ms:
            eff = schrieffer_wolff_reduce(dome_hamiltonian(DomeParams(N=N, m=int(m))))
            devs.append(abs(eff.j_eff - (-1.0) ** N * 0.5))
        slope = float(np.polyfit(np.log(ms), np.log(devs), 1)[0])
        slopes.append(slope)
        if abs(slope + 1.0) >= 0.2:
            failures.append(f"N={N} slope {slope:.3f}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    detail = "; ".join(failures) or (
        f"limits within 2e-2, slopes {', '.join(f'{s:.3f}' for s in slopes)} "
        f"in {elapsed:.2f}s"
    )
    report(3, ok, detail)


def test_criterion_4_decoherence_scans_and_curvature_cost():
    t0 = time.perf_counter()
    failures = []
    details = []
    for metric, m_gain_cap in (
        (SweepMetric.BELL_AT_QUARTER_T, 0.008),
        (SweepMetric.QPT_AT_HALF_T, 0.004),
    ):
        # The default T1 cut, then the default Tphi cut, per m.
        table = resolve("sweep", {"kind": "decoherence", "metric": metric.value, "N": 5})
        fids = sweep_decoherence(scan_chains(5), metric, scan_configs())
        t1_cut, tphi_cut = np.split(fids, [len(table["t1_us_values"])], axis=-1)
        t1_gain = float(t1_cut[0][-1] - t1_cut[0][0])
        tphi_gain = float(tphi_cut[0][-1] - tphi_cut[0][0])
        m_gain = float(np.max(t1_cut - t1_cut[0]))
        details.append(
            f"{metric.value}: T1 {100 * t1_gain:.2f}pp, "
            f"Tphi {100 * tphi_gain:.2f}pp, m-gain {100 * m_gain:.2f}pp"
        )
        if not 0.01 <= t1_gain <= 0.03:
            failures.append(f"{metric.value} T1 gain {t1_gain:.4f} not in [1pp, 3pp]")
        if not tphi_gain > 0.10:
            failures.append(f"{metric.value} Tphi gain {tphi_gain:.4f} <= 10pp")
        if not m_gain < m_gain_cap:
            failures.append(f"{metric.value} m gain {m_gain:.4f} >= {m_gain_cap}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    report(4, ok, "; ".join(failures) or f"{'; '.join(details)} in {elapsed:.0f}s")


def test_criterion_5_disorder_separation_by_target():
    t0 = time.perf_counter()
    failures = []
    ratios = {}
    for target in (
        DisorderTarget.MIDDLE_FREQUENCIES,
        DisorderTarget.COUPLINGS,
        DisorderTarget.EDGE_FREQUENCIES,
    ):
        # m values and sample count from the CLI's one table of defaults.
        table = resolve("sweep", {"kind": "coherent", "metric": "bell_at_quarter_t", "N": 5,
                                  "target": target.value, "seed": 12345, "sigma": 1.0})
        res = {}
        for m in table["m_values"]:
            cfg = DisorderConfig(target, table["sigmas"], table["seed"], table["samples"])
            res[m] = sweep_coherent(
                DomeParams(N=5, m=m), cfg, SweepMetric.BELL_AT_QUARTER_T
            )
        gain, se = pooled_gain(res[2], res[102])
        ratios[target] = gain / se
    for target in (DisorderTarget.MIDDLE_FREQUENCIES, DisorderTarget.COUPLINGS):
        if not ratios[target] > 3.0:
            failures.append(f"{target.value} separation {ratios[target]:.2f} <= 3 SE")
    edge = ratios[DisorderTarget.EDGE_FREQUENCIES]
    if not abs(edge) < 2.0:
        failures.append(f"edge separation {edge:.2f} not < 2 SE")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    detail = "; ".join(failures) or (
        "gain/SE "
        + ", ".join(f"{t.value}={r:.1f}" for t, r in ratios.items())
        + f" in {elapsed:.0f}s"
    )
    chains = [DomeParams(N=5, m=m) for m in table["m_values"]]
    report(5, ok, detail + edge_resolution(chains, table["sigmas"][0], table["seed"],
                                           table["samples"], SweepMetric.BELL_AT_QUARTER_T, 40000))


def test_criterion_6_grid_corner_state_and_edge_noise():
    t0 = time.perf_counter()
    failures = []
    grid = Grid2D(rows=3, cols=4, m_x=2, m_y=2)
    H = single_excitation_matrix(grid)
    psi = evolve_closed(H, site_state(12, 1), grid.period / 4)[0]
    corners = tuple(i + 1 for i in corner_indices(3, 4))
    w = target_overlap(entrywise_reduce(np.outer(psi, psi.conj()), corners), quarter_period_ket(3, 4))
    if abs(w - 1.0) >= 1e-6:
        failures.append(f"W fidelity {w:.8f}")

    res = {}
    for m in (2, 102):
        cfg = DisorderConfig(
            target=DisorderTarget.EDGE_FREQUENCIES, sigmas=(2.0,), seed=777, samples=50
        )
        res[m] = sweep_coherent(
            Grid2D(rows=3, cols=4, m_x=m, m_y=m), cfg, SweepMetric.W_AT_QUARTER_T
        )
    gain, se = pooled_gain(res[2], res[102])
    if not abs(gain) < 2.0 * se:
        failures.append(f"corner-noise m gain {gain:.4f} vs 2 SE {2 * se:.4f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    detail = "; ".join(failures) or (
        f"W within 1e-6, edge-noise m gain {gain / se:+.2f} SE in {elapsed:.0f}s"
    )
    grids = [Grid2D(rows=3, cols=4, m_x=m, m_y=m) for m in (2, 102)]
    report(6, ok, detail + edge_resolution(grids, 2.0, 777, 50, SweepMetric.W_AT_QUARTER_T, 20000))


def test_criterion_7_budget_planning():
    t0 = time.perf_counter()
    failures = []
    budget = CouplingBudget(j_max=100.0, j_min=1.0)
    n_line = feasible_N(budget, m=0)
    n_dome = feasible_N(budget, m=10)
    if n_line != 400:
        failures.append(f"line feasible_N {n_line} != 400")
    if n_dome > 9:
        failures.append(f"dome feasible_N {n_dome} > 9")

    loose = CouplingBudget(j_max=100.0, j_min=1e-9)
    pst = TransferMode.PST
    t_k1 = plan_cascade(64, 1, loose, m=10, mode=pst).asymptotic_duration
    t_k4 = plan_cascade(64, 4, loose, m=10, mode=pst).asymptotic_duration
    ratio = t_k4 / t_k1
    if abs(ratio - 0.25) >= 0.02:
        failures.append(f"asymptotic ratio {ratio:.4f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    detail = "; ".join(failures) or (
        f"feasible_N=({n_line}, {n_dome}), k=4/k=1 ratio {ratio:.4f} "
        f"in {elapsed * 1e3:.0f}ms"
    )
    report(7, ok, detail)


def test_criterion_8_oracle_agreement():
    t0 = time.perf_counter()
    failures = []

    deco = DecoherenceConfig(t1=2.0, t_phi=3.0)
    rng = np.random.default_rng(29)
    worst_lb = 0.0
    for N in (1, 2, 3):
        H = np.array([[0.7]]) if N == 1 else dome_hamiltonian(DomeParams(N=N, m=2)).matrix()
        c = random_sector_state(rng, N)
        rho0 = np.outer(c, c.conj())
        times = np.array([0.0, 0.5, 1.3])
        traj = evolve_lindblad(H, rho0, times, deco)
        for k, t in enumerate(times):
            worst_lb = max(
                worst_lb, float(np.max(np.abs(traj[k] - expm_evolve(H, rho0, t, deco))))
            )
    if worst_lb >= 1e-8:
        failures.append(f"lindblad vs exponential {worst_lb:.2e}")

    worst_pt = 0.0
    for N in (2, 3, 4, 5):
        psi = random_excited_state(rng, N)
        for sites in ((1,), (1, N), tuple(range(1, N + 1))):
            target = random_sector_target(rng, len(sites))
            got = _readout_fidelity(psi[list(sites)], *readout_target(target))
            ref = target_overlap(brute_force_reduce(psi, N, sites), target)
            worst_pt = max(worst_pt, float(abs(got - ref)))
    if worst_pt >= 1e-10:
        failures.append(f"partial trace vs brute force {worst_pt:.2e}")

    worst_rt = 0.0
    for N in SYNTH_SIZES:
        for m in SYNTH_CURVATURES:
            spec = dome_spectrum(N, m)
            back = np.linalg.eigvalsh(synthesize(spec)[0].matrix())
            scale = float(np.abs(spec.values).max())
            worst_rt = max(worst_rt, float(np.max(np.abs(back - spec.values))) / scale)
    if worst_rt >= 1e-8:
        failures.append(f"spectrum round trip {worst_rt:.2e}")

    elapsed = time.perf_counter() - t0
    ok = not failures
    detail = "; ".join(failures) or (
        f"lindblad {worst_lb:.1e}, trace {worst_pt:.1e}, round trip {worst_rt:.1e} "
        f"in {elapsed:.1f}s"
    )
    report(8, ok, detail)
