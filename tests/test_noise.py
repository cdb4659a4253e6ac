"""Disorder draws, coherent sweeps, and decoherence scans.

The batched sweep is checked against the per-sample path it replaced:
`perturb` -> `ClosedPropagator` -> reduction -> `state_fidelity`, or
`simulate_qpt` for the tomography metric.
"""

import numpy as np
import pytest

from domechain import noise
from domechain.dynamics import ClosedPropagator, site_state
from domechain.metrics import reduce_to_corners, reduce_to_pair, simulate_qpt, state_fidelity
from domechain.models import (
    DomeParams,
    Grid2D,
    dome_hamiltonian,
    grid_2d,
    single_excitation_matrix,
)
from domechain.noise import (
    DisorderConfig,
    DisorderTarget,
    SweepMetric,
    perturb,
    sweep_coherent,
    sweep_decoherence,
)

RATE_5MHZ = 2 * np.pi * 5e6


def cfg(target, sigma=1.0, seed=99, samples=None):
    return DisorderConfig(target=target, sigma=sigma, seed=seed, samples=samples)


def test_perturb_is_deterministic_in_seed_and_index():
    base = dome_hamiltonian(DomeParams(N=5, m=2))
    c = cfg(DisorderTarget.ALL)
    a = perturb(base, c, 7)
    b = perturb(base, c, 7)
    np.testing.assert_array_equal(a.omegas, b.omegas)
    np.testing.assert_array_equal(a.couplings, b.couplings)
    other = perturb(base, c, 8)
    assert not np.array_equal(a.omegas, other.omegas)


def test_perturb_middle_frequencies_only():
    base = dome_hamiltonian(DomeParams(N=6, m=2))
    out = perturb(base, cfg(DisorderTarget.MIDDLE_FREQUENCIES), 0)
    assert out.omegas[0] == base.omegas[0]
    assert out.omegas[-1] == base.omegas[-1]
    assert not np.array_equal(out.omegas[1:-1], base.omegas[1:-1])
    np.testing.assert_array_equal(out.couplings, base.couplings)


def test_perturb_edge_frequencies_only():
    base = dome_hamiltonian(DomeParams(N=6, m=2))
    out = perturb(base, cfg(DisorderTarget.EDGE_FREQUENCIES), 0)
    assert out.omegas[0] != base.omegas[0]
    assert out.omegas[-1] != base.omegas[-1]
    np.testing.assert_array_equal(out.omegas[1:-1], base.omegas[1:-1])
    np.testing.assert_array_equal(out.couplings, base.couplings)


def test_perturb_couplings_only():
    base = dome_hamiltonian(DomeParams(N=6, m=2))
    out = perturb(base, cfg(DisorderTarget.COUPLINGS), 0)
    np.testing.assert_array_equal(out.omegas, base.omegas)
    assert not np.array_equal(out.couplings, base.couplings)


def test_perturb_preserves_rate():
    base = dome_hamiltonian(DomeParams(N=4, m=2, J=3.0e7))
    out = perturb(base, cfg(DisorderTarget.ALL), 1)
    assert out.rate_J == base.rate_J


def test_perturb_grid_targets_corners_vs_interior():
    grid = grid_2d(3, 4, 2, 2)
    from domechain.models import single_excitation_matrix

    base = single_excitation_matrix(grid)
    corners = grid.corner_indices()
    mid = perturb(grid, cfg(DisorderTarget.MIDDLE_FREQUENCIES), 0)
    for i in corners:
        assert mid[i, i] == base[i, i]
    changed = [i for i in range(12) if i not in corners and mid[i, i] != base[i, i]]
    assert len(changed) == 8
    np.testing.assert_array_equal(mid - np.diag(np.diag(mid)),
                                  base - np.diag(np.diag(base)))

    edge = perturb(grid, cfg(DisorderTarget.EDGE_FREQUENCIES), 0)
    for i in corners:
        assert edge[i, i] != base[i, i]
    for i in range(12):
        if i not in corners:
            assert edge[i, i] == base[i, i]


def test_perturb_grid_couplings_change_bonds_only():
    grid = grid_2d(3, 4, 2, 2)
    from domechain.models import single_excitation_matrix

    base = single_excitation_matrix(grid)
    out = perturb(grid, cfg(DisorderTarget.COUPLINGS), 2)
    np.testing.assert_array_equal(np.diag(out), np.diag(base))
    off = out - np.diag(np.diag(out))
    assert not np.array_equal(off, base - np.diag(np.diag(base)))
    np.testing.assert_array_equal(out, out.T)


def test_perturb_validation():
    base = dome_hamiltonian(DomeParams(N=4, m=2))
    with pytest.raises(ValueError):
        perturb(base, cfg(DisorderTarget.ALL), -1)
    with pytest.raises(TypeError):
        perturb(np.eye(3), cfg(DisorderTarget.ALL), 0)
    with pytest.raises(ValueError):
        DisorderConfig(target=DisorderTarget.ALL, sigma=-0.1, seed=1)
    with pytest.raises(ValueError):
        DisorderConfig(target=DisorderTarget.ALL, sigma=0.1, seed=1, samples=0)


def test_sweep_sigma_zero_recovers_noise_free():
    res = sweep_coherent(
        DomeParams(N=5, m=2),
        cfg(DisorderTarget.MIDDLE_FREQUENCIES, sigma=0.0, samples=5),
        SweepMetric.BELL_AT_QUARTER_T,
    )
    np.testing.assert_allclose(res.fidelities, 1.0, atol=1e-9)
    np.testing.assert_allclose(res.mean, 1.0, atol=1e-9)
    assert res.failures.sum() == 0


def test_sweep_is_deterministic():
    c = cfg(DisorderTarget.COUPLINGS, sigma=0.8, samples=12)
    a = sweep_coherent(DomeParams(N=5, m=2), c, SweepMetric.BELL_AT_QUARTER_T)
    b = sweep_coherent(DomeParams(N=5, m=2), c, SweepMetric.BELL_AT_QUARTER_T)
    np.testing.assert_array_equal(a.fidelities, b.fidelities)


def test_sweep_multi_sigma_axis():
    c = cfg(DisorderTarget.MIDDLE_FREQUENCIES, samples=8)
    res = sweep_coherent(
        DomeParams(N=5, m=2),
        c,
        SweepMetric.BELL_AT_QUARTER_T,
        sigmas=[0.0, 0.5, 1.0],
    )
    assert res.axis.shape == (3,)
    assert res.fidelities.shape == (3, 8)
    assert abs(res.mean[0] - 1.0) < 1e-9


def test_sweep_monotone_in_sigma_within_error():
    c = cfg(DisorderTarget.MIDDLE_FREQUENCIES, seed=5, samples=40)
    res = sweep_coherent(
        DomeParams(N=5, m=2),
        c,
        SweepMetric.BELL_AT_QUARTER_T,
        sigmas=[0.25, 1.0],
    )
    pooled = np.sqrt(res.stderr[0] ** 2 + res.stderr[1] ** 2)
    assert res.mean[1] <= res.mean[0] + 2 * pooled


def test_sweep_metric_system_pairing():
    grid = grid_2d(3, 4, 2, 2)
    with pytest.raises(ValueError):
        sweep_coherent(grid, cfg(DisorderTarget.ALL, samples=2),
                       SweepMetric.BELL_AT_QUARTER_T)
    with pytest.raises(ValueError):
        sweep_coherent(DomeParams(N=5, m=2), cfg(DisorderTarget.ALL, samples=2),
                       SweepMetric.W_AT_QUARTER_T)
    with pytest.raises(TypeError):
        sweep_coherent(np.eye(3), cfg(DisorderTarget.ALL, samples=2),
                       SweepMetric.BELL_AT_QUARTER_T)


def test_sweep_qpt_metric_runs():
    # N = 5: the noise-free transfer channel is the identity (the T/2
    # mirror phase vanishes for N = 1 mod 4), so small disorder keeps the
    # process fidelity near 1.
    res = sweep_coherent(
        DomeParams(N=5, m=2),
        cfg(DisorderTarget.COUPLINGS, sigma=0.1, samples=4),
        SweepMetric.QPT_AT_HALF_T,
    )
    assert np.all(res.fidelities <= 1.0 + 1e-9)
    assert np.all(res.fidelities > 0.5)


def test_sweep_grid_w_metric_sigma_zero():
    grid = grid_2d(3, 4, 2, 2)
    res = sweep_coherent(
        grid,
        cfg(DisorderTarget.EDGE_FREQUENCIES, sigma=0.0, samples=3),
        SweepMetric.W_AT_QUARTER_T,
    )
    np.testing.assert_allclose(res.mean, 1.0, atol=1e-9)


def per_sample_fidelities(system, c, metric, sigmas):
    """(len(sigmas), samples) fidelities, one sample at a time."""
    if isinstance(system, Grid2D):
        n_sites, period, base = system.rows * system.cols, system.period, system

        def final(matrix):
            prop = ClosedPropagator(matrix * system.J)
            return reduce_to_corners(prop.apply(site_state(n_sites, 1), period / 4), system)

        ideal = final(single_excitation_matrix(system))
    else:
        base = dome_hamiltonian(system)
        n_sites, period = base.n, base.period

        def final(ham):
            prop = ClosedPropagator(ham.matrix(physical=True))
            return reduce_to_pair(prop.apply(site_state(n_sites, 1), period / 4), 1, n_sites)

        ideal = final(base)
    out = np.empty((len(sigmas), c.samples))
    for i, sigma in enumerate(sigmas):
        point = DisorderConfig(target=c.target, sigma=sigma, seed=c.seed, samples=c.samples)
        for k in range(c.samples):
            sample = perturb(base, point, k)
            if metric is SweepMetric.QPT_AT_HALF_T:
                out[i, k] = simulate_qpt(sample, t_end=period / 2)[1]
            else:
                out[i, k] = state_fidelity(final(sample), ideal)
    return out


@pytest.mark.parametrize("m", [2, 102])
@pytest.mark.parametrize("target", list(DisorderTarget))
@pytest.mark.parametrize(
    "case",
    [
        ("bell", DomeParams, dict(N=6), SweepMetric.BELL_AT_QUARTER_T),
        ("qpt", DomeParams, dict(N=5), SweepMetric.QPT_AT_HALF_T),
        ("w", Grid2D, dict(rows=3, cols=4), SweepMetric.W_AT_QUARTER_T),
    ],
    ids=lambda case: case[0],
)
def test_batched_sweep_matches_per_sample_path(case, target, m):
    _, kind, shape, metric = case
    shape = dict(shape, m=m) if kind is DomeParams else dict(shape, m_x=m, m_y=m)
    system = kind(**shape, J=RATE_5MHZ)
    c = cfg(target, seed=31, samples=5)
    sigmas = [0.3, 1.5]
    res = sweep_coherent(system, c, metric, sigmas=sigmas)
    want = per_sample_fidelities(system, c, metric, sigmas)
    assert np.max(np.abs(res.fidelities - want)) < 1e-12
    assert res.failures.sum() == 0


@pytest.mark.parametrize("target", list(DisorderTarget))
@pytest.mark.parametrize(
    "system",
    [dome_hamiltonian(DomeParams(N=5, m=102)), grid_2d(3, 4, 2, 2)],
    ids=["chain", "grid"],
)
def test_perturb_equals_batched_rows(system, target):
    c = cfg(target, sigma=0.7)
    model = noise._SiteModel.of(system)
    stack = model.matrices(target, c.sigma * model.unit_draws(c, range(6)))
    for k in range(6):
        single = perturb(system, c, k)
        matrix = single.matrix() if isinstance(single, type(system)) else single
        np.testing.assert_array_equal(matrix, stack[k])


@pytest.mark.parametrize(
    "system, metric",
    [
        (DomeParams(N=5, m=2), SweepMetric.BELL_AT_QUARTER_T),
        (DomeParams(N=5, m=102), SweepMetric.QPT_AT_HALF_T),
        (grid_2d(3, 4, 2, 2), SweepMetric.W_AT_QUARTER_T),
    ],
    ids=["bell", "qpt", "w"],
)
def test_chunked_sweep_is_bit_identical(system, metric, monkeypatch):
    c = cfg(DisorderTarget.ALL, samples=7)
    sigmas = [0.25, 0.5, 1.0]
    whole = sweep_coherent(system, c, metric, sigmas=sigmas)
    n_sites = 12 if isinstance(system, Grid2D) else system.N
    for rows_per_chunk in (1, 4):
        monkeypatch.setattr(noise, "MAX_CHUNK_ENTRIES", rows_per_chunk * n_sites**2)
        split = sweep_coherent(system, c, metric, sigmas=sigmas)
        np.testing.assert_array_equal(split.fidelities, whole.fidelities)
        np.testing.assert_array_equal(split.mean, whole.mean)
        np.testing.assert_array_equal(split.std, whole.std)


def test_failed_diagonalization_drops_only_that_sample(monkeypatch):
    system = DomeParams(N=5, m=2)
    c = cfg(DisorderTarget.ALL, samples=10)
    clean = sweep_coherent(system, c, SweepMetric.BELL_AT_QUARTER_T, sigmas=[0.5, 1.0])
    point = DisorderConfig(target=DisorderTarget.ALL, sigma=1.0, seed=c.seed)
    bad = perturb(dome_hamiltonian(system), point, 3).matrix(physical=True)
    eigh = np.linalg.eigh

    def failing_eigh(H, *args, **kwargs):
        if np.any(np.all(H == bad, axis=(-2, -1))):
            raise np.linalg.LinAlgError("planted failure")
        return eigh(H, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    res = sweep_coherent(system, c, SweepMetric.BELL_AT_QUARTER_T, sigmas=[0.5, 1.0])
    np.testing.assert_array_equal(res.failures, [0, 1])
    np.testing.assert_array_equal(res.samples, [10, 9])
    assert np.isnan(res.fidelities[1, 3])
    kept = np.ones((2, 10), dtype=bool)
    kept[1, 3] = False
    np.testing.assert_allclose(res.fidelities[kept], clean.fidelities[kept], rtol=0, atol=1e-15)
    assert res.mean[0] == clean.mean[0]
    assert abs(res.mean[1] - np.mean(np.delete(clean.fidelities[1], 3))) < 1e-15


def test_decoherence_scan_pinned_endpoints():
    # Frozen working-point values (J/2pi = 5 MHz, N = 5, m = 2): the T1
    # scan endpoint at T1 = 3 us, Tphi = 5 us and the Tphi endpoint at
    # Tphi = 0.5 us, T1 = 30 us.
    scan = sweep_decoherence(
        5,
        SweepMetric.BELL_AT_QUARTER_T,
        m_values=(2,),
        t1_values_us=(3.0,),
        tphi_values_us=(0.5,),
    )
    assert abs(scan.t1_scan[0, 0] - 0.9715619723) < 1e-5
    assert abs(scan.tphi_scan[0, 0] - 0.8855576848) < 1e-5


def test_decoherence_scan_shapes_and_gain():
    scan = sweep_decoherence(
        3,
        SweepMetric.BELL_AT_QUARTER_T,
        m_values=(2, 6),
        t1_values_us=(3.0, 300.0),
        tphi_values_us=(0.5, 50.0),
    )
    assert scan.t1_scan.shape == (2, 2)
    assert scan.tphi_scan.shape == (2, 2)
    assert np.all(np.diff(scan.t1_scan, axis=1) > 0)
    assert np.all(np.diff(scan.tphi_scan, axis=1) > 0)
    gain = scan.gain_vs_first_m("t1")
    np.testing.assert_array_equal(gain[0], 0.0)


def test_decoherence_scan_rejects_grid_metric():
    with pytest.raises(ValueError):
        sweep_decoherence(5, SweepMetric.W_AT_QUARTER_T)


@pytest.mark.parametrize("seed", [0, 1, 99, 2**63 + 5, 2**64 - 1])
def test_unit_normals_match_per_sample_philox(seed):
    # One re-pointed bit generator against a fresh Philox per sample.
    indices = [0, 1, 2, 7, 1000, 1999, 3, 3]
    for n in (1, 5, 9):
        got = noise._unit_normals(seed, indices, n)
        ref = [
            np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, k]))
            .standard_normal(n)
            for k in indices
        ]
        np.testing.assert_array_equal(got, ref)
