"""Disorder draws, coherent sweeps, and decoherence scans.

The batched sweep is checked against a per-sample path that shares no
code with it: `perturbed` (one Philox generator per sample, its draws
added entry by entry to `dome_hamiltonian` or `single_excitation_matrix`)
-> `evolve_closed` -> the partial trace onto the readout sites
(`dense_oracles.brute_force_reduce` for the chain's end pair,
`entrywise_reduce` for the 12-site grid's corners) -> the overlap with the
noise-free reduction.  The draw and targeting tests run on
`models._SiteModel`, the pipeline sweeps run.  The transfer metric,
coherent and under T1/Tphi, is checked against the emulated process
tomography `dense_oracles.simulate_qpt`.
"""

import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from domechain import cli, noise
from domechain.dynamics import DecoherenceConfig, evolve_closed, site_state
from domechain.models import (
    DomeParams,
    Grid2D,
    _SiteModel,
    dome_hamiltonian,
    single_excitation_matrix,
)
from domechain.noise import (
    DisorderConfig,
    DisorderTarget,
    SweepMetric,
    sweep_coherent,
    sweep_decoherence,
)
from dense_oracles import (
    brute_force_reduce,
    corner_indices,
    entrywise_reduce,
    expm_evolve,
    simulate_qpt,
)
from test_dynamics import exponentiated

RATE_5MHZ = 2 * np.pi * 5e6


def cfg(target, sigmas=(1.0,), seed=99, samples=1):
    return DisorderConfig(target=target, sigmas=sigmas, seed=seed, samples=samples)


def chunk_rows(monkeypatch, rows, n_sites):
    """Run coherent sweeps of `n_sites`-site matrices in chunks of `rows`
    rows, or of the default entry bound for None."""
    if rows is not None:
        monkeypatch.setattr(noise, "MAX_CHUNK_ENTRIES", rows * n_sites**2)


def scan_configs(t1_us_values=None, tphi_us_values=None) -> list:
    """The DecoherenceConfigs of the CLI's default decoherence scan, built
    here from its one table of defaults: the T1 cut at fixed Tphi, then the
    Tphi cut at fixed T1, with either cut's microsecond values replaced
    where given."""
    table = cli.resolve("sweep", {"kind": "decoherence", "metric": "qpt_at_half_t", "N": 2})
    t1s = table["t1_us_values"] if t1_us_values is None else t1_us_values
    tphis = table["tphi_us_values"] if tphi_us_values is None else tphi_us_values
    points = [(t1, table["fixed_tphi_us"]) for t1 in t1s]
    points += [(table["fixed_t1_us"], tphi) for tphi in tphis]
    return [DecoherenceConfig(t1=t1 * 1e-6, t_phi=tphi * 1e-6) for t1, tphi in points]


def scan_chains(n_sites: int, m_values=None) -> list:
    """The chains of a default decoherence scan (the CLI's m values and rate),
    or of the given m values at that rate."""
    cfg = {"kind": "decoherence", "metric": "qpt_at_half_t", "N": n_sites}
    if m_values is not None:
        cfg["m_values"] = list(m_values)
    return cli._systems(cli.resolve("sweep", cfg))


def perturbed(system, c, k: int) -> np.ndarray:
    """Sample k's site matrix in units of J, drawn on its own.

    `system` is DomeParams or Grid2D, and c has one sigma.  Sample k's normals
    come from a fresh Philox at counter block k.  Sigma times each draw is
    added, in draw order,
    to the dense noise-free matrix: targeted sites ascending, then x bonds
    row-major, then y bonds row-major (a chain is the 1 x N grid).
    """
    (sigma,) = c.sigmas
    if isinstance(system, Grid2D):
        rows, cols, ends = system.rows, system.cols, corner_indices(system.rows, system.cols)
        H = single_excitation_matrix(system)
    else:
        rows, cols, ends = 1, system.N, [0, system.N - 1]
        H = dome_hamiltonian(system).matrix()
    site = np.arange(rows * cols).reshape(rows, cols)
    bonds = [(site[r, q], site[r, q + 1]) for r in range(rows) for q in range(cols - 1)]
    bonds += [(site[r, q], site[r + 1, q]) for r in range(rows - 1) for q in range(cols)]
    sites = {
        DisorderTarget.MIDDLE_FREQUENCIES: [i for i in range(rows * cols) if i not in ends],
        DisorderTarget.EDGE_FREQUENCIES: ends,
        DisorderTarget.COUPLINGS: [],
        DisorderTarget.ALL: list(range(rows * cols)),
    }[c.target]
    if c.target not in (DisorderTarget.COUPLINGS, DisorderTarget.ALL):
        bonds = []
    gen = np.random.Generator(np.random.Philox(key=c.seed, counter=[0, 0, 0, k]))
    draws = gen.standard_normal(len(sites) + len(bonds))
    for i, z in zip(sites, draws):
        H[i, i] += sigma * z
    for (a, b), z in zip(bonds, draws[len(sites):]):
        H[a, b] += sigma * z
        H[b, a] += sigma * z
    return H


def unit_rows(model, c, indices):
    """The targeted (sites, bonds) of c and the unit normals of draws `indices`."""
    targeted = noise._targeted(model, c.target)
    return targeted, noise._unit_normals(c.seed, indices, sum(idx.size for idx in targeted))


def sampled(system, c, k: int) -> np.ndarray:
    """Sample k's site matrix in rad/s (units of J for J = 1), from the
    pipeline sweeps run; c has one sigma."""
    (sigma,) = c.sigmas
    model = _SiteModel.of(system)
    targeted, unit = unit_rows(model, c, [k])
    return noise._perturbed(model, targeted, sigma * unit, [0])[0]


def test_perturb_is_deterministic_in_seed_and_index():
    base = DomeParams(N=5, m=2)
    c = cfg(DisorderTarget.ALL)
    a = sampled(base, c, 7)
    np.testing.assert_array_equal(a, sampled(base, c, 7))
    assert not np.array_equal(np.diag(a), np.diag(sampled(base, c, 8)))


def test_perturb_middle_frequencies_only():
    params = DomeParams(N=6, m=2)
    base = dome_hamiltonian(params)
    out = sampled(params, cfg(DisorderTarget.MIDDLE_FREQUENCIES), 0)
    assert out[0, 0] == base.omegas[0]
    assert out[-1, -1] == base.omegas[-1]
    assert not np.array_equal(np.diag(out)[1:-1], base.omegas[1:-1])
    np.testing.assert_array_equal(np.diag(out, 1), base.couplings)


def test_perturb_edge_frequencies_only():
    params = DomeParams(N=6, m=2)
    base = dome_hamiltonian(params)
    out = sampled(params, cfg(DisorderTarget.EDGE_FREQUENCIES), 0)
    assert out[0, 0] != base.omegas[0]
    assert out[-1, -1] != base.omegas[-1]
    np.testing.assert_array_equal(np.diag(out)[1:-1], base.omegas[1:-1])
    np.testing.assert_array_equal(np.diag(out, 1), base.couplings)


def test_perturb_couplings_only():
    params = DomeParams(N=6, m=2)
    base = dome_hamiltonian(params)
    out = sampled(params, cfg(DisorderTarget.COUPLINGS), 0)
    np.testing.assert_array_equal(np.diag(out), base.omegas)
    assert not np.array_equal(np.diag(out, 1), base.couplings)
    np.testing.assert_array_equal(out, out.T)


def test_perturb_preserves_rate():
    assert _SiteModel.of(DomeParams(N=4, m=2, J=3.0e7)).rate == 3.0e7
    assert _SiteModel.of(Grid2D(2, 3, 2, 2, J=3.0e7)).rate == 3.0e7


def test_perturb_grid_targets_corners_vs_interior():
    grid = Grid2D(3, 4, 2, 2)
    base = single_excitation_matrix(grid)
    corners = corner_indices(3, 4)
    mid = sampled(grid, cfg(DisorderTarget.MIDDLE_FREQUENCIES), 0)
    for i in corners:
        assert mid[i, i] == base[i, i]
    changed = [i for i in range(12) if i not in corners and mid[i, i] != base[i, i]]
    assert len(changed) == 8
    np.testing.assert_array_equal(mid - np.diag(np.diag(mid)),
                                  base - np.diag(np.diag(base)))

    edge = sampled(grid, cfg(DisorderTarget.EDGE_FREQUENCIES), 0)
    for i in corners:
        assert edge[i, i] != base[i, i]
    for i in range(12):
        if i not in corners:
            assert edge[i, i] == base[i, i]


def test_perturb_grid_couplings_change_bonds_only():
    grid = Grid2D(3, 4, 2, 2)
    base = single_excitation_matrix(grid)
    out = sampled(grid, cfg(DisorderTarget.COUPLINGS), 2)
    np.testing.assert_array_equal(np.diag(out), np.diag(base))
    off = out - np.diag(np.diag(out))
    assert not np.array_equal(off, base - np.diag(np.diag(base)))
    np.testing.assert_array_equal(out != 0, base != 0)
    np.testing.assert_array_equal(out, out.T)


def test_perturb_validation():
    with pytest.raises(ValueError):
        DisorderConfig(target=DisorderTarget.ALL, sigmas=(-0.1,), seed=1, samples=1)
    with pytest.raises(ValueError):
        DisorderConfig(target=DisorderTarget.ALL, sigmas=(0.1,), seed=1, samples=0)
    with pytest.raises(ValueError):
        DisorderConfig(target=DisorderTarget.ALL, sigmas=(0.1,), seed=2**64, samples=1)


@pytest.mark.parametrize(
    "sigmas",
    [(), (-1.0, np.nan), (0.1, -1.0), (0.1, np.nan), (np.inf,), (-0.0, -1e-300)],
    ids=["empty", "negative-and-nan", "negative", "nan", "inf", "tiny-negative"],
)
def test_every_sigma_is_validated(sigmas):
    # Each sigma of the axis is checked, not only the first: a negative
    # sigma would run as its absolute value and a NaN one as all failures.
    with pytest.raises(ValueError, match="sigma"):
        DisorderConfig(DisorderTarget.ALL, sigmas, 1, 5)


@pytest.mark.parametrize("seed, samples", [(1.5, 5), (-0.5, 5), (np.nan, 5), (1, 2.5),
                                           (1, np.inf)],
                         ids=["fractional-seed", "negative-fractional-seed", "nan-seed",
                              "fractional-samples", "inf-samples"])
def test_seed_and_samples_must_be_integers(seed, samples):
    # A fractional seed once ran as its truncation, and fractional samples
    # were accepted only for the sweep to die with a TypeError.
    with pytest.raises(ValueError):
        DisorderConfig(DisorderTarget.ALL, (0.5,), seed, samples)


def test_seed_past_float_range_is_refused_with_value_error():
    # 2^1100 has no float: the check says so, not OverflowError from math.isfinite.
    with pytest.raises(ValueError, match="^seed must be an integer >= 0 of magnitude below 2\\^1024$"):
        DisorderConfig(DisorderTarget.ALL, (0.5,), 2**1100, 5)
    with pytest.raises(ValueError, match="^samples must be an integer >= 1 of magnitude below"):
        DisorderConfig(DisorderTarget.ALL, (0.5,), 1, 10**400)


def test_seed_and_samples_are_stored_as_ints():
    c = DisorderConfig(DisorderTarget.ALL, (0.5,), np.uint64(2**64 - 1), 3.0)
    assert (c.seed, c.samples) == (2**64 - 1, 3)
    assert type(c.seed) is int and type(c.samples) is int


def test_sigmas_are_read_as_a_tuple_of_floats():
    c = DisorderConfig(DisorderTarget.ALL, [0, 0.5, -0.0], 1, 5)
    assert c.sigmas == (0.0, 0.5, 0.0) and all(type(s) is float for s in c.sigmas)


def test_sweep_sigma_zero_recovers_noise_free():
    res = sweep_coherent(
        DomeParams(N=5, m=2),
        cfg(DisorderTarget.MIDDLE_FREQUENCIES, sigmas=(0.0,), samples=5),
        SweepMetric.BELL_AT_QUARTER_T,
    )
    np.testing.assert_allclose(res.fidelities, 1.0, atol=1e-9)
    np.testing.assert_allclose(res.mean, 1.0, atol=1e-9)
    assert res.failures.sum() == 0


def test_equal_samples_have_zero_std():
    # Every sigma = 0 sample is the same matrix and fidelity, yet np.std of
    # these 2000 equal floats read 2.2e-16 (m = 2) and 4.4e-16 (m = 102).
    # A point with spread keeps np.std's bits.
    c = cfg(DisorderTarget.COUPLINGS, sigmas=(0.0, 0.3), seed=3, samples=2000)
    res = sweep_coherent([DomeParams(N=6, m=m) for m in (2, 102)], c, SweepMetric.BELL_AT_QUARTER_T)
    assert (res.fidelities[:, 0] == res.fidelities[:, 0, :1]).all()
    assert (res.std[:, 0] == 0.0).all()
    for k in range(2):
        assert res.std[k, 1] == np.std(res.fidelities[k, 1], ddof=1) > 0.0


def test_sweep_is_deterministic():
    c = cfg(DisorderTarget.COUPLINGS, sigmas=(0.8,), samples=12)
    a = sweep_coherent(DomeParams(N=5, m=2), c, SweepMetric.BELL_AT_QUARTER_T)
    b = sweep_coherent(DomeParams(N=5, m=2), c, SweepMetric.BELL_AT_QUARTER_T)
    np.testing.assert_array_equal(a.fidelities, b.fidelities)


def test_sweep_multi_sigma_axis():
    c = cfg(DisorderTarget.MIDDLE_FREQUENCIES, sigmas=(0.0, 0.5, 1.0), samples=8)
    res = sweep_coherent(DomeParams(N=5, m=2), c, SweepMetric.BELL_AT_QUARTER_T)
    assert res.mean.shape == (3,)
    assert res.fidelities.shape == (3, 8)
    assert abs(res.mean[0] - 1.0) < 1e-9


def test_sweep_monotone_in_sigma_within_error():
    c = cfg(DisorderTarget.MIDDLE_FREQUENCIES, sigmas=(0.25, 1.0), seed=5, samples=40)
    res = sweep_coherent(DomeParams(N=5, m=2), c, SweepMetric.BELL_AT_QUARTER_T)
    pooled = np.sqrt(res.stderr[0] ** 2 + res.stderr[1] ** 2)
    assert res.mean[1] <= res.mean[0] + 2 * pooled


def test_sweep_metric_system_pairing():
    grid = Grid2D(3, 4, 2, 2)
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
        cfg(DisorderTarget.COUPLINGS, sigmas=(0.1,), samples=4),
        SweepMetric.QPT_AT_HALF_T,
    )
    assert np.all(res.fidelities <= 1.0 + 1e-9)
    assert np.all(res.fidelities > 0.5)


def test_sweep_grid_w_metric_sigma_zero():
    grid = Grid2D(3, 4, 2, 2)
    res = sweep_coherent(
        grid,
        cfg(DisorderTarget.EDGE_FREQUENCIES, sigmas=(0.0,), samples=3),
        SweepMetric.W_AT_QUARTER_T,
    )
    np.testing.assert_allclose(res.mean, 1.0, atol=1e-9)


def per_sample_fidelities(system, c, metric):
    """(len(c.sigmas), samples) fidelities, one `perturbed` sample at a time."""
    if isinstance(system, Grid2D):
        n_sites = system.rows * system.cols
        sites = tuple(i + 1 for i in corner_indices(system.rows, system.cols))
        ideal_matrix = single_excitation_matrix(system)
    else:
        n_sites, sites = system.N, (1, system.N)
        ideal_matrix = dome_hamiltonian(system).matrix()
    period = system.period

    def final(matrix):
        psi = evolve_closed(matrix * system.J, site_state(n_sites, 1), period / 4)[0]
        if n_sites > 8:  # 2^12 amplitudes would need a 268 MB outer product
            return entrywise_reduce(np.outer(psi, psi.conj()), sites)
        return brute_force_reduce(psi, n_sites, sites)

    ideal = final(ideal_matrix)
    out = np.empty((len(c.sigmas), c.samples))
    for i, sigma in enumerate(c.sigmas):
        point = DisorderConfig(target=c.target, sigmas=(sigma,), seed=c.seed, samples=c.samples)
        for k in range(c.samples):
            sample = perturbed(system, point, k)
            if metric is SweepMetric.QPT_AT_HALF_T:
                out[i, k] = simulate_qpt(sample * system.J, period / 2)[1]
            else:
                out[i, k] = np.trace(final(sample) @ ideal).real
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
    c = cfg(target, sigmas=(0.3, 1.5), seed=31, samples=5)
    res = sweep_coherent(system, c, metric)
    want = per_sample_fidelities(system, c, metric)
    assert np.max(np.abs(res.fidelities - want)) < 1e-12
    assert res.failures.sum() == 0


@pytest.mark.parametrize("target", list(DisorderTarget))
@pytest.mark.parametrize(
    "system",
    [DomeParams(N=5, m=102), Grid2D(3, 4, 2, 2)],
    ids=["chain", "grid"],
)
def test_perturb_equals_batched_rows(system, target):
    c = cfg(target, sigmas=(0.7,))
    model = _SiteModel.of(system)
    targeted, unit = unit_rows(model, c, range(6))
    stack = noise._perturbed(model, targeted, 0.7 * unit, [0] * 6)
    for k in range(6):
        np.testing.assert_array_equal(perturbed(system, c, k), stack[k])


@pytest.mark.parametrize(
    "system, metric",
    [
        (DomeParams(N=5, m=2), SweepMetric.BELL_AT_QUARTER_T),
        (DomeParams(N=5, m=102), SweepMetric.QPT_AT_HALF_T),
        (Grid2D(3, 4, 2, 2), SweepMetric.W_AT_QUARTER_T),
    ],
    ids=["bell", "qpt", "w"],
)
def test_chunked_sweep_is_bit_identical(system, metric, monkeypatch):
    # 21 rows: chunks of 4 rows leave a last chunk of 1.
    c = cfg(DisorderTarget.ALL, sigmas=(0.25, 0.5, 1.0), samples=7)
    whole = sweep_coherent(system, c, metric)
    n_sites = 12 if isinstance(system, Grid2D) else system.N
    for rows_per_chunk in (1, 4):
        chunk_rows(monkeypatch, rows_per_chunk, n_sites)
        chunked = sweep_coherent(system, c, metric)
        np.testing.assert_array_equal(chunked.fidelities, whole.fidelities)
        np.testing.assert_array_equal(chunked.mean, whole.mean)
        np.testing.assert_array_equal(chunked.std, whole.std)


def stack_of(kind, shape, m_values, J=1.0):
    """Chains or grids of one layout, one per m."""
    if kind is DomeParams:
        return [DomeParams(**shape, m=m, J=J) for m in m_values]
    return [Grid2D(**shape, m_x=m, m_y=m, J=J) for m in m_values]


_STACKS = [
    (DomeParams, dict(N=5), SweepMetric.BELL_AT_QUARTER_T),
    (DomeParams, dict(N=5), SweepMetric.QPT_AT_HALF_T),
    (Grid2D, dict(rows=3, cols=4), SweepMetric.W_AT_QUARTER_T),
]


@pytest.mark.parametrize("rows_per_chunk", [1, 4, None], ids=["1row", "4rows", "default"])
@pytest.mark.parametrize("case", _STACKS, ids=["bell", "qpt", "w"])
def test_stacked_sweep_equals_per_m_calls(case, rows_per_chunk, monkeypatch):
    # 21 rows per m: chunks of 4 rows straddle the m boundaries.
    kind, shape, metric = case
    systems = stack_of(kind, shape, [0, 2, 102, 2], J=RATE_5MHZ)
    c = cfg(DisorderTarget.ALL, sigmas=(0.25, 0.5, 1.0), samples=7)
    per_m = [sweep_coherent(s, c, metric) for s in systems]
    chunk_rows(monkeypatch, rows_per_chunk, shape["N"] if kind is DomeParams else 12)
    stacked = sweep_coherent(systems, c, metric)
    for field in ("mean", "std", "samples", "failures", "fidelities"):
        want = np.array([getattr(r, field) for r in per_m])
        np.testing.assert_array_equal(getattr(stacked, field), want, err_msg=field)
        assert getattr(stacked, field).shape == want.shape


@pytest.mark.parametrize(
    "systems, metric, samples",
    [
        (stack_of(DomeParams, dict(N=5), [2, 102]), SweepMetric.BELL_AT_QUARTER_T, 250),
        (stack_of(Grid2D, dict(rows=3, cols=4), [2, 102]), SweepMetric.W_AT_QUARTER_T, 75),
    ],
    ids=["bell", "w"],
)
def test_benchmark_size_sweeps_start_no_thread(systems, metric, samples, monkeypatch):
    # disorder_mc's Bell sweep (2 m x 3 sigmas x 250 samples of N = 5: 37500
    # matrix entries) and W sweep (2 m x 3 sigmas x 75 samples of 12 sites:
    # 64800 entries) run on the calling thread, with the bits of one row per
    # chunk.
    c = cfg(DisorderTarget.ALL, sigmas=(0.05, 0.1, 0.2), samples=samples)

    def no_thread(self):
        raise AssertionError("a coherent sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    whole = sweep_coherent(systems, c, metric)
    chunk_rows(monkeypatch, 1, 12 if metric is SweepMetric.W_AT_QUARTER_T else 5)
    one_row = sweep_coherent(systems, c, metric)
    for field in ("mean", "std", "samples", "failures", "fidelities"):
        np.testing.assert_array_equal(getattr(whole, field), getattr(one_row, field), err_msg=field)


def test_single_system_result_has_no_stack_axis():
    c = cfg(DisorderTarget.ALL, sigmas=(0.1, 0.2), samples=3)
    system = DomeParams(N=4, m=2)
    single = sweep_coherent(system, c, SweepMetric.BELL_AT_QUARTER_T)
    stack = sweep_coherent([system], c, SweepMetric.BELL_AT_QUARTER_T)
    assert (single.mean.shape, single.fidelities.shape) == ((2,), (2, 3))
    assert (stack.mean.shape, stack.fidelities.shape) == ((1, 2), (1, 2, 3))
    np.testing.assert_array_equal(stack.fidelities[0], single.fidelities)


@pytest.mark.parametrize(
    "systems",
    [
        [DomeParams(N=5, m=2), DomeParams(N=6, m=2)],
        [DomeParams(N=5, m=2), DomeParams(N=5, m=2, J=2.0)],
        [Grid2D(3, 4, 2, 2), Grid2D(4, 3, 2, 2)],
        [Grid2D(3, 4, 2, 2), Grid2D(3, 4, 2, 2, J=2.0)],
        [DomeParams(N=6, m=2), Grid2D(2, 3, 2, 2)],
        [],
    ],
    ids=["N", "chain-rate", "rows-cols", "grid-rate", "kind", "empty"],
)
def test_mismatched_stack_is_refused(systems):
    grid = bool(systems) and isinstance(systems[0], Grid2D)
    metric = SweepMetric.W_AT_QUARTER_T if grid else SweepMetric.BELL_AT_QUARTER_T
    with pytest.raises(ValueError, match="share kind, size and rate"):
        sweep_coherent(systems, cfg(DisorderTarget.ALL, samples=2), metric)
    # The decoherence scan reads its systems through the same model, so it
    # refuses the same stacks (with a chain metric, which grids would reach).
    with pytest.raises(ValueError, match="share kind, size and rate"):
        sweep_decoherence(systems, SweepMetric.BELL_AT_QUARTER_T, scan_configs())


def test_stack_of_non_systems_is_refused():
    for system in ([dome_hamiltonian(DomeParams(N=5, m=2))], dome_hamiltonian(DomeParams(N=5, m=2))):
        with pytest.raises(TypeError):
            sweep_coherent(system, cfg(DisorderTarget.ALL), SweepMetric.BELL_AT_QUARTER_T)
        with pytest.raises(TypeError):
            sweep_decoherence(system, SweepMetric.BELL_AT_QUARTER_T, scan_configs())


def test_failed_diagonalization_in_a_stack_drops_only_that_point(monkeypatch):
    systems = stack_of(DomeParams, dict(N=5), [2, 102])
    c = cfg(DisorderTarget.ALL, sigmas=(0.5, 1.0), samples=10)
    metric = SweepMetric.BELL_AT_QUARTER_T
    clean = sweep_coherent(systems, c, metric)
    point = cfg(DisorderTarget.ALL, seed=c.seed)
    bad = perturbed(systems[1], point, 3) * systems[1].J
    eigh = np.linalg.eigh

    def failing_eigh(H, *args, **kwargs):
        if np.any(np.all(H == bad, axis=(-2, -1))):
            raise np.linalg.LinAlgError("planted failure")
        return eigh(H, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    # In chunks of 1 or 4 rows, or all 40 rows in one, the failing row is 33.
    for rows_per_chunk in (1, 4, None):
        chunk_rows(monkeypatch, rows_per_chunk, 5)
        res = sweep_coherent(systems, c, metric)
        np.testing.assert_array_equal(res.failures, [[0, 0], [0, 1]])
        np.testing.assert_array_equal(res.samples, [[10, 10], [10, 9]])
        kept = ~np.isnan(res.fidelities)
        assert np.flatnonzero(~kept).tolist() == [np.ravel_multi_index((1, 1, 3), kept.shape)]
        np.testing.assert_array_equal(res.fidelities[kept], clean.fidelities[kept])
        np.testing.assert_array_equal(res.mean.flat[:3], clean.mean.flat[:3])
        assert abs(res.mean[1, 1] - np.mean(np.delete(clean.fidelities[1, 1], 3))) < 1e-15


def test_failed_diagonalization_drops_only_that_sample(monkeypatch):
    system = DomeParams(N=5, m=2)
    c = cfg(DisorderTarget.ALL, sigmas=(0.5, 1.0), samples=10)
    clean = sweep_coherent(system, c, SweepMetric.BELL_AT_QUARTER_T)
    point = cfg(DisorderTarget.ALL, seed=c.seed)
    bad = perturbed(system, point, 3) * system.J
    eigh = np.linalg.eigh

    def failing_eigh(H, *args, **kwargs):
        if np.any(np.all(H == bad, axis=(-2, -1))):
            raise np.linalg.LinAlgError("planted failure")
        return eigh(H, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    # In chunks of 1 or 4 rows, or all 20 rows in one, the failing row is 13.
    for rows_per_chunk in (1, 4, None):
        chunk_rows(monkeypatch, rows_per_chunk, 5)
        res = sweep_coherent(system, c, SweepMetric.BELL_AT_QUARTER_T)
        np.testing.assert_array_equal(res.failures, [0, 1])
        np.testing.assert_array_equal(res.samples, [10, 9])
        assert np.isnan(res.fidelities[1, 3])
        kept = np.ones((2, 10), dtype=bool)
        kept[1, 3] = False
        np.testing.assert_allclose(res.fidelities[kept], clean.fidelities[kept], rtol=0,
                                   atol=1e-15)
        assert res.mean[0] == clean.mean[0]
        assert abs(res.mean[1] - np.mean(np.delete(clean.fidelities[1], 3))) < 1e-15


@pytest.mark.parametrize("bad_rows, first", [([9, 15], 9), ([3, 15], 3), ([15, 18], 15)],
                         ids=["two-workers", "caller-and-worker", "one-worker"])
def test_worker_errors_reach_the_caller_in_chunk_order(bad_rows, first, monkeypatch):
    # 20 rows, one per chunk.  The case names place the two planted rows in
    # thirds of the rows (0-6, 7-13, 14-19) as a calling thread and two
    # workers would share them: whichever thirds they lie in, the error of the
    # earlier row reaches the caller, not a failed-sample count, and no
    # thread is left running.
    system = DomeParams(N=5, m=2)
    c = cfg(DisorderTarget.ALL, sigmas=(0.5, 1.0), samples=10)
    bad = {row: perturbed(system, cfg(DisorderTarget.ALL, sigmas=(c.sigmas[row // 10],),
                                      seed=c.seed), row % 10) for row in bad_rows}
    eigh = np.linalg.eigh

    def failing_eigh(H, *args, **kwargs):
        for row, matrix in bad.items():
            if np.any(np.all(H == matrix * system.J, axis=(-2, -1))):
                raise RuntimeError(f"planted failure in row {row}")
        return eigh(H, *args, **kwargs)

    chunk_rows(monkeypatch, 1, 5)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"planted failure in row {first}$"):
        sweep_coherent(system, c, SweepMetric.BELL_AT_QUARTER_T)
    assert threading.active_count() == before


@pytest.mark.parametrize("rows_per_chunk", [None, 2, 3])
def test_overflowing_disorder_fails_samples_silently(rows_per_chunk, monkeypatch):
    # Noise of 1e308 J overflows the site matrices: those samples are counted
    # failures, with no RuntimeWarning (an error under this suite's filters)
    # in any chunk, whatever errstate the caller set.  Chunks of 2 or 3 rows
    # mix finite and overflowing rows; None runs all 12 rows in one chunk.
    chunk_rows(monkeypatch, rows_per_chunk, 5)
    systems = stack_of(DomeParams, dict(N=5), [2, 102])
    c = cfg(DisorderTarget.ALL, sigmas=(0.5, 1e308), seed=1, samples=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise"):
            res = sweep_coherent(systems, c, SweepMetric.BELL_AT_QUARTER_T)
    np.testing.assert_array_equal(res.failures, [[0, 3], [0, 3]])
    np.testing.assert_array_equal(res.samples, [[3, 0], [3, 0]])
    assert np.all(np.isnan(res.mean[:, 1])) and np.all(np.isfinite(res.mean[:, 0]))
    finite = sweep_coherent(systems, cfg(DisorderTarget.ALL, sigmas=(0.5,), seed=1, samples=3),
                            SweepMetric.BELL_AT_QUARTER_T)
    np.testing.assert_array_equal(res.fidelities[:, :1], finite.fidelities)


def test_decoherence_scan_pinned_endpoints():
    # Frozen working-point values (J/2pi = 5 MHz, N = 5, m = 2): the T1
    # scan endpoint at T1 = 3 us, Tphi = 5 us and the Tphi endpoint at
    # Tphi = 0.5 us, T1 = 30 us.
    fids = sweep_decoherence(
        scan_chains(5, m_values=(2,)),
        SweepMetric.BELL_AT_QUARTER_T,
        scan_configs(t1_us_values=(3.0,), tphi_us_values=(0.5,)),
    )
    assert abs(fids[0, 0] - 0.9715619723) < 1e-5
    assert abs(fids[0, 1] - 0.8855576848) < 1e-5


def test_decoherence_scan_shapes_and_gain():
    fids = sweep_decoherence(
        scan_chains(3, m_values=(2, 6)),
        SweepMetric.BELL_AT_QUARTER_T,
        scan_configs(t1_us_values=(3.0, 300.0), tphi_us_values=(0.5, 50.0)),
    )
    assert fids.shape == (2, 4)
    t1_cut, tphi_cut = fids[:, :2], fids[:, 2:]
    assert np.all(np.diff(t1_cut, axis=1) > 0)
    assert np.all(np.diff(tphi_cut, axis=1) > 0)
    gain = t1_cut - t1_cut[0]
    np.testing.assert_array_equal(gain[0], 0.0)


@pytest.mark.parametrize("n_sites", [2, 5])
def test_qpt_decoherence_scan_matches_tomography_oracle(n_sites):
    chains = scan_chains(n_sites)
    decos = scan_configs(t1_us_values=(3.0, 300.0), tphi_us_values=(0.5, 50.0))
    fids = sweep_decoherence(chains, SweepMetric.QPT_AT_HALF_T, decos)
    for row, chain in zip(fids, chains):
        H = dome_hamiltonian(chain).matrix() * chain.J
        for got, deco in zip(row, decos, strict=True):
            assert abs(got - simulate_qpt(H, chain.period / 2, deco)[1]) < 1e-12


def dense_bell_point(chain, deco) -> float:
    """End-pair overlap at T/4 from the dense Liouvillian and expm(-iHt)."""
    N, t = chain.N, chain.period / 4
    H = single_excitation_matrix(chain, physical=True)
    psi = np.zeros(N + 1, dtype=complex)
    psi[1:] = scipy.linalg.expm(-1j * H * t)[:, 0]
    rho = expm_evolve(H, np.outer(site_state(N, 1), site_state(N, 1)), t, deco)
    ideal = entrywise_reduce(np.outer(psi, psi.conj()), (1, N))
    return float(np.real(np.trace(entrywise_reduce(rho, (1, N)) @ ideal)))


@pytest.mark.parametrize("metric", [SweepMetric.BELL_AT_QUARTER_T, SweepMetric.QPT_AT_HALF_T])
@pytest.mark.parametrize("n_sites", [2, 5])
def test_default_scan_matches_dense_liouvillian(n_sites, metric):
    # Every point of the default T1 and Tphi cuts against the dense oracle:
    # the tomography emulation for the transfer channel, the entrywise
    # partial trace of the dense state for the Bell overlap.  Then configs
    # that the two cuts never produce: T1 only, Tphi only, and a 3 x 3
    # (T1, Tphi) product map.
    decos = scan_configs()
    assert len(decos) == 16
    decos += [DecoherenceConfig(t1=3e-6), DecoherenceConfig(t1=300e-6),
              DecoherenceConfig(t_phi=0.5e-6), DecoherenceConfig(t_phi=50e-6)]
    decos += [DecoherenceConfig(t1=t1 * 1e-6, t_phi=tphi * 1e-6)
              for t1 in (3.0, 30.0, 300.0) for tphi in (0.5, 5.0, 50.0)]
    chains = scan_chains(n_sites, m_values=(0, 2, 102))
    fids = sweep_decoherence(chains, metric, decos)
    for row, chain in zip(fids, chains, strict=True):
        H = dome_hamiltonian(chain).matrix() * chain.J
        for got, deco in zip(row, decos, strict=True):
            if metric is SweepMetric.QPT_AT_HALF_T:
                ref = simulate_qpt(H, chain.period / 2, deco)[1]
            else:
                ref = dense_bell_point(chain, deco)
            assert abs(got - ref) <= 1e-12


def test_default_scan_exponentiates_once_per_m_and_tphi(monkeypatch):
    # The default Tphi grid contains the fixed 5 us, so each m needs 8
    # generator exponentials for both scans, for each of its two mirror
    # blocks.  The noise-free reference of both m is one stacked eigh, and
    # |1><1| has no vacuum coherences, so no other H is diagonalized.
    from domechain import dynamics

    expms, eighs = [], []
    expm, eigh = dynamics._expm, np.linalg.eigh
    monkeypatch.setattr(dynamics, "_expm", lambda A: expms.append(A) or expm(A))
    monkeypatch.setattr(np.linalg, "eigh", lambda H: eighs.append(H.shape) or eigh(H))
    for metric in (SweepMetric.BELL_AT_QUARTER_T, SweepMetric.QPT_AT_HALF_T):
        expms.clear()
        eighs.clear()
        fids = sweep_decoherence(scan_chains(5), metric, scan_configs())
        assert fids.shape == (2, 16)
        assert exponentiated(expms) == 8 * 2 * 2
        assert eighs == [(2, 5, 5)]


def test_decoherence_scan_rejects_grid_metric():
    with pytest.raises(ValueError, match="chain metrics"):
        sweep_decoherence(scan_chains(5), SweepMetric.W_AT_QUARTER_T, scan_configs())
    for metric in SweepMetric:  # every grid gets the one message that scans take chains
        with pytest.raises(ValueError, match=r"on chains \(DomeParams\), not grids"):
            sweep_decoherence(Grid2D(2, 3, 2, 2, J=RATE_5MHZ), metric, scan_configs())


@pytest.mark.parametrize("metric", [SweepMetric.BELL_AT_QUARTER_T, SweepMetric.QPT_AT_HALF_T])
def test_stacked_scan_equals_per_chain_calls(metric):
    # Like the coherent sweeps: a stack's rows are the single-chain scans, bit
    # for bit, repeated m and all, and one chain drops the leading axis.
    chains = scan_chains(4, m_values=(0, 2, 102, 2))
    decos = scan_configs(t1_us_values=(3.0, 30.0), tphi_us_values=(0.5, 5.0))
    stacked = sweep_decoherence(chains, metric, decos)
    per_chain = [sweep_decoherence(c, metric, decos) for c in chains]
    assert per_chain[0].shape == (4,)
    np.testing.assert_array_equal(stacked, np.array(per_chain))


@pytest.mark.parametrize("m", [0, 2, 102])
@pytest.mark.parametrize("n_sites", [2, 3, 5, 8])
@pytest.mark.parametrize("metric", [SweepMetric.BELL_AT_QUARTER_T, SweepMetric.QPT_AT_HALF_T],
                         ids=["bell", "qpt"])
def test_noiseless_scan_equals_zero_sigma_sweep(metric, n_sites, m):
    # Two routes to the noise-free fidelity that share the reference and the
    # scorer but not the propagator: the open scan at T1 = Tphi = 1e6 s and
    # the closed sweep at sigma = 0.
    chain = DomeParams(n_sites, m, RATE_5MHZ)
    fids = sweep_decoherence(chain, metric, [DecoherenceConfig(t1=1e6, t_phi=1e6)])
    coherent = sweep_coherent(chain, cfg(DisorderTarget.ALL, sigmas=(0.0,), samples=3), metric)
    np.testing.assert_allclose(fids, coherent.mean, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [0, 2, 102])
def test_coherent_qpt_is_the_amplitude_damping_formula(m, monkeypatch):
    # transfer_fidelity(|u|^2, u) of every sample equals |1 + u|^2 / 4 of its
    # end amplitude u = <N|U(T/2)|1>.
    amps = []
    readout_amplitudes = noise._readout_amplitudes
    monkeypatch.setattr(noise, "_readout_amplitudes",
                        lambda *a: amps.append(readout_amplitudes(*a)) or amps[-1])
    res = sweep_coherent(DomeParams(5, m), cfg(DisorderTarget.ALL, sigmas=(0.0, 0.1, 0.5), samples=20),
                         SweepMetric.QPT_AT_HALF_T)
    u = np.concatenate(amps)[:, 0]  # no noise-free reference: the score needs none
    assert u.size == res.fidelities.size == 60
    np.testing.assert_allclose(res.fidelities.ravel(), np.abs(1.0 + u) ** 2 / 4.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("system, metric", [
    (DomeParams(5, 2, RATE_5MHZ), SweepMetric.BELL_AT_QUARTER_T),
    (DomeParams(6, 102, RATE_5MHZ), SweepMetric.QPT_AT_HALF_T),
    (Grid2D(3, 4, 2, 1, J=RATE_5MHZ), SweepMetric.W_AT_QUARTER_T),
], ids=["bell", "qpt", "w"])
def test_sweep_amplitudes_are_closed_evolves_of_the_perturbed_matrices(system, metric, monkeypatch):
    # The sweep reads each sample's readout amplitudes off the one closed
    # propagator: they are evolve_closed's state of the sample's perturbed
    # matrix at the metric's time, at the readout sites, bit for bit.
    readout, duration = noise._reference(_SiteModel.of(system), metric)
    amps = []
    readout_amplitudes = noise._readout_amplitudes
    monkeypatch.setattr(noise, "_readout_amplitudes",
                        lambda *a: amps.append(readout_amplitudes(*a)) or amps[-1])
    c = cfg(DisorderTarget.ALL, sigmas=(0.5,), samples=6)
    sweep_coherent(system, c, metric)
    # amps[0] holds the noise-free reference of the entanglement metrics.
    got = np.concatenate(amps[int(metric is not SweepMetric.QPT_AT_HALF_T):])
    assert got.shape == (c.samples, readout.size)
    for k in range(c.samples):
        H = sampled(system, c, k)
        psi = evolve_closed(H, site_state(H.shape[0], 1), duration)[0]
        np.testing.assert_array_equal(got[k], psi[readout + 1])


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


def test_unit_normals_from_concurrent_threads_match_their_seeds():
    # Each thread re-points a Philox of its own: draws from 8 threads at
    # once, switching every microsecond, equal each seed's draws alone.
    seeds = range(8)
    want = {seed: noise._unit_normals(seed, range(200), 5) for seed in seeds}
    got = {seed: [] for seed in seeds}

    def draw(seed):
        for _ in range(20):
            got[seed].append(noise._unit_normals(seed, range(200), 5))

    threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert len(got[seed]) == 20
        for draws in got[seed]:
            np.testing.assert_array_equal(draws, want[seed])


@pytest.mark.parametrize("target", list(DisorderTarget), ids=lambda t: t.value)
def test_targeted_indices_equal_a_setdiff_oracle(target):
    # The draw order of every target on chains N = 2..9 and grids up to 4x5,
    # against np.setdiff1d for the middle sites: same values, dtype and order.
    systems = [DomeParams(n, 2) for n in range(2, 10)]
    systems += [Grid2D(r, c, 2, 1) for r in range(2, 5) for c in range(2, 6)]
    for system in systems:
        model = _SiteModel.of(system)
        sites, bonds = np.arange(model.freqs.shape[1]), np.arange(model.couplings.shape[1])
        want = {
            DisorderTarget.MIDDLE_FREQUENCIES: (np.setdiff1d(sites, model.edges), bonds[:0]),
            DisorderTarget.EDGE_FREQUENCIES: (model.edges, bonds[:0]),
            DisorderTarget.COUPLINGS: (sites[:0], bonds),
            DisorderTarget.ALL: (sites, bonds),
        }[target]
        for got, ref in zip(noise._targeted(model, target), want):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)
