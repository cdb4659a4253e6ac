"""Closed-form chains, 2D grids, and the large-m two-site reduction."""

import math

import numpy as np
import pytest

from domechain.cascade import CouplingBudget, feasible_N
from domechain.models import (
    DomeParams,
    Grid2D,
    PerturbativeBreakdownError,
    _SiteModel,
    dome_hamiltonian,
    schrieffer_wolff_reduce,
    single_excitation_matrix,
)
from domechain.spectrum import check_pst_spacing, dome_spectrum


def test_dome_closed_forms_n5_m2():
    ham = dome_hamiltonian(DomeParams(N=5, m=2))
    np.testing.assert_allclose(ham.omegas, [0, 6, 8, 6, 0], atol=1e-12)
    np.testing.assert_allclose(
        ham.couplings,
        [np.sqrt(7), 1.5 * np.sqrt(10), 1.5 * np.sqrt(10), np.sqrt(7)],
        atol=1e-12,
    )


def test_line_model_couplings():
    ham = dome_hamiltonian(DomeParams(N=6, m=0))
    n = np.arange(1, 6)
    np.testing.assert_allclose(ham.couplings, 0.5 * np.sqrt(n * (6 - n)), atol=1e-14)
    np.testing.assert_allclose(ham.omegas, 0.0, atol=1e-14)


def test_dome_mirror_symmetry_and_positivity():
    # Exact by construction, so nothing re-checks it at run time: the
    # integer products are exact in floats and 0.5 * a * b == 0.5 * b * a.
    for N in range(2, 513):
        for m in (0, 1, 2, 3, 10, 102, 1000):
            ham = dome_hamiltonian(DomeParams(N=N, m=m))
            np.testing.assert_array_equal(ham.omegas, ham.omegas[::-1])
            np.testing.assert_array_equal(ham.couplings, ham.couplings[::-1])
            assert np.all(ham.couplings > 0)


def test_dome_eigenvalues_match_spectrum():
    # The closed forms realize the dome spectrum; independent of synthesis.
    for N in (2, 5, 9, 14):
        for m in (0, 2, 3, 10):
            ham = dome_hamiltonian(DomeParams(N=N, m=m))
            ev = np.linalg.eigvalsh(ham.matrix())
            spec = dome_spectrum(N, m).values
            scale = max(1.0, np.max(np.abs(spec)))
            assert np.max(np.abs(ev - spec)) / scale < 1e-9


def test_dome_params_validation_and_capability():
    with pytest.raises(ValueError):
        DomeParams(N=1, m=2)
    with pytest.raises(ValueError):
        DomeParams(N=5, m=-1)
    with pytest.raises(ValueError):
        DomeParams(N=5, m=2, J=0.0)
    p = DomeParams(N=5, m=2, J=2.0)
    assert check_pst_spacing(dome_spectrum(p.N, p.m), np.pi)  # even m: PST at T/2
    assert abs(p.period * p.J - 2 * np.pi) < 1e-15


_BAD_CHAINS = {
    "N-fraction": dict(N=5.5, m=2),
    "N-below-2": dict(N=1, m=2),
    "N-inf": dict(N=np.inf, m=2),
    "N-nan": dict(N=np.nan, m=2),
    "m-fraction": dict(N=5, m=2.5),
    "m-negative": dict(N=5, m=-1),
    "m-inf": dict(N=5, m=np.inf),
    "m-nan": dict(N=5, m=np.nan),
    "J-zero": dict(N=5, m=2, J=0.0),
    "J-negative": dict(N=5, m=2, J=-1.0),
    "J-inf": dict(N=5, m=2, J=np.inf),
    "J-nan": dict(N=5, m=2, J=np.nan),
    "J-no-period": dict(N=5, m=2, J=1e-320),  # 2 pi / J overflows
}
_BAD_GRIDS = {
    "rows-fraction": (2.5, 3, 2, 2),
    "cols-below-2": (3, 1, 2, 2),
    "cols-inf": (3, np.inf, 2, 2),
    "m_x-fraction": (3, 4, 0.5, 2),
    "m_y-negative": (3, 4, 2, -1),
    "m_x-inf": (3, 4, np.inf, 2),
    "m_y-nan": (3, 4, 2, np.nan),
    "J-inf": (3, 4, 2, 2, np.inf),
    "J-nan": (3, 4, 2, 2, np.nan),
    "J-zero": (3, 4, 2, 2, 0.0),
    "J-no-period": (3, 4, 2, 2, 1e-320),
}


@pytest.mark.parametrize("params", list(_BAD_CHAINS.values()), ids=list(_BAD_CHAINS))
def test_dome_params_refuse_every_bad_value(params):
    # Fractional sizes once built a longer chain, infinite rates gave inf and
    # nan matrices, and m = inf raised OverflowError; each is a ValueError.
    with pytest.raises(ValueError):
        DomeParams(**params)


@pytest.mark.parametrize("args", list(_BAD_GRIDS.values()), ids=list(_BAD_GRIDS))
def test_grid_refuses_every_bad_value(args):
    with pytest.raises(ValueError):
        Grid2D(*args)


def test_integral_floats_and_numpy_integers_are_read_as_ints():
    chain = DomeParams(N=5.0, m=np.int64(2), J=3.0)
    assert chain == DomeParams(N=5, m=2, J=3.0)
    assert (type(chain.N), type(chain.m)) == (int, int)
    grid = Grid2D(np.int64(3), 4.0, 2.0, np.int64(1))
    assert grid == Grid2D(3, 4, 2, 1)
    assert all(type(v) is int for v in (grid.rows, grid.cols, grid.m_x, grid.m_y))
    np.testing.assert_array_equal(single_excitation_matrix(grid),
                                  single_excitation_matrix(Grid2D(3, 4, 2, 1)))


_RATES = (1.0, 0.37, 3.0, 2 * np.pi * 5e6, 1e300)
# Large shapes that are not powers of 2 round in the closed forms' products.
_SHAPES = (0, 1, 2, 3, 10, 102, 12345, 3**37, 2**60, 2**64)


def _shapes_at(J: float) -> list[int]:
    """The shapes whose matrices (entries below m N^2 / 4 here) J scales without overflow."""
    return [m for m in _SHAPES if m * J < 1e305]


def closed_form_chain(N: int, m: int) -> tuple[list[float], list[float]]:
    """omega_n and J_n of the dome closed forms, one Python float at a time."""
    omegas = [(n - 1.0) * (N - n) * m for n in range(1, N + 1)]
    couplings = [0.5 * math.sqrt(k * (N - k - 1.0) * m + k) * math.sqrt((k - 1.0) * (N - k) * m + N - k)
                 for k in range(1, N)]
    return omegas, couplings


def closed_form_grid(R: int, C: int, m_x: int, m_y: int) -> np.ndarray:
    """Site matrix in units of J of the R x C grid of closed-form chains, filled
    site by site; R = 1 gives the chain of length C and shape m_x."""
    wx, jx = closed_form_chain(C, m_x)
    wy, jy = closed_form_chain(R, m_y)  # R = 1: one site at 0.0, no bonds
    return loop_grid_matrix(np.add.outer(wy, wx), np.tile(jx, (R, 1)),
                            np.repeat(np.reshape(jy, (-1, 1)), C, axis=1))


def test_site_model_matrices_equal_the_closed_form_chains():
    # The model's matrices are the closed forms' own, bit for bit, one
    # system or a stack over m, in rad/s or in units of J.
    for N in range(2, 40):
        for J in _RATES:
            chains = [DomeParams(N, m, J) for m in _shapes_at(J)]
            stack = _SiteModel.of(chains)
            assert stack.stack == (len(chains),) and stack.rate == J and stack.lengths == (N,)
            np.testing.assert_array_equal(stack.edges, [0, N - 1])
            H = stack.matrices()
            for chain, h in zip(chains, H):
                ref = closed_form_grid(1, N, chain.m, 0)
                np.testing.assert_array_equal(h, ref * J)
                one = _SiteModel.of(chain)
                assert one.stack == ()
                np.testing.assert_array_equal(one.matrices(physical=False)[0], ref)


def test_site_model_matrices_equal_the_grid_matrices():
    # Stacks mix (m_x, m_y) both ways round, up to 2^64 either way.
    for R in range(2, 7):
        for C in range(2, 7):
            for J in _RATES:
                ms = _shapes_at(J)
                grids = [Grid2D(R, C, m_x, m_y, J)
                         for m_x, m_y in [*zip(ms, ms[3:] + ms[:3]), *zip(ms, ms[::-1])]]
                model = _SiteModel.of(grids)
                assert model.lengths == (R, C)
                np.testing.assert_array_equal(model.edges, [0, C - 1, (R - 1) * C, R * C - 1])
                for grid, h in zip(grids, model.matrices()):
                    np.testing.assert_array_equal(h, single_excitation_matrix(grid, physical=True))
                    ref = closed_form_grid(R, C, grid.m_x, grid.m_y)
                    np.testing.assert_array_equal(h, ref * J)


def test_site_model_takes_only_chains_and_grids():
    with pytest.raises(TypeError):
        _SiteModel.of(dome_hamiltonian(DomeParams(N=5, m=2)))
    with pytest.raises(TypeError):
        _SiteModel.of([DomeParams(N=5, m=2), np.eye(5)])
    with pytest.raises(ValueError, match="share kind, size and rate"):
        _SiteModel.of([DomeParams(N=5, m=2), DomeParams(N=5, m=2, J=2.0)])


def test_matrix_physical_scaling():
    # single_excitation_matrix is the one physical-matrix builder: on chains
    # it is J times the closed-form matrix in units of J, bit for bit.
    for N in range(2, 40):
        for m in (0, 1, 2, 3, 10, 102):
            for J in _RATES:
                params = DomeParams(N, m, J)
                np.testing.assert_array_equal(single_excitation_matrix(params, physical=True),
                                              J * dome_hamiltonian(params).matrix())


def test_one_integer_rule_for_sizes_and_shapes():
    # Systems, dome spectra and feasible_N share one check and its message.
    for build in (lambda m: DomeParams(5, m), lambda m: Grid2D(3, 3, m, 2),
                  lambda m: dome_spectrum(5, m), lambda m: feasible_N(CouplingBudget(2.0, 1.0), m)):
        for m in (2.5, -1, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^m(_x)? must be an integer >= 0, got {m!r}$"):
                build(m)


def test_ints_past_float_range_are_refused_with_value_error():
    # math.isfinite converts to float, which overflows from 2^1024 on; such
    # ints are refused as input like any other bad size, not an OverflowError.
    for N in (10**400, -(10**400), 2**1024):
        with pytest.raises(ValueError, match="^N must be an integer >= 2 of magnitude below 2\\^1024$"):
            DomeParams(N=N, m=2)
    with pytest.raises(ValueError, match="^m must be an integer >= 0 of magnitude below 2\\^1024$"):
        DomeParams(N=5, m=10**400)
    assert DomeParams(N=5, m=2**1023).m == 2**1023  # the largest power of 2 a float holds


_OVERFLOWING = {
    "chain": DomeParams(3, 2, 1e308),
    "stiff-chain": DomeParams(5, 102, 6.3e306),
    "grid": Grid2D(3, 3, 0, 0, 1e308),
    "stack": [DomeParams(5, 2, 1e306), DomeParams(5, 102, 1e306)],
}


@pytest.mark.parametrize("system", list(_OVERFLOWING.values()), ids=list(_OVERFLOWING))
def test_rates_that_scale_the_matrix_past_a_float_are_refused(system):
    # Finite rates whose site matrices overflow once scaled: the largest
    # absolute row sum bounds every entry and eigenvalue, so it is checked.
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="scales the site matrix past a float"):
            _SiteModel.of(system)


def test_grid_requires_two_by_two():
    with pytest.raises(ValueError):
        Grid2D(rows=1, cols=4, m_x=2, m_y=2)
    with pytest.raises(ValueError):
        Grid2D(rows=3, cols=4, m_x=-1, m_y=2)


def test_grid_frequency_table_adds_row_and_column_profiles():
    grid = Grid2D(3, 4, 2, 2)
    wx = dome_hamiltonian(DomeParams(N=4, m=2)).omegas
    wy = dome_hamiltonian(DomeParams(N=3, m=2)).omegas
    table = np.diag(single_excitation_matrix(grid)).reshape(3, 4)
    for r in range(3):
        for c in range(4):
            assert abs(table[r, c] - (wx[c] + wy[r])) < 1e-12


def test_grid_corner_indices_row_major():
    grid = Grid2D(3, 4, 2, 2)
    assert grid.corner_indices() == [0, 3, 8, 11]


def test_grid_matrix_is_symmetric_with_correct_bonds():
    grid = Grid2D(3, 4, 2, 1)
    H = single_excitation_matrix(grid)
    assert H.shape == (12, 12)
    np.testing.assert_allclose(H, H.T, atol=0)
    jx = dome_hamiltonian(DomeParams(N=4, m=2)).couplings
    jy = dome_hamiltonian(DomeParams(N=3, m=1)).couplings
    assert abs(H[0, 1] - jx[0]) < 1e-12  # (0,0)-(0,1) horizontal bond
    assert abs(H[0, 4] - jy[0]) < 1e-12  # (0,0)-(1,0) vertical bond
    assert H[0, 5] == 0.0  # no diagonal bonds


def test_grid_spectrum_is_kronecker_sum():
    grid = Grid2D(3, 4, 2, 2)
    ev = np.sort(np.linalg.eigvalsh(single_excitation_matrix(grid)))
    lx = dome_spectrum(4, 2).values
    ly = dome_spectrum(3, 2).values
    pair_sums = np.sort((ly[:, None] + lx[None, :]).ravel())
    np.testing.assert_allclose(ev, pair_sums, atol=1e-9)


def loop_grid_matrix(table, xb, yb) -> np.ndarray:
    """Grid site matrix filled site by site, bond by bond."""
    R, C = table.shape
    H = np.zeros((R * C, R * C))
    for r in range(R):
        for c in range(C):
            H[r * C + c, r * C + c] = table[r, c]
            if c + 1 < C:
                H[r * C + c, r * C + c + 1] = H[r * C + c + 1, r * C + c] = xb[r, c]
            if r + 1 < R:
                H[r * C + c, (r + 1) * C + c] = H[(r + 1) * C + c, r * C + c] = yb[r, c]
    return H


def test_grid_matrix_matches_site_by_site_fill():
    # Tables from the row and column dome chains: omega_x[c] + omega_y[r],
    # the x couplings on every row, the y couplings across every column.
    for R, C, mx, my in ((2, 2, 0, 0), (3, 4, 2, 1), (5, 3, 102, 2)):
        row = dome_hamiltonian(DomeParams(N=C, m=mx))
        col = dome_hamiltonian(DomeParams(N=R, m=my))
        table = row.omegas[None, :] + col.omegas[:, None]
        xb = np.tile(row.couplings, (R, 1))
        yb = np.repeat(col.couplings[:, None], C, axis=1)
        ref = loop_grid_matrix(table, xb, yb)
        grid = Grid2D(R, C, mx, my, J=3.0)
        np.testing.assert_array_equal(single_excitation_matrix(grid), ref)
        np.testing.assert_array_equal(single_excitation_matrix(grid, physical=True), ref * 3.0)


def test_grid_matrix_physical_scaling():
    grid = Grid2D(2, 3, 2, 2, J=7.0)
    np.testing.assert_allclose(
        single_excitation_matrix(grid, physical=True),
        single_excitation_matrix(grid) * 7.0,
    )


def test_schrieffer_wolff_large_m_limits():
    for N in (3, 4, 5):
        red = schrieffer_wolff_reduce(dome_hamiltonian(DomeParams(N=N, m=1000)))
        target = 0.5 if N % 2 == 0 else -0.5
        assert abs(red.j_eff - target) < 2e-2
        assert abs(red.omega1_eff + (N - 2) / 2.0) < 2e-2
        assert abs(red.omega1_eff - red.omegaN_eff) < 1e-9


def test_schrieffer_wolff_sign_pattern():
    # m large enough that every N <= 8 clears the gap guard.
    for N in range(3, 9):
        red = schrieffer_wolff_reduce(dome_hamiltonian(DomeParams(N=N, m=1000)))
        assert np.sign(red.j_eff) == (-1) ** N


def test_schrieffer_wolff_eigenvalues_track_full_chain():
    # The two end-dominated (lowest) eigenvalues converge as 1/m.
    errors = []
    for m in (100, 1000, 10000):
        ham = dome_hamiltonian(DomeParams(N=5, m=m))
        full = np.linalg.eigvalsh(ham.matrix())[:2]
        eff = schrieffer_wolff_reduce(ham).eigenvalues()
        errors.append(np.max(np.abs(full - eff)))
    slope = np.polyfit(np.log([100, 1000, 10000]), np.log(errors), 1)[0]
    assert abs(slope + 1.0) < 0.5


def test_schrieffer_wolff_breakdown_at_small_m():
    with pytest.raises(PerturbativeBreakdownError):
        schrieffer_wolff_reduce(dome_hamiltonian(DomeParams(N=5, m=1)))


def test_schrieffer_wolff_needs_middle_sites():
    with pytest.raises(ValueError):
        schrieffer_wolff_reduce(dome_hamiltonian(DomeParams(N=2, m=10)))


def test_schrieffer_wolff_jeff_bounded_by_parent_coupling():
    ham = dome_hamiltonian(DomeParams(N=4, m=500))
    red = schrieffer_wolff_reduce(ham)
    assert abs(red.j_eff) <= np.max(ham.couplings)
